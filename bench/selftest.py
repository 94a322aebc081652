"""Harness self-test: a wrong expectation must show up in fail_ratio.

    python3 bench/selftest.py

Runs a few cheap tomography certificates twice in one process: as the
workload defines them, which must give fail_ratio 0, and with one expected
answer altered, which must give fail_ratio > 0.  Exits 0 when both hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import worker

CHOSEN = ("povm weyl4 0,0", "reconstruct povm weyl4 0,0", "mub weyl5", "hadamard-fan weyl6")


def fail_ratio(runner) -> float:
    result = runner.run_pass()
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return len(result["failures"]) / result["attempted"]


def main() -> int:
    worker.pin_threads()
    worker.import_fanweave()
    import workloads

    workdir = worker.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        certs = [c for c in workloads.setup("tomography", 0, str(workdir)) if c.cid in CHOSEN]
        clean = fail_ratio(worker.Runner(certs, 0))
        print(f"as defined: fail_ratio {clean}")
        altered = [
            dataclasses.replace(c, expect={**c.expect, "bases": 7}) if c.cid == "mub weyl5" else c for c in certs
        ]
        injected = fail_ratio(worker.Runner(altered, 0))
        print(f"one wrong expectation: fail_ratio {injected}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = len(certs) == len(CHOSEN) and clean == 0 and injected > 0
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
