"""fanweave benchmark: issue one workload's certificates and report its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Each run is one fresh single-threaded interpreter (``worker.py``).  It sets
up, then issues the workload's certificates back to back in timed passes (a
closed loop with one client) for about ``--seconds``, checking every answer.
Before each pass and after the last it starts another interpreter that only
sets up, so ``setup_s`` is a median of set-ups spread over the run.  With
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer metrics instead of the end-to-end ones.

Prints the environment, every metric by name with its unit, any failed
certificates, and as the last line one JSON object with the metrics
``BENCHMARK.json`` lists.  The full record, and with tracing the spans, go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "classify-dense", "tomography")
DEADLINE_S = 170.0
# Pinned in every run process before numpy loads: with two BLAS threads on a
# two-core machine the same certificate varied by up to 1.7x between runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
VERB_METRICS = {"compare": "compare_s", "fans": "fan_s", "povm": "povm_s", "reconstruct": "reconstruct_s"}


class RunError(Exception):
    """The run could not be measured; no result is printed."""


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def start_worker(args, workdir: Path, result: Path, deadline: float, extra=()) -> dict:
    """Run one fresh worker process to completion and return what it measured."""
    env = {k: v for k, v in os.environ.items() if k != "FANWEAVE_SEED"}
    env.update(PINNED_ENV)
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0),
               "--workdir", str(workdir), "--result", str(result), *extra]
    # Its own process group, so a timeout also stops the set-up processes it starts.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError("a run process did not finish in time") from None
    if code != 0:
        raise RunError(f"a run process exited with code {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(measured: dict) -> dict:
    passes = measured["passes"]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(measured["setups_s"]),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    for verb, name in VERB_METRICS.items():
        if any(verb in p["verb_s"] for p in passes):
            metrics[name] = statistics.median(p["verb_s"].get(verb, 0.0) for p in passes)
    return metrics


def report(names_units, metrics: dict, printed_only: dict) -> None:
    for name, unit in names_units:
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    for name, (value, unit) in printed_only.items():
        shown = f"{value:>14.6g} {unit}" if value is not None else f"{'n/a':>14} (verb not in this workload)"
        print(f"  {name:<52} {shown}  (not in BENCHMARK.json)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fanweave" / "__init__.py").is_file():
        print(f"error: no fanweave sources under {ROOT / 'src'}; run from a fanweave checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True)
    try:
        extra = ["--spans", str(out / f"spans-{tag}.json.gz")] if args.trace else []
        measured = start_worker(args, workdir, workdir / "result.json", deadline, extra)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = measured["passes"] + measured["traced"]
    attempted = sum(p["attempted"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    env = {"git_sha": git_sha(), **measured["env"]}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"passes {len(measured['passes'])} untraced, {len(measured['traced'])} traced; "
          f"{attempted} certificates attempted, {len(failures)} failed")
    for failure in failures:
        print(f"  FAILED {failure}")

    if args.trace:
        names_units = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        layers = measured["layers"]
        metrics = {name: layers.get(name, 0) for name, _ in names_units}
        spectra = layers.get("basis.fan_invariant.spectra", 0)
        printed = {k: (v, "s") for k, v in sorted(layers.items()) if k.endswith(".self_s") and k not in metrics}
        if spectra:
            printed["basis.fan_invariant.spectra_useful_ratio"] = (
                layers["basis.fan_invariant.distinct_members"] / spectra, "ratio")
        print("per-layer metrics (set-up plus one traced pass):")
        if not measured["counts_repeat"]:
            print("  WARNING: counts differ between traced passes")
    else:
        names_units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        all_metrics = end_to_end(measured)
        metrics = {name: all_metrics[name] for name, _ in names_units}
        printed = {"fail_ratio": (len(failures) / attempted, "failed/attempted")}
        printed.update((name, (all_metrics.get(name), "s")) for name in VERB_METRICS.values())
        print(f"end-to-end metrics (wall_s and verb times: median of {len(measured['passes'])} passes; "
              f"setup_s: median of {len(measured['setups_s'])} set-ups):")
    report(names_units, metrics, printed)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "measured": measured}
    with open(out / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    units = dict(names_units)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
