"""One benchmark run process: set-up, then timed passes over a workload.

Started by ``run.py`` as a fresh interpreter for every run, so set-up time and
peak RSS belong to this process alone and nothing is carried between runs.
Writes its measurements as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60
SETUPS_PER_GAP = 1  # set-up-only processes before each pass and after the last


def pin_threads() -> None:
    """Single-threaded BLAS; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_fanweave():
    """Import fanweave from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fanweave

    if Path(fanweave.__file__).resolve().parent != (src / "fanweave").resolve():
        raise ImportError(f"fanweave imported from {fanweave.__file__}, not from {src}")
    return fanweave


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


class Runner:
    """Issues a workload's certificates back to back and checks every answer."""

    def __init__(self, certs, seed: int):
        from fanweave import cli, serialize, tomography

        import workloads

        self.certs = certs
        self.seed = seed
        self.cli = cli
        self.serialize = serialize
        self.tomography = tomography
        self.workloads = workloads

    def _cli(self, cert):
        argv = ["--format", "json", "--seed", str(self.seed if cert.seed is None else cert.seed)]
        if cert.out:
            argv += ["--out", cert.out]
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                self.cli.main.main(args=argv + list(cert.args), standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        if code not in (0, 3):
            return code, {"stderr": stderr.getvalue().strip()}
        return code, json.loads(stdout.getvalue())

    def _reconstruct(self, cert):
        povm = self.serialize.povm_from_json(self.serialize.read_json(cert.povm))
        errors = [self.tomography.reconstruct(rho, povm)[1] for rho in cert.states]
        return 0, {"states": len(errors), "max_error": max(errors)}

    def run_pass(self, recorder=None) -> dict:
        """One timed pass over the certificate list; returns its wall time, verb times and failures."""
        verb_s: dict[str, float] = {}
        cert_s = []
        failures = []
        start = time.perf_counter()
        for cert in self.certs:
            if recorder is not None:
                recorder.begin_cert(cert.cid, cert.verb)
            t = time.perf_counter()
            try:
                code, report = self._reconstruct(cert) if cert.verb == "reconstruct" else self._cli(cert)
                problem = None
            except Exception as exc:  # any raise is a failed certificate, not a failed run
                problem = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t
            if recorder is not None:
                recorder.end_cert()
            verb_s[cert.verb] = verb_s.get(cert.verb, 0.0) + elapsed
            cert_s.append(elapsed)
            if problem is None:
                problem = self.workloads.mismatch(cert, self.workloads.answer_fields(code, report))
            if problem is not None:
                failures.append(f"{cert.cid}: {problem}")
        return {"wall_s": time.perf_counter() - start, "verb_s": verb_s, "cert_s": cert_s,
                "attempted": len(self.certs), "failures": failures}


def layer_metrics(recorder) -> dict:
    """Flat per-layer numbers of one recorder: calls, self times, counters and CLI self time."""
    flat = {f"{name}.calls": n for name, n in recorder.calls.items() if not name.startswith("cert.")}
    flat.update((f"{name}.self_s", s) for name, s in recorder.self_s.items() if not name.startswith("cert."))
    flat.update(recorder.counts)
    verbs = {i for i, cid in enumerate(recorder.certs) if cid != "setup" and not cid.startswith("reconstruct ")}
    flat["cli.self_s"] = sum(
        (span[2] - span[1]) - recorder.library_s.get(span[4], 0.0)
        for span in recorder.spans
        if span[3] == -1 and span[4] in verbs
    )
    flat["library_s"] = sum(recorder.library_s.values())
    return flat


def traced_layers(setup: dict, passes: list, untraced: list) -> dict:
    """Per-layer metrics: set-up plus one traced pass, median over traced passes."""
    per_pass = []
    for p in passes:
        flat = dict(setup)
        for key, value in p["layers"].items():
            flat[key] = flat.get(key, 0) + value
        flat["trace.attributed_share"] = p["layers"]["library_s"] / p["wall_s"]
        per_pass.append(flat)
    keys = set().union(*per_pass)
    layers = {k: statistics.median(f.get(k, 0) for f in per_pass) for k in keys}
    wall = statistics.median(p["wall_s"] for p in passes)
    layers["trace.overhead_ratio"] = wall / statistics.median(p["wall_s"] for p in untraced) - 1.0
    counted = [k for k in keys if not k.endswith("_s") and not k.startswith("trace.")]
    counts_repeat = all(f.get(k) == per_pass[0].get(k) for f in per_pass for k in counted)
    return {"layers": layers, "counts_repeat": counts_repeat}


def setup_elsewhere(args) -> float:
    """Set up once more in a fresh interpreter; returns that process's set-up time."""
    workdir = Path(args.workdir) / f"setup-{time.monotonic_ns()}"
    workdir.mkdir()
    try:
        result = workdir / "result.json"
        t0 = time.monotonic()
        subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                        "--t0", repr(t0), "--workdir", str(workdir), "--result", str(result), "--setup-only"],
                       check=True, timeout=SETUP_TIMEOUT_S)
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)["setups_s"][0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when this process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    pin_threads()
    import_fanweave()
    import spans
    import workloads

    recorders = []

    def traced(func):
        recorder = spans.Recorder()
        recorders.append(recorder)
        replaced = spans.install(recorder)
        try:
            return func(recorder), recorder
        finally:
            spans.uninstall(replaced)

    def setup(recorder=None):
        if recorder is not None:
            recorder.begin_cert("setup", "setup")
        certs = workloads.setup(args.workload, args.seed, args.workdir)
        if recorder is not None:
            recorder.end_cert()
        return certs

    if args.trace:
        certs, setup_recorder = traced(setup)
    else:
        certs = setup()
    result = {"setups_s": [time.monotonic() - args.t0]}
    if not args.setup_only:
        runner = Runner(certs, args.seed)
        passes, traced_passes = [], []
        while True:
            if args.trace and len(passes) > len(traced_passes):
                # The traced run alternates untraced and traced passes, at least one of each.
                record, recorder = traced(runner.run_pass)
                record["layers"] = layer_metrics(recorder)
                traced_passes.append(record)
            else:
                if not args.trace:
                    # Set-up samples between passes spread over the whole run, as the machine's speed drifts.
                    result["setups_s"] += [setup_elsewhere(args) for _ in range(SETUPS_PER_GAP)]
                passes.append(runner.run_pass())
            # Whole passes only: start another while at least half a pass fits in the time left.
            walls = [p["wall_s"] for p in passes + traced_passes]
            if (traced_passes or not args.trace) and sum(walls) + 0.5 * statistics.mean(walls) >= args.seconds:
                break
        if not args.trace:
            result["setups_s"] += [setup_elsewhere(args) for _ in range(SETUPS_PER_GAP)]
        result.update(passes=passes, traced=traced_passes, env=environment(args.seed),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if args.trace:
            result.update(traced_layers(layer_metrics(setup_recorder), traced_passes, passes))
            if args.spans:
                spans.write(args.spans, recorders)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
