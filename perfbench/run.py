#!/usr/bin/env python3
"""wsnsim benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a source checkout; the simulator is imported from
./src and nothing is installed:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 makes a traced run and reports the per-layer metrics.
The line before it records the environment and the raw wall times.
perfbench/README.md describes the workloads, checks and estimator.
"""
import os
import time

from speed import SpeedClock

if __name__ == "__main__":
    # started before anything else is imported: set-up is timed from here
    CLOCK = SpeedClock()
    CLOCK.start()
    WALL0 = time.perf_counter()
    # numpy's OpenBLAS otherwise starts a thread pool at import that spins
    # against the main thread, which made set-up time depend on whether the
    # other vCPU was free.  The simulator makes no BLAS calls.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOAD_NAMES = ("paper_sweep", "dense_flat", "dense_hier")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_simulator():
    """Import wsnsim from ./src of the checkout and compile its kernels."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "wsnsim" / "__init__.py").is_file():
        raise SystemExit("error: no src/wsnsim here; run from the root of a "
                         "wsnsim checkout")
    sys.path.insert(0, str(src))
    import wsnsim

    wsnsim.warmup()
    return wsnsim


def git_sha(root):
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wsnsim):
    import numpy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "backend": wsnsim.current_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(Path.cwd()),
    }


def main(clock, wall0, argv=None):
    args = parse_args(argv)
    wsnsim = import_simulator()
    setup_s = clock.now()
    setup_wall_s = time.perf_counter() - wall0

    import passes
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    try:
        if args.trace:
            out_dir = Path.cwd() / "perfbench" / "out"
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
            pr, metrics = passes.traced_run(wl, args.seconds, scratch, clock, trace_path)
        else:
            pr = passes.timed_run(wl, args.seconds, scratch, clock)
            sim_s = pr.sim_s()
            metrics = {
                "setup_s": (setup_s, "s"),
                "sim_s": (sim_s, "s"),
                "node_rounds_per_s": (pr.node_rounds / sim_s, "node-rounds/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
    finally:
        clock.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "passes": pr.passes, "runs_per_pass": wl.runs_per_pass,
            "node_rounds_per_pass": pr.node_rounds,
            "setup_wall_s": setup_wall_s, "sim_wall_s": pr.sim_wall_s(),
            "pass_wall_s": [round(t, 4) for t in pr.pass_wall_s],
            "pass_clock_s": [round(t, 4) for t in pr.pass_clock_s],
            "probes": clock.probes, "probe_wall_s": clock.probe_wall_s,
            **environment(wsnsim)}
    if args.trace:
        info["trace_file"] = str(trace_path.relative_to(Path.cwd()))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": pr.correct,
        "attempted": pr.attempted,
        "failed": pr.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main(CLOCK, WALL0)
    finally:
        CLOCK.stop()
    sys.exit(code)
