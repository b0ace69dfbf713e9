"""Repeated passes of one workload: timing, checking and tracing them.

Every pass makes the same calls with the same seeds.  Each call is timed
on the speed clock; the workload's `sim_s` is the sum over its calls of
the median over passes.  Every run a pass simulates is one operation: it
is checked on its own (checks.run_violations), against the same run in
the first pass (identical history, byte-identical CSV), and, on
paper_sweep, against summary.json; a run that breaks any check counts
as failed.
"""
from __future__ import annotations

import shutil
import statistics
import time

from wsnsim.runner import SUMMARY_FILENAME, artifact_name

import checks

_perf = time.perf_counter


def _key(res):
    return (res.protocol.name.lower(), res.sink.name.lower(), res.seed)


class PassRunner:
    def __init__(self, wl, scratch, clock):
        self.wl = wl
        self.scratch = scratch
        self.clock = clock
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.node_rounds = 0
        self.pass_wall_s = []
        self.pass_clock_s = []
        self.reset_timings()
        self._first_digests = None
        self._first_files = None

    def reset_timings(self):
        self.clock_s = {c.label: [] for c in self.wl.calls}
        self.wall_s = {c.label: [] for c in self.wl.calls}

    def one_pass(self):
        wl = self.wl
        out_dir = self.scratch / f"pass{self.passes}" if wl.writes_artifacts else None
        results = []
        start, clock_start = _perf(), self.clock.now()
        for call in wl.calls:
            c0, w0 = self.clock.now(), _perf()
            results.extend(wl.run_call(call, out_dir))
            c1, w1 = self.clock.now(), _perf()
            self.clock_s[call.label].append(c1 - c0)
            self.wall_s[call.label].append(w1 - w0)
        self.pass_wall_s.append(_perf() - start)
        self.pass_clock_s.append(self.clock.now() - clock_start)
        self._check(results, out_dir)
        self.passes += 1

    def _check(self, results, out_dir):
        n = self.wl.cfg.nodes
        bad = {}
        for res in results:
            errs = checks.run_violations(res, self.wl.cfg, n)
            if errs:
                bad[_key(res)] = errs
        digests = {_key(r): checks.history_digest(r.history) for r in results}
        if self._first_digests is None:
            self._first_digests = digests
            self.node_rounds = sum(checks.node_rounds(r.history, n) for r in results)
        for key, d in digests.items():
            if self._first_digests.get(key) != d:
                bad.setdefault(key, []).append("history differs from the first pass")
        if out_dir is not None:
            self._check_artifacts(results, out_dir, bad)
        if len(results) != self.wl.runs_per_pass:
            self.correct = False
        for key, errs in bad.items():
            print(f"check failed for {key}: {'; '.join(errs[:3])}", flush=True)
        self.attempted += len(results)
        self.failed += len(bad)

    def _check_artifacts(self, results, out_dir, bad):
        names = {_key(r): artifact_name(r.protocol, r.sink, r.seed) for r in results}
        files = checks.dir_digests(out_dir)
        if set(files) != set(names.values()) | {SUMMARY_FILENAME}:
            self.correct = False
        else:
            for key, errs in checks.summary_violations(out_dir, names).items():
                bad.setdefault(key, []).extend(errs)
            first = self._first_files = self._first_files or files
            for key, name in names.items():
                if files[name] != first[name]:
                    bad.setdefault(key, []).append(f"{name} differs from the first pass")
                if files[SUMMARY_FILENAME] != first[SUMMARY_FILENAME]:
                    bad.setdefault(key, []).append("summary.json differs from the first pass")
        shutil.rmtree(out_dir)

    def run_until(self, deadline, min_passes):
        """Run passes while the next one is expected to end by `deadline`."""
        while self.passes < min_passes or _perf() + self.pass_wall_s[-1] <= deadline:
            self.one_pass()

    def sim_s(self):
        return sum(statistics.median(v) for v in self.clock_s.values())

    def sim_wall_s(self):
        return sum(statistics.median(v) for v in self.wall_s.values())


def timed_run(wl, seconds, scratch, clock):
    pr = PassRunner(wl, scratch, clock)
    pr.run_until(_perf() + seconds, 2)
    return pr


def traced_run(wl, seconds, scratch, clock, trace_path):
    """Untraced passes, then traced ones, then the kernel micro-benchmarks.

    Returns the PassRunner and the per-layer metrics: work counts of one
    pass, self times averaged over the traced passes, and the tracing
    overhead as traced minus untraced `sim_s`.
    """
    from micro import micro_metrics
    from tracer import Tracer

    start = _perf()
    pr = PassRunner(wl, scratch, clock)
    pr.run_until(start + 0.4 * seconds, 2)
    untraced = pr.sim_s()
    pr.reset_timings()
    tracer = Tracer(clock.now)
    tracer.install()
    sums = {}
    traced_passes = 0
    try:
        while traced_passes < 2 or _perf() + pr.pass_wall_s[-1] <= start + 0.8 * seconds:
            tracer.clear()
            pr.one_pass()
            traced_passes += 1
            for k, (v, unit) in tracer.layer_metrics().items():
                sums[k] = (sums.get(k, (0, unit))[0] + v, unit)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    layers = {k: (v // traced_passes if unit in ("count", "bytes") else v / traced_passes, unit)
              for k, (v, unit) in sums.items()}
    layers["trace.overhead_s"] = (pr.sim_s() - untraced, "s")
    layers.update(micro_metrics(wl.cfg.nodes, wl.seed, clock.now))
    return pr, layers
