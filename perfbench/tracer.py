"""Per-layer spans recorded from outside the simulator.

`Tracer.install()` rebinds the public functions of `runner`, `engine`,
`protocols`, `_kernels`, `network` and `metrics` -- every module-level name
in the `wsnsim` package that refers to one of them, and two methods -- to
wrappers that record a span (name, start, end, parent) per call.  Spans
stay in memory and are written out once, at the end.  Nothing under the
package is edited; `uninstall()` puts every original back.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

import numpy as np


def _len0(args, result):
    return len(args[0])


def _pairs(args, result):
    return len(args[0]) * len(args[2])


def _csv_bytes(args, result):
    return os.path.getsize(args[1])


# span name -> (module, attribute, count of work derived from the call)
FUNCTIONS = {
    "kernels.greedy_cover": ("wsnsim._kernels", "greedy_cover", _len0),
    "kernels.member_phase": ("wsnsim._kernels", "member_phase", _len0),
    "kernels.relay_phase": ("wsnsim._kernels", "relay_phase", _len0),
    "kernels.nearest_site": ("wsnsim._kernels", "nearest_site", _pairs),
    "kernels.election_mask": ("wsnsim._kernels", "election_mask", None),
    "protocols.leach_elect_chs": ("wsnsim.protocols", "leach_elect_chs", None),
    "protocols.deec_elect_chs": ("wsnsim.protocols", "deec_elect_chs", None),
    "protocols.campteen_elect_chs": ("wsnsim.protocols", "campteen_elect_chs", None),
    "protocols.hteen_promote_layers": ("wsnsim.protocols", "hteen_promote_layers", None),
    "protocols.hteen_build_hierarchy": ("wsnsim.protocols", "hteen_build_hierarchy", None),
    "protocols.teen_gate_mask": ("wsnsim.protocols", "teen_gate_mask", None),
    "network.sense_environment": ("wsnsim.network", "sense_environment", None),
    "network.deploy": ("wsnsim.network", "deploy", None),
    "runner.run_scenario": ("wsnsim.runner", "run_scenario", None),
    "runner.run_matrix": ("wsnsim.runner", "run_matrix", None),
    "metrics.write_csv": ("wsnsim.metrics", "write_csv", _csv_bytes),
    "metrics.write_summary": ("wsnsim.metrics", "write_summary", None),
}
# span name -> (module, class, method)
METHODS = {
    "engine.step": ("wsnsim.engine", "Engine", "step"),
    "metrics.record_round": ("wsnsim.metrics", "RunHistory", "record_round"),
}


class Tracer:
    def __init__(self, now):
        self.now = now       # the clock spans are timed on
        self.spans = []      # [name, start, end, parent index, work count]
        self._open = []      # indices of the spans now running
        self._undo = []      # (owner, attribute, original value)

    def _wrap(self, name, fn, count):
        spans, stack, now = self.spans, self._open, self.now

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        package = [m for n, m in sys.modules.items()
                   if n == "wsnsim" or n.startswith("wsnsim.")]
        for name, (mod, attr, count) in FUNCTIONS.items():
            orig = getattr(sys.modules[mod], attr)
            wrapper = self._wrap(name, orig, count)
            for m in package:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        for name, (mod, cls, meth) in METHODS.items():
            owner = getattr(sys.modules[mod], cls)
            orig = vars(owner)[meth]
            self._undo.append((owner, meth, orig))
            setattr(owner, meth, self._wrap(name, orig, None))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def clear(self):
        self.spans.clear()

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self):
        """Per-layer figures of the spans recorded since the last clear."""
        own = self.self_times()
        by = {name: [] for name in list(FUNCTIONS) + list(METHODS)}
        for i, s in enumerate(self.spans):
            by[s[0]].append(i)

        def total(name):
            return sum(own[i] for i in by[name])

        def work(name):
            return sum(self.spans[i][4] for i in by[name])

        def durations(name):
            return [self.spans[i][2] - self.spans[i][1] for i in by[name]]

        def pct(vals, q):
            return float(np.percentile(vals, q)) if vals else 0.0

        m = {}
        for name, unit in (("kernels.greedy_cover", "order_nodes"),
                           ("kernels.member_phase", "nodes"),
                           ("kernels.relay_phase", "senders"),
                           ("kernels.nearest_site", "pairs")):
            m[f"{name}.calls"] = (len(by[name]), "count")
            m[f"{name}.s"] = (total(name), "s")
            m[f"{name}.{unit}"] = (work(name), "count")
        m["kernels.election_mask.calls"] = (len(by["kernels.election_mask"]), "count")
        m["kernels.election_mask.s"] = (total("kernels.election_mask"), "s")
        for name in ("protocols.leach_elect_chs", "protocols.deec_elect_chs",
                     "protocols.campteen_elect_chs", "protocols.hteen_promote_layers",
                     "protocols.hteen_build_hierarchy", "protocols.teen_gate_mask",
                     "network.sense_environment", "network.deploy",
                     "runner.run_matrix", "metrics.record_round",
                     "metrics.write_summary"):
            m[f"{name}.s"] = (total(name), "s")
        steps = durations("engine.step")
        m["engine.step.calls"] = (len(steps), "count")
        m["engine.step.self_s"] = (total("engine.step"), "s")
        m["engine.step.p50_us"] = (pct(steps, 50) * 1e6, "us")
        m["engine.step.p99_us"] = (pct(steps, 99) * 1e6, "us")
        runs = durations("runner.run_scenario")
        m["runner.run_scenario.calls"] = (len(runs), "count")
        m["runner.run_scenario.p50_s"] = (statistics.median(runs) if runs else 0.0, "s")
        m["metrics.write_csv.calls"] = (len(by["metrics.write_csv"]), "count")
        m["metrics.write_csv.s"] = (total("metrics.write_csv"), "s")
        m["metrics.write_csv.bytes"] = (work("metrics.write_csv"), "bytes")
        return m

    def write(self, path):
        """Write the recorded spans as JSON, start and end relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3]}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
