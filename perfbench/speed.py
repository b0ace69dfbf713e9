"""A clock that runs at the machine's reference speed, not at its current one.

The vCPUs this benchmark was built on switch between a fast mode and modes
1.5-2x slower, in stretches from under a second to minutes, so plain wall
time of the same work spreads by tens of percent between runs.
`SpeedClock` corrects for that: every PERIOD_S of wall time a SIGALRM
handler times a fixed pure-Python probe (by thread CPU time, so a
preempted probe does not read slow), and the wall time since the previous
probe is counted at the rate PROBE_REF_S / probe time.  Work timed on this
clock reads the same whatever mode the machine was in, and a change to the
simulator still moves it in proportion, because the probe never changes.

It uses no thread and no process, and imports nothing beyond the standard
library, so it can run from the first line of the benchmark and also
correct the set-up time.
"""
import signal
import time

_perf = time.perf_counter
_cpu = time.thread_time

PERIOD_S = 0.01
# The probe's duration on the reference machine in its fast mode, so that
# one clock second is one wall second there.
PROBE_REF_S = 36e-6


def probe():
    t = _cpu()
    s = 0
    for i in range(600):
        s += (i * i) % 7
    return _cpu() - t


class SpeedClock:
    def __init__(self):
        self._state = (0.0, _perf(), 1.0)  # (clock reading, wall mark, rate)
        self.probes = 0
        self.probe_wall_s = 0.0

    def start(self):
        rate = PROBE_REF_S / min(probe() for _ in range(3))
        self._state = (0.0, _perf(), rate)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _tick(self, signum, frame):
        t0 = _perf()
        rate = PROBE_REF_S / probe()
        t1 = _perf()
        clock, mark, prev = self._state
        # the probe's own time is not counted; the interval before it runs
        # at the mean of the rates measured at its two ends
        self._state = (clock + (t0 - mark) * 0.5 * (prev + rate), t1, rate)
        self.probes += 1
        self.probe_wall_s += t1 - t0

    def now(self):
        clock, mark, rate = self._state
        return clock + (_perf() - mark) * rate
