"""Host-speed scaling of job times, for a benchmark that runs on a shared host.

On a few vCPUs of a shared machine the same pure-Python code runs up to
about twice as slow for seconds to minutes at a time, as neighbours load
the physical cores. The process's CPU time grows just as its wall time
does, so neither clock hides it. `HostSpeed` measures that speed while the
jobs run. A timer signal (SIGALRM, every `PERIOD_S` seconds of wall time)
interrupts the process between bytecodes and times a fixed probe: a short
pure-Python loop of integer arithmetic, scattered list reads, dict lookups
and Fraction sums.

A job's reference time is its measured time multiplied by the mean of
`REF_PROBE_S / probe` over the probes taken while it ran; a job too short
for `MIN_PROBES` of them uses the nearest ones. The probes are spaced evenly
in time, so that mean is the job's uncontended work over its measured time,
even when a slow spell starts or ends mid-job. The result reads as seconds
on an idle core of the reference host.

The probe's own time is kept off the job clock: `clock()` is
`perf_counter()` less the time spent in probes. The probe runs no monoball
code, so a change to monoball moves job times and not the scale.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.02
# a probe (the faster of two loops) takes about this long on an idle core of
# the reference host, an Intel Xeon vCPU under CPython 3.11
REF_PROBE_S = 6.0e-5
MIN_PROBES = 5

# The loop mixes three kinds of work that a shared host slows by different
# amounts: integer bytecode on locals, scattered reads from a 32k-entry list
# and lookups in an 8k-entry dict, and Fraction sums. Against each of them
# alone, the mix gave the steadiest scaled pass times on all three workloads.
_rng = random.Random(0)
_DATA = [_rng.getrandbits(40) for _ in range(1 << 15)]
_READS = [_rng.randrange(len(_DATA)) for _ in range(300)]
_TABLE = {v: i for i, v in enumerate(_DATA[:1 << 13])}
_KEYS = [_DATA[_rng.randrange(1 << 13)] for _ in range(150)]
_FRACTIONS = [Fraction(i % 11, i) for i in range(1, 21)]
del _rng


def _loop() -> int:
    acc = 0
    for i in range(1, 200):
        acc += (i * 7919) % 104729
    for i in _READS:
        acc ^= _DATA[i]
    for key in _KEYS:
        acc += _TABLE[key]
    total = Fraction(0)
    for q in _FRACTIONS:
        total += q
    return acc + total.denominator


def _timed_loop() -> float:
    start = perf_counter()
    _loop()
    return perf_counter() - start


def probe_seconds() -> float:
    """The faster of two runs of the loop: the first may pay for a cold cache."""
    return min(_timed_loop(), _timed_loop())


class HostSpeed:
    """Samples the host's speed during a `with` block; see the module doc."""

    def __init__(self):
        self.times = []         # job-clock time of each probe
        self.scales = []        # REF_PROBE_S / probe seconds
        self.spent = 0.0        # seconds spent in probes so far
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        took = probe_seconds()
        self.times.append(start - self.spent)
        self.scales.append(REF_PROBE_S / took)
        self.spent += perf_counter() - start

    def wait_for_probes(self, count: int = MIN_PROBES) -> None:
        """Spin until `count` probes were taken, for a measurement shorter
        than that many periods."""
        while len(self.times) < count:
            pass

    def scale(self, start: float, end: float) -> float:
        """Mean scale over the probes taken between two `clock()` readings,
        widened to the `MIN_PROBES` nearest ones when fewer fell inside."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        if hi - lo < MIN_PROBES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.times) - MIN_PROBES))
            hi = min(len(self.times), lo + MIN_PROBES)
        if hi <= lo:
            raise RuntimeError("no host-speed probes were taken")
        return sum(self.scales[lo:hi]) / (hi - lo)

    def reference_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
