"""The host's momentary speed, read from a fixed pure-Python probe.

On a shared host, other tenants slow this process down by up to twice,
in spells that come and go every few seconds. The benchmark reads the
probe just before and just after every timed operation and reports each
time in units of the probe's own time at that moment:

    reported = measured * NOMINAL_NS / local

where ``local`` is the mean of the two readings around the operation.
``NOMINAL_NS`` is a fixed constant, about the probe's fastest reading on
the 2-vCPU Xeon KVM host the benchmark was sized on, so reported times
read close to that host's quiet times. The probe uses no graypool code,
so a change to the library moves the measured time and not the scale.
"""

from __future__ import annotations

from time import perf_counter_ns

NOMINAL_NS = 200_000

_ITEMS = list(range(2000))
_TABLE = {i: i for i in range(0, 2000, 3)}


def _probe() -> int:
    """Bit tests, dict lookups and small tuples: the kinds of work graypool does most."""
    start = perf_counter_ns()
    kept = []
    total = 0
    for x in _ITEMS:
        if x & 0x55 == 0:
            kept.append(x)
        total += _TABLE.get(x, 0)
    [(x, x + 1, _TABLE.get(x)) for x in _ITEMS[:1000]]
    return perf_counter_ns() - start


class HostSpeed:
    """Probe readings of one run; ``floor`` is the lowest so far, for the record."""

    def __init__(self):
        self.floor: int | None = None

    def read(self) -> int:
        """One reading in nanoseconds; the probe runs twice so that its data is in cache."""
        _probe()
        ns = _probe()
        self.floor = ns if self.floor is None else min(self.floor, ns)
        return ns

    @staticmethod
    def scale(ns: float, local: float) -> float:
        """``ns`` measured while the probe read ``local``, in units of NOMINAL_NS probes."""
        return ns * NOMINAL_NS / local

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; return its result, nanoseconds and the local reading."""
        before = self.read()
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        ns = perf_counter_ns() - start
        return result, ns, (before + self.read()) / 2


SPEED = HostSpeed()
