"""Host-speed calibration: turn noisy host seconds into steady ones.

On a shared host the same CPU-bound Python code can run 1.8x slower for a
fraction of a second to several seconds at a time, because another tenant is
busy on the same physical core.  CPU time moves with wall time (the process
is not descheduled; the core itself is slower), so neither clock helps, and
the slow phases come and go faster than a pass lasts, so timing a loop before
and after a pass does not help either.

:class:`HostSpeed` samples the host's speed *during* a pass instead: every
``PROBE_PERIOD_S`` a ``SIGALRM`` handler runs a short fixed probe
(:func:`_probe`) and notes its speed.  A pass's normalized time is its host time (less
the probes' own time) times the mean probe speed times ``CALIBRATION_REF_S``:
the time the pass would have taken on a host where the probe takes
``CALIBRATION_REF_S``.  The probe touches nothing in ``repro``, so a change to
the program cannot move it; only the host can.

Every timed metric of the benchmark is reported in these normalized seconds;
the raw host seconds are printed beside them.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Seconds between two speed probes while a pass runs.
PROBE_PERIOD_S = 0.01

#: About the seconds one probe takes on a 2-vCPU Intel Xeon host while no
#: other tenant is busy on its core (README.md).  A fixed constant,
#: not a per-run measurement: a per-run reference would move with the host's
#: state, which is the drift to be removed.
CALIBRATION_REF_S = 0.0002


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        self.hits += 1
        return self.value


#: A small nested document for the probe's JSON round trips.
_DOC = {"a": [1, 2, 3, {"b": "xyz" * 4}], "c": {"d": 1.5, "e": None, "f": list(range(12))}}


def _probe() -> int:
    """A fixed mix of the work the simulator does: interpreted dict updates,
    attribute access and method calls, then C-library JSON round trips
    (records, traces and the store are JSON)."""
    table = {}
    cells = [_Cell() for _ in range(16)]
    total = 0
    for i in range(300):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        total += cells[i & 15].bump(key) & 7
    for _ in range(12):
        total += len(json.loads(json.dumps(_DOC, sort_keys=True)))
    return total


class HostSpeed:
    """Samples host speed with a ``SIGALRM`` probe while the context is open.

    One probe runs on entry, so even a sample shorter than the period has a
    speed reading.
    """

    def __init__(self) -> None:
        self.speeds: List[float] = []
        self.probe_s = 0.0

    def _tick(self, signum: int = 0, frame: object = None) -> None:
        start = time.perf_counter()
        _probe()
        took = time.perf_counter() - start
        self.speeds.append(1.0 / took)
        self.probe_s += took

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Mean probe speed, relative to the reference host."""
        return statistics.fmean(self.speeds) * CALIBRATION_REF_S

    def sample(self, elapsed_s: float) -> "Sample":
        """The calibrated sample of a span of ``elapsed_s`` host seconds that
        this sampler covered (its probes' own time is taken out)."""
        raw = elapsed_s - self.probe_s
        return Sample(raw, raw * self.speed, elapsed_s)


class Sample:
    """One measurement: host seconds without the probes (``raw_s``), the
    same normalized (``norm_s``), and host seconds with them (``host_s``)."""

    __slots__ = ("raw_s", "norm_s", "host_s")

    def __init__(self, raw_s: float, norm_s: float, host_s: float) -> None:
        self.raw_s = raw_s
        self.norm_s = norm_s
        self.host_s = host_s


def timed(fn: Callable[[], T]) -> Tuple[T, Sample]:
    """Run ``fn`` once under a :class:`HostSpeed` sampler; return its result
    and its calibrated time."""
    host = HostSpeed()
    start = time.perf_counter()
    with host:
        result = fn()
    return result, host.sample(time.perf_counter() - start)


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile (the value twice for a single value)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3
