"""Host-speed reference: a fixed pure-Python loop timed all through a run.

The VM this benchmark was built on changes speed by up to 2x over seconds
to tens of seconds (busy neighbours; process time tracks wall time, so it is
not steal time).  ``HostClock`` times the reference loop from a SIGALRM
handler every ``INTERVAL_S`` while the work runs, and turns a host-time
interval into reference-speed seconds: the interval minus the handler's own
time, multiplied by ``NOMINAL_S / reference time`` averaged over the samples
taken in and next to it.  The result reads as host seconds on a host that
runs the loop in ``NOMINAL_S``.  The loop is timed in thread CPU time, so the
CLI's pool threads, which share the GIL with the handler, do not lengthen
it.  It does what gripsim's hot paths do (float math, calls, small frozen
dataclasses) and none of gripsim's code, so a change to gripsim cannot move
it.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from time import perf_counter, thread_time

REF_ITERS = 10_000
NOMINAL_S = 0.008     # about the loop's fastest time on the build VM
INTERVAL_S = 0.2      # costs ~4% of the run


@dataclass(frozen=True)
class _Pt:
    x: float
    y: float


def reference_s() -> float:
    """CPU seconds this thread spends on the fixed reference loop, now."""
    t0 = thread_time()
    acc = 0.0
    for i in range(REF_ITERS):
        p = _Pt(math.sin(i * 1e-3), math.cos(i * 2e-3))
        acc += math.hypot(p.x * 2.0 + p.y, p.y - p.x)
    return thread_time() - t0


class HostClock:
    """Samples the reference loop every ``INTERVAL_S`` between ``start`` and ``stop``.

    Signal handlers run in the main thread, so ``start`` must be called there;
    while the handler runs it holds the GIL, so every thread pauses with it.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []   # (perf_counter at start, reference_s)

    def _tick(self, signum=None, frame=None) -> None:
        self.ticks.append((perf_counter(), reference_s()))

    def sample(self, n: int) -> None:
        """Take ``n`` samples now, e.g. right before or after a short interval."""
        for _ in range(n):
            self._tick()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, a: float, b: float) -> float:
        """Host seconds to reference-speed seconds, for the host interval [a, b]."""
        near = [ref for s, ref in self.ticks if a - INTERVAL_S <= s <= b + INTERVAL_S]
        if not near:
            near = [min(self.ticks, key=lambda t: abs(t[0] - a))[1]]
        return sum(NOMINAL_S / ref for ref in near) / len(near)

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds of the host interval [a, b], the handler's time taken out."""
        paused = sum(ref for s, ref in self.ticks if a <= s <= b)
        return (b - a - paused) * self.factor(a, b)
