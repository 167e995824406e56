"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by up to 1.6x over
minutes, as other tenants contend for caches and memory; process CPU time
drifts with wall time, so it is no way out.  The benchmark therefore times
this loop between its ops and scales each op time by

    REF_S / (median time of the NEAR reference calls nearest the op)

so op times read as if the host ran at the speed where the loop takes
REF_S.  The loop is a box-ball carrier sweep written here, not imported
from boxball, so a change to the program cannot move it; it builds a step
table of tuples like the program's sweeps do, so cache and memory
contention slow it alike.  The garbage collector is off while it runs, so
the size of the program's heap does not reach it either.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

REF_S = 0.005  # nominal time of one reference() call; sets the scale only
EVERY_S = 0.1  # time between reference calls while ops run
NEAR = 10  # reference calls whose median scales one op time

_rng = random.Random(12345)
_STATE = tuple(_rng.choice((1, 1, 1, 2, 3, 4, 5, 6)) for _ in range(600))


def _core(top: int, bottom: int, g: int) -> tuple[int, int, int, str]:
    if g <= top:
        return top, g, bottom, ("a" if top == 1 else "b")
    if g <= bottom:
        return bottom, top, g, ("c" if top == 1 else "f")
    return top, bottom, g, ("d" if top == 1 else "g")


def reference(passes: int = 40) -> int:
    """`passes` carrier sweeps over a fixed 600-site path, each stored."""
    state, table = _STATE, []
    for _ in range(passes):
        top, bottom, out = 1, 2, []
        for site in state:
            emitted, top, bottom, _tag = _core(top, bottom, site)
            out.append(emitted)
        state = tuple(out[1:] + out[:1])
        table.append(state)
    return len(table)


def timed_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Reference times, taken at most every EVERY_S while ops run."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each reference call ended
        self.times: list[float] = []

    def sample(self) -> None:
        dt = timed_reference()
        self.at.append(time.perf_counter())
        self.times.append(dt)

    def tick(self) -> None:
        """Call between ops; samples when EVERY_S has passed."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns an op time over [t0, t1] into REF_S time: REF_S
        over the median of the NEAR reference times closest to it."""
        mid = (t0 + t1) / 2
        i = bisect.bisect_left(self.at, mid)
        lo = max(0, min(i - NEAR // 2, len(self.at) - NEAR))
        return REF_S / statistics.median(self.times[lo:lo + NEAR])
