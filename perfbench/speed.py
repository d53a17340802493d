"""Host-speed tracking, so ``run_s`` follows the program and not the host.

The benchmark shares its CPU with other tenants, and on a 2-core
container the speed of one core was seen to swing by a factor of 1.5
between states that last from a fraction of a second to minutes.  The
same body's CPU time swung by ±25 % with it, while its work stayed
identical.

:class:`SpeedSampler` measures that speed while a body runs.  Every
20 ms of process CPU time, a ``SIGPROF`` interval timer runs a fixed
reference loop and records its wall time.  The loop allocates no
object the garbage collector tracks, so it never runs a collection on
the program's behalf.  It costs about 0.4 % of the body.

:meth:`SpeedSampler.at_reference_speed` rescales a body's CPU time, less
the sampler's own time, to the time it would take at the reference
speed: the speed at which the loop takes :data:`REFERENCE_S`.  Each
20 ms slice is scaled by its own sample, which is why the result is
the CPU time times the mean of ``REFERENCE_S / sample``.
"""

from __future__ import annotations

import signal
import time
from typing import Any

__all__ = ["REFERENCE_S", "SpeedSampler"]

#: CPU time between two samples.
PERIOD_S = 0.02
#: Time of one reference loop at the reference speed.
REFERENCE_S = 80e-6

_TABLE = {i: (i * 7919) % 1009 for i in range(256)}
_ITEMS = list(range(256))


def _reference_loop() -> int:
    """Dict and list lookups with small-int arithmetic; no allocation."""
    table, items = _TABLE, _ITEMS
    acc = 0
    for i in range(600):
        acc = (acc * 31 + table[items[(i * 7) & 255]]) & 0xFFFFF
    return acc


class SpeedSampler:
    """Samples host speed while active (a context manager)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _tick(self, _signum: int, _frame: Any) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def speed(self) -> float:
        """Mean host speed relative to the reference (1.0 = reference)."""
        if not self.samples:
            return 1.0
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def at_reference_speed(self, cpu_s: float) -> float:
        """``cpu_s`` less the sampler's own time, at the reference speed."""
        return (cpu_s - sum(self.samples)) * self.speed()
