"""Wall time rescaled to a fixed reference speed of the machine.

On a shared host the same pass over the same ops takes up to twice as
long from one minute to the next, because the speed of the cores moves
with their other tenants.  A ReferenceClock samples that speed while
the work runs: every INTERVAL_S of wall time an interval timer
interrupts the work, and the handler times one fixed reference chunk
(small numpy gathers, hashing of their bytes and integer arithmetic,
the mix the package's own loops are made of; none of it calls the
package).  The wall time since the previous sample is counted at the
speed that chunk showed:

    scaled += dt * REFERENCE_CHUNK_S / chunk_seconds

so a scaled second is a second on a machine where one chunk takes
REFERENCE_CHUNK_S.  The chunks' own time is left out of both the wall
and the scaled totals.  Work the program does faster reads fewer
scaled seconds; a slow host does not.

The clock uses SIGALRM, so it belongs to the main thread of a process
that starts no other timer.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
REFERENCE_CHUNK_S = 100e-6

_TABLE = np.arange(32)
_PERM = np.random.default_rng(0).integers(0, 32, 32)


def reference_chunk() -> int:
    """The fixed unit of work whose duration measures the machine."""
    x, seen = _TABLE, {}
    for i in range(60):
        x = x[_PERM]
        seen[x.tobytes()] = i
    total = 0
    for i in range(600):
        total += i * i % 7
    return total + len(seen)


class ReferenceClock:
    """Reads wall and scaled seconds of work done while it runs."""

    def __init__(self):
        self.scaled = 0.0  # scaled seconds up to self.last
        self.wall = 0.0  # wall seconds up to self.last, chunks left out
        self.last = None
        self.factor = 1.0  # REFERENCE_CHUNK_S / duration of the last chunk
        self.samples = []
        self.busy = False
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        if self.busy:  # a tick that lands inside a slow chunk is dropped
            return
        self.busy = True
        start = time.perf_counter()
        reference_chunk()
        end = time.perf_counter()
        self.factor = REFERENCE_CHUNK_S / (end - start)
        self.samples.append(end - start)
        self.wall += start - self.last
        self.scaled += (start - self.last) * self.factor
        self.last = time.perf_counter()
        self.busy = False

    def start(self) -> "ReferenceClock":
        reference_chunk()  # first call pays for its allocations, untimed
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def read(self) -> tuple[float, float]:
        """(wall, scaled) seconds of work since start; differences of
        two readings time what ran between them."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            since = time.perf_counter() - self.last
            return self.wall + since, self.scaled + since * self.factor
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
