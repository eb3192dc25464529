"""Host speed, from a fixed calibration loop timed between the measured operations.

On a shared host the CPU's speed drifts by a quarter or more over seconds
and minutes, and the drift moves every timing of a run by the same factor:
the time of a `maic compare` call over the time of a replicate, each taken
in the same 30-second window, stays within a few per cent while each alone
swings by 30%.  The benchmark therefore times this loop, which uses none of
`maic`, next to its operations and scales the gated timings to the speed the
loop has on the reference host (REFERENCE_UNIT_S).  A change to `maic` moves
the operations and not the loop, so it shows in full.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

REFERENCE_UNIT_S = 0.0014  # one unit on the reference host (see bench/README.md)
SHARE = 0.1                # loop time kept at this share of the measured time
BATCH = 10                 # units per worker and round when the loop runs in a pool


class HostSpeed:
    """Times calibration units and reports the host's speed over the reference.

    With `processes` > 1 the loop runs in that many worker processes at once,
    as a workload that keeps that many processes busy does; close() stops them.
    """

    def __init__(self, processes: int = 1):
        self._x = np.random.default_rng(0).standard_normal((2000, 5))
        self._eye = np.eye(5)
        self._pool = ProcessPoolExecutor(processes) if processes > 1 else None
        self._processes = processes
        self.units = 0
        self.seconds = 0.0
        for _ in range(3):   # warm-up, not counted
            self._unit()
        if self._pool is not None:
            list(self._pool.map(_worker_seconds, [3] * processes))

    def _unit(self) -> float:
        """Small linear algebra, elementwise work on 2000 rows and plain
        Python, as in the package's own mix."""
        x, total = self._x, 0.0
        for _ in range(20):
            g = x.T @ x
            total += float(np.linalg.solve(g + self._eye, g[0]).sum())
            total += float(np.exp(x[:, 0] * 1e-3).sum())
        acc, seen = 0, {}
        for i in range(4000):
            acc += i * i % 7
            seen[i & 63] = acc
        return total + acc

    def run_unit(self) -> None:
        """One unit here, or BATCH units in every worker at once (seconds
        is then the workers' mean time)."""
        if self._pool is None:
            t0 = time.perf_counter()
            self._unit()
            self.seconds += time.perf_counter() - t0
            self.units += 1
            return
        times = list(self._pool.map(_worker_seconds, [BATCH] * self._processes))
        self.seconds += sum(times) / len(times)
        self.units += BATCH

    def run_for(self, seconds: float) -> None:
        target = self.seconds + seconds
        while self.seconds < target:
            self.run_unit()

    def keep_up(self, measured_s: float) -> None:
        """Run units until the loop has taken SHARE of `measured_s`."""
        while self.seconds < SHARE * measured_s:
            self.run_unit()

    @property
    def factor(self) -> float:
        """This host's speed over the reference host's: above 1 when faster."""
        return REFERENCE_UNIT_S * self.units / self.seconds

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)


_WORKER: HostSpeed | None = None


def _worker_seconds(n: int) -> float:
    """Seconds for n units in a pool worker (its loop is made once)."""
    global _WORKER
    if _WORKER is None:
        _WORKER = HostSpeed()
    t0 = time.perf_counter()
    for _ in range(n):
        _WORKER._unit()
    return time.perf_counter() - t0
