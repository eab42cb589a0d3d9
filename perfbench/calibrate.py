"""A fixed calibration kernel, interleaved with the measured work.

The container's speed drifts in phases of several seconds to minutes (see
README.md), by up to 60% of its fast-state time, and a whole run can fall
into a slow phase.  The kernel below does the kinds of work revuz_lab's
paths do (Philox stream set-up, short draws and small array operations
under a Python loop, long draws with ``cumsum``), on as many threads as
the workload uses, with numpy alone.  It runs at every checkpoint of a
round; each stretch of work between two checkpoints is rescaled by
``NOMINAL_S / (mean of the two kernel times)``, so timings read as seconds
at the reference speed, and the raw seconds are printed beside them.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# kernel time on the reference machine (2-vCPU container, Python
# 3.11.7, numpy 2.4.6) in its fast phases (about its 10th percentile),
# per worker count
NOMINAL_S = {1: 0.015, 2: 0.020}

_perf = time.perf_counter


def _short_paths(lo: int, hi: int) -> float:
    acc = 0.0
    for i in range(lo, hi):
        rng = np.random.Generator(np.random.Philox(key=i))
        z = rng.standard_normal(64)
        acc += float(np.cumsum(z)[-1]) + float(np.exp(-z[:8]).sum())
    return acc


def _long_paths(count: int) -> float:
    acc = 0.0
    for k in range(count):
        rng = np.random.Generator(np.random.Philox(key=1000 + k))
        acc += float(np.cumsum(rng.standard_normal(20_000))[-1])
    return acc


def speed_factor(samples: int = 5) -> float:
    """NOMINAL_S / (median single-thread kernel time) right now: rescales a
    stretch of single-threaded work that has just ended."""
    cal = Calibration(1)
    return cal.nominal / statistics.median(cal.kernel() for _ in range(samples))


class Calibration:
    """Runs the kernel and keeps the checkpoints of the current round."""

    def __init__(self, workers: int):
        self.workers = 2 if workers > 1 else 1
        self.nominal = NOMINAL_S[self.workers]
        self._pool = ThreadPoolExecutor(max_workers=2) if self.workers > 1 else None
        self.points: list[tuple[float, float]] = []   # (work resumes at, kernel seconds)
        self._ends: list[float] = []                   # work stopped at

    def kernel(self) -> float:
        t0 = _perf()
        if self._pool is None:
            _short_paths(0, 300)
        else:
            futures = [self._pool.submit(_short_paths, 0, 150),
                       self._pool.submit(_short_paths, 150, 300)]
            for f in futures:
                f.result()
        _long_paths(20)
        return _perf() - t0

    def checkpoint(self) -> int:
        """Stop the clock, run the kernel, restart; returns the index of
        the stretch of work that starts now."""
        self._ends.append(_perf())
        k = self.kernel()
        self.points.append((_perf(), k))
        return len(self.points) - 1

    def start_round(self) -> None:
        self.points, self._ends = [], []
        self.checkpoint()

    def stretches(self) -> list[tuple[float, float]]:
        """(raw seconds, factor to the reference speed) of each stretch of
        work between consecutive checkpoints of the round."""
        out = []
        for (start, k0), end, (_, k1) in zip(self.points, self._ends[1:], self.points[1:]):
            out.append((end - start, self.nominal / (0.5 * (k0 + k1))))
        return out

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

