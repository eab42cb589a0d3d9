"""Evaluation of positive continuous additive functionals along paths.

A PCAF spec pairs an occupation-type rule with the measure it represents:

* ``DensityPcaf(f)``       A_t = int_0^t f(X_s) ds, measure f dm;
* ``LocalTimePcaf(x, eps)``  the (2 eps)^-1 boxcar occupation of
  (x - eps, x + eps), the computable stand-in for the local time at x,
  measure ~ delta_x;
* ``CantorPcaf(n)``        the density rule with f = (3/2)^n on the level-n
  pre-Cantor set, measure = the level-n Cantor approximant.

Two quantities are read off a path.  ``evaluate`` forms the undiscounted
path A_t, which the sup distances read; it is trapezoidal on diffusion
grids and exact piecewise-constant on event grids, and freezes at the
lifetime.  ``discounted_final`` forms only the final discounted total
``int_0^inf e^{-alpha s} dA_s``, which the energy identity reads, with an
explicit horizon tail bound ``e^{-alpha T} rate / alpha``.  Event grids are
evaluated row-wise over an ``EventBlock`` of paths (``block_series``,
``block_discounted_final``); a single event path is the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from revuz_lab.measures import (
    CantorLevelMeasure,
    DensityMeasure,
    DiracMeasure,
    SmoothMeasure,
    cantor_indicator,
    density_value,
)
from revuz_lab.simulate import EventBlock, Path


@dataclass(frozen=True)
class DensityPcaf:
    """Occupation functional of a nonnegative density f."""

    f: Callable[[np.ndarray], np.ndarray]
    label: str = "density"
    rate_bound: Optional[float] = None
    measure: Optional[SmoothMeasure] = None

    def values(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(states), dtype=float)

    def __repr__(self) -> str:
        return f"DensityPcaf({self.label})"


@dataclass(frozen=True)
class LocalTimePcaf:
    """Boxcar local-time approximation at a point with bandwidth eps."""

    x: float
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("local-time bandwidth must be positive")

    @property
    def rate_bound(self) -> float:
        return 0.5 / self.eps

    @property
    def measure(self) -> SmoothMeasure:
        return DiracMeasure(self.x)

    def values(self, states: np.ndarray) -> np.ndarray:
        return (np.abs(states - self.x) < self.eps) / (2.0 * self.eps)

    def __repr__(self) -> str:
        return f"LocalTimePcaf(x={self.x}, eps={self.eps})"


@dataclass(frozen=True)
class CantorPcaf:
    """Density rule (3/2)^n 1_{C_n}, the level-n Cantor occupation."""

    n: int

    @property
    def rate_bound(self) -> float:
        return 1.5 ** self.n

    @property
    def measure(self) -> SmoothMeasure:
        return CantorLevelMeasure(self.n)

    def values(self, states: np.ndarray) -> np.ndarray:
        return cantor_indicator(states, self.n) * (1.5 ** self.n)

    def __repr__(self) -> str:
        return f"CantorPcaf({self.n})"


PcafSpec = DensityPcaf | LocalTimePcaf | CantorPcaf


def pcaf_of_measure(mu: SmoothMeasure, eps: Optional[float] = None) -> PcafSpec:
    """The PCAF whose Revuz measure is mu (eps needed for Dirac atoms)."""
    if isinstance(mu, DensityMeasure):
        f = mu.density if mu.self_clipping else (
            lambda x, mu=mu: density_value(mu, x))
        return DensityPcaf(f, label=mu.label, rate_bound=mu.sup_bound, measure=mu)
    if isinstance(mu, CantorLevelMeasure):
        return CantorPcaf(mu.n)
    if isinstance(mu, DiracMeasure):
        if eps is None:
            raise ValueError("a Dirac measure needs a local-time bandwidth eps")
        return LocalTimePcaf(mu.point, eps)
    raise ValueError(f"no constructive PCAF for {mu!r}")


def pcaf_from_config(spec: dict) -> PcafSpec:
    """Build a PCAF spec from its config literal.

    Accepted forms mirror the measure literals::

        {"type": "density", "expr": {...measure density literal...}}
        {"type": "local_time", "x": 0.0, "eps": 0.03}
        {"type": "cantor", "n": 3}
    """
    kind = spec.get("type")
    if kind == "density":
        from revuz_lab.measures import measure_from_config
        mu = measure_from_config({"type": "density", "expr": spec["expr"]})
        return pcaf_of_measure(mu)
    if kind == "local_time":
        return LocalTimePcaf(float(spec["x"]), float(spec["eps"]))
    if kind == "cantor":
        return CantorPcaf(int(spec["n"]))
    raise ValueError(f"unknown PCAF literal {spec!r}")


@dataclass
class PcafTrajectory:
    """Cumulative A on the path's grid: ``values[i] = A_{grid[i]}``.

    Frozen at the lifetime by construction (the grid ends there).
    """

    grid: np.ndarray
    values: np.ndarray


# e^{-alpha t} on the shared read-only uniform grids, keyed like
# simulate._grid_cache; a key is plain values, so a racing clear only costs
# a recomputation
_disc_cache: dict[tuple[float, int, float], np.ndarray] = {}


def _discount_row(path: Path, alpha: float) -> np.ndarray:
    t = path.grid
    if path.uniform_dt is None or t.flags.writeable:
        return np.exp(-alpha * t)
    key = (alpha, t.size, path.uniform_dt)
    e = _disc_cache.get(key)
    if e is None:
        e = np.exp(-alpha * t)
        if len(_disc_cache) > 8:
            _disc_cache.clear()
        _disc_cache[key] = e
    return e


def _row_values(spec: PcafSpec, states: np.ndarray) -> np.ndarray:
    """f at every state of a 2-D block of rows."""
    return spec.values(states.ravel()).reshape(states.shape)


def _discount_weights(grid: np.ndarray, alpha: float) -> np.ndarray:
    """int e^{-alpha s} ds over each event panel, row-wise."""
    e = np.exp(-alpha * grid)
    return (e[:, :-1] - e[:, 1:]) / alpha


def _tail_rate(spec: PcafSpec, fv: np.ndarray):
    """The spec's rate bound, else the largest value along each path."""
    if spec.rate_bound is not None:
        return spec.rate_bound
    return fv.max(axis=-1) if fv.size else 0.0


def block_series(spec: PcafSpec, block: EventBlock) -> np.ndarray:
    """Cumulative A at every grid point of every row of an event block.

    Exact piecewise-constant integration: each panel contributes its left
    value times its width.  Padded points repeat the row's final value
    (their zero-width panels add exactly 0).
    """
    fv = _row_values(spec, block.states)
    grid = block.grid
    out = np.zeros(grid.shape)
    np.cumsum(fv[:, :-1] * (grid[:, 1:] - grid[:, :-1]), axis=1, out=out[:, 1:])
    return out


def block_discounted_final(spec: PcafSpec, block: EventBlock, alpha: float):
    """Per-row (A~ at the path end, tail bound) on an event block."""
    if alpha <= 0:
        raise ValueError("alpha must be positive for discounted totals")
    fv = _row_values(spec, block.states)
    w = _discount_weights(block.grid, alpha)
    # a one-panel row is its single product (as np.dot forms it, from +0.0);
    # longer rows keep np.dot's own summation order
    totals = 0.0 + fv[:, 0] * w[:, 0]
    for r in np.flatnonzero(block.length > 2):
        n = block.length[r] - 1
        totals[r] = np.dot(fv[r, :n], w[r, :n])
    tail = math.exp(-alpha * block.horizon) * _tail_rate(spec, fv) / alpha
    return totals, np.where(block.killed, 0.0, tail)


def evaluate(spec: PcafSpec, path: Path) -> PcafTrajectory:
    """Accumulate A along one path.

    Diffusion grids use the trapezoid rule; event grids (flip, static) use
    exact piecewise-constant integration (the one-row case of
    ``block_series``).
    """
    t = path.grid
    if path.piecewise_constant:
        return PcafTrajectory(t, block_series(spec, EventBlock.of_path(path))[0])
    fv = spec.values(path.states)
    values = np.empty(t.size)
    values[0] = 0.0
    mid = fv[:-1] + fv[1:]
    if path.uniform_dt is not None:
        np.cumsum(mid, out=values[1:])
        values[1:] *= 0.5 * path.uniform_dt
    else:
        np.cumsum(mid * np.diff(t), out=values[1:])
        values[1:] *= 0.5
    return PcafTrajectory(t, values)


def discounted_final(spec: PcafSpec, path: Path, alpha: float) -> tuple[float, float]:
    """The discounted total A~ = int e^{-alpha s} dA_s at the path end, with
    an explicit horizon tail bound.

    Diffusion grids use the trapezoid rule on e^{-alpha s} f(X_s); event
    paths are the one-row case of ``block_discounted_final``.  Killed paths
    are exact (nothing accumulates after death); alive paths report
    e^{-alpha T} rate / alpha as the neglected-tail bound.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive for discounted totals")
    if path.piecewise_constant:
        total, tail = block_discounted_final(spec, EventBlock.of_path(path), alpha)
        return float(total[0]), float(tail[0])
    fv = spec.values(path.states)
    ev = _discount_row(path, alpha) * fv
    if path.uniform_dt is not None:
        total = (float(ev.sum()) - 0.5 * float(ev[0] + ev[-1])) * path.uniform_dt
    else:
        total = 0.5 * float(np.dot(ev[:-1] + ev[1:], np.diff(path.grid)))
    if path.killed:
        return total, 0.0
    return total, math.exp(-alpha * path.horizon) * float(_tail_rate(spec, fv)) / alpha


def sup_distance(a: PcafTrajectory, b: PcafTrajectory, T: float) -> float:
    """max over grid points up to T of |A - B|.

    Trajectories on different grids are resampled onto the union grid by
    piecewise-linear interpolation (constant beyond their last point,
    matching the freeze-at-lifetime convention).
    """
    ga, gb = a.grid, b.grid
    if ga is gb or (ga.size == gb.size and np.array_equal(ga, gb)):
        mask = ga <= T
        if not mask.any():
            return 0.0
        return float(np.abs(a.values[mask] - b.values[mask]).max())
    union = np.union1d(ga[ga <= T], gb[gb <= T])
    if union.size == 0:
        return 0.0
    va = np.interp(union, ga, a.values)
    vb = np.interp(union, gb, b.values)
    return float(np.abs(va - vb).max())
