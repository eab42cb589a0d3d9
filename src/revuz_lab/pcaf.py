"""Evaluation of positive continuous additive functionals along paths.

A PCAF spec pairs an occupation-type rule with the measure it represents:

* ``DensityPcaf(f)``       A_t = int_0^t f(X_s) ds, measure f dm;
* ``LocalTimePcaf(x, eps)``  the (2 eps)^-1 boxcar occupation of
  (x - eps, x + eps), the computable stand-in for the local time at x,
  measure ~ delta_x;
* ``CantorPcaf(n)``        the density rule with f = (3/2)^n on the level-n
  pre-Cantor set, measure = the level-n Cantor approximant.

Evaluation is trapezoidal on diffusion grids and exact piecewise-constant
on event grids; both freeze at the lifetime.  Discounted values
``int_0^t e^{-alpha s} dA_s`` accumulate by the same rule, and carry an
explicit horizon tail bound ``e^{-alpha T} rate / alpha``.  Event grids are
evaluated row-wise over an ``EventBlock`` of paths (``block_series``,
``block_discounted_final``); a single event path is the one-row case.
"""

from __future__ import annotations

import math
import warnings
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
    """Cumulative A and discounted values on the path's grid.

    ``values[i] = A_{grid[i]}``; ``discounted[i] = int_0^{grid[i]} e^{-alpha s} dA_s``.
    Both are frozen at the lifetime by construction (the grid ends there).
    ``tail_rate`` bounds dA/dt near the horizon for the tail estimate.
    """

    grid: np.ndarray
    values: np.ndarray
    discounted: np.ndarray
    alpha: float
    tail_rate: float
    killed: bool
    horizon: float


_disc_cache: list = []  # (alpha, grid object, exp table); shared grids only


def _discount_for(grid: np.ndarray, alpha: float) -> np.ndarray:
    for a, g, e in _disc_cache:
        if a == alpha and g is grid:
            return e
    e = np.exp(-alpha * grid)
    if not grid.flags.writeable:  # only the shared uniform grids persist
        if len(_disc_cache) > 8:
            _disc_cache.clear()
        _disc_cache.append((alpha, grid, e))
    return e


def _row_values(spec: PcafSpec, states: np.ndarray) -> np.ndarray:
    """f at every state of a 2-D block of rows."""
    return spec.values(states.ravel()).reshape(states.shape)


def _discount_weights(grid: np.ndarray, alpha: float) -> np.ndarray:
    """int e^{-alpha s} ds over each event panel, row-wise."""
    e = np.exp(-alpha * grid)
    return (e[:, :-1] - e[:, 1:]) / alpha


def _event_series(fv: np.ndarray, grid: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise cumulative A (alpha = 0) or discounted A on event rows.

    Exact piecewise-constant integration: each panel contributes its left
    value times its width (alpha = 0) or its exact exponential weight.
    Zero-width padding panels add exactly 0.
    """
    if alpha == 0.0:
        panels = grid[:, 1:] - grid[:, :-1]
    else:
        panels = _discount_weights(grid, alpha)
    out = np.zeros(grid.shape)
    np.cumsum(fv[:, :-1] * panels, axis=1, out=out[:, 1:])
    return out


def _tail_rate(spec: PcafSpec, fv: np.ndarray):
    """The spec's rate bound, else the largest value along each path."""
    if spec.rate_bound is not None:
        return spec.rate_bound
    return fv.max(axis=-1) if fv.size else 0.0


def block_series(spec: PcafSpec, block: EventBlock, alpha: float = 0.0):
    """(f values, cumulative series) on every row of an event block.

    The series is A (alpha = 0) or the discounted A~ at each grid point;
    padded points repeat the row's final value.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    fv = _row_values(spec, block.states)
    return fv, _event_series(fv, block.grid, alpha)


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


def evaluate(spec: PcafSpec, path: Path, alpha: float = 1.0) -> PcafTrajectory:
    """Accumulate the PCAF and its discounted version along one path.

    Diffusion grids use the trapezoid rule; event grids (flip, static) use
    exact piecewise-constant integration, including the exact exponential
    weight on each panel for the discounted part (the one-row case of
    ``block_series``).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    t = path.grid
    if path.piecewise_constant:
        block = EventBlock.of_path(path)
        fv = _row_values(spec, block.states)
        values = _event_series(fv, block.grid, 0.0)[0]
        disc = values.copy() if alpha == 0.0 else _event_series(fv, block.grid, alpha)[0]
        fv = fv[0]
    else:
        fv = spec.values(path.states)
        n = t.size
        values = np.empty(n)
        values[0] = 0.0
        dtv = path.uniform_dt if path.uniform_dt is not None else np.diff(t)
        mid = fv[:-1] + fv[1:]
        np.cumsum(mid * dtv if np.ndim(dtv) else mid, out=values[1:])
        if np.ndim(dtv) == 0:
            values[1:] *= 0.5 * dtv
        else:
            values[1:] *= 0.5
        if alpha == 0.0:
            disc = values.copy()
        else:
            disc = np.empty(n)
            disc[0] = 0.0
            ev = _discount_for(t, alpha) * fv
            emid = ev[:-1] + ev[1:]
            np.cumsum(emid * dtv if np.ndim(dtv) else emid, out=disc[1:])
            if np.ndim(dtv) == 0:
                disc[1:] *= 0.5 * dtv
            else:
                disc[1:] *= 0.5
    rate = float(_tail_rate(spec, fv))
    return PcafTrajectory(t, values, disc, alpha, rate, path.killed, path.horizon)


def discounted_final(spec: PcafSpec, path: Path, alpha: float) -> tuple[float, float]:
    """The scalar pair (A~ at the path end, tail bound), skipping cumsums.

    Same accumulation rules as ``evaluate`` followed by ``discounted_total``,
    but only the final value is formed; event paths are the one-row case of
    ``block_discounted_final``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive for discounted totals")
    if path.piecewise_constant:
        total, tail = block_discounted_final(spec, EventBlock.of_path(path), alpha)
        return float(total[0]), float(tail[0])
    t = path.grid
    fv = spec.values(path.states)
    ev = _discount_for(t, alpha) * fv
    if path.uniform_dt is not None:
        total = (float(ev.sum()) - 0.5 * float(ev[0] + ev[-1])) * path.uniform_dt
    else:
        dtv = np.diff(t)
        total = 0.5 * float(np.dot(ev[:-1] + ev[1:], dtv))
    if path.killed:
        return total, 0.0
    return total, math.exp(-alpha * path.horizon) * float(_tail_rate(spec, fv)) / alpha


def discounted_total(
    traj: PcafTrajectory, tol: Optional[float] = None
) -> tuple[float, float]:
    """Discounted total A-tilde at infinity, with an explicit tail bound.

    Killed paths are exact (nothing accumulates after death); alive paths
    report e^{-alpha T} rate / alpha as the neglected-tail bound.  When a
    tolerance is requested and the bound exceeds it, a warning flags that
    the caller should extend the horizon.
    """
    value = float(traj.discounted[-1])
    if traj.killed or traj.alpha == 0.0:
        return value, 0.0
    tail = math.exp(-traj.alpha * traj.horizon) * traj.tail_rate / traj.alpha
    if tol is not None and tail > tol:
        warnings.warn(
            f"discounted-total tail bound {tail:.3g} exceeds the requested "
            f"tolerance {tol:.3g}; extend the horizon",
            stacklevel=2,
        )
    return value, tail


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
