"""Monte Carlo expectations under the m-, kappa- and nu0-weightings.

``expect`` fans path indices out to workers, gives every path its own
counter-based stream, and reduces with a fixed-shape pairwise tree, so an
estimate is a pure function of (seed, config, n_paths) -- the worker count
cannot change a single bit of the result.

On the two event models (static, flip) the library functionals below are
evaluated a block of at most ``BLOCK`` paths at a time: each worker walks
its slice in blocks, every path still draws from its own stream, and the
functional runs once per block on numpy rows.  Each path's value is
bit-identical to the per-path route, which diffusion models and any other
callable keep.

The weightings:

* ``MWindow(W)``    starts uniform on W, reports |W| * mean (the reference
  measure is infinite; windowing carries a certified exterior bound
  through the kernel decay, handled by the identity checker).
* ``KappaWindow(W)``  starts from the normalized killing measure g dx on W,
  reports kappa(W) * mean.
* ``PointMass(x)``  plain Monte Carlo from a fixed start.
* ``Nu0Weighting``  the finite-difference entrance-law route: the weight
  (phi_2(x) - e^{-2t} P_t phi_2(x)) / t on a shrinking t-ladder with
  one-step simulated P_t, Richardson-extrapolated.  Used as a cross-check
  of the quadrature pairing, never as the primary route.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from revuz_lab import kernels, measures, pcaf
from revuz_lab.kernels import Potential, measure_support
from revuz_lab.measures import SmoothMeasure
from revuz_lab.models import ProcessModel, phi
from revuz_lab.pcaf import PcafSpec, evaluate, sup_distance
from revuz_lab.simulate import (
    EVENT_MODELS,
    EventBlock,
    Path,
    SimConfig,
    first_hitting_time,
    rng_for,
    simulate_block,
    simulate_path,
)

_STAGE = 1 << 32  # stream-index spacing between estimator stages
BLOCK = 256  # event paths per block; bounds the rows held per worker


# --------------------------------------------------------------------------
# deterministic reduction
# --------------------------------------------------------------------------

def pairwise_sum(values) -> float:
    """Fixed-shape pairwise tree sum; depends only on the value array."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return 0.0
    while a.size > 1:
        m = a.size // 2
        y = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        if a.size % 2:
            y = np.concatenate([y, a[-1:]])
        a = y
    return float(a[0])


@dataclass(frozen=True)
class McEstimate:
    """One stochastic result: mean, noise scale, and provenance."""

    mean: float
    std_error: float
    n: int
    seed: int
    tail_bound: float = 0.0

    def within(self, target: float, sigmas: float = 3.0, allowance: float = 0.0) -> bool:
        return abs(self.mean - target) <= sigmas * self.std_error + allowance + self.tail_bound


def _estimate_from_values(values, tails, seed, scale=1.0) -> McEstimate:
    n = len(values)
    mean0 = pairwise_sum(values) / n
    if n > 1:
        var = pairwise_sum((np.asarray(values) - mean0) ** 2) / (n - 1)
    else:
        var = 0.0
    return McEstimate(
        mean=scale * mean0,
        std_error=scale * math.sqrt(var / n),
        n=n,
        seed=seed,
        tail_bound=scale * pairwise_sum(tails) / n,
    )


def _mc_over_indices(n_paths, workers, per_block) -> tuple[np.ndarray, np.ndarray]:
    """Fill per-path (value, tail) arrays; layout independent of workers.

    ``per_block(lo, hi)`` returns the values and tails of paths lo..hi-1.
    Each worker walks one contiguous slice in blocks of at most ``BLOCK``
    paths.
    """
    vals = np.empty(n_paths)
    tails = np.empty(n_paths)

    def run_slice(lo, hi):
        for start in range(lo, hi, BLOCK):
            stop = min(start + BLOCK, hi)
            vals[start:stop], tails[start:stop] = per_block(start, stop)

    if workers <= 1:
        run_slice(0, n_paths)
    else:
        bounds = np.linspace(0, n_paths, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(run_slice, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for f in futures:
                f.result()
    return vals, tails


def _path_by_path(per_index):
    """The per_block of a per_index(i) -> (value, tail), one path at a time."""

    def per_block(lo, hi):
        out = np.empty((2, hi - lo))
        for i in range(lo, hi):
            out[:, i - lo] = per_index(i)
        return out

    return per_block


# --------------------------------------------------------------------------
# weightings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MWindow:
    window: tuple[float, float]


@dataclass(frozen=True)
class KappaWindow:
    window: tuple[float, float]


@dataclass(frozen=True)
class PointMass:
    x: float


@dataclass(frozen=True)
class Nu0Weighting:
    """Parameters of the finite-difference entrance-law estimator.

    The weight (phi_2 - e^{-2t} P_t phi_2) / t vanishes outside the
    boundary layer of width ~sqrt(t), so the node grid only needs to span
    a short window; ``x_max = 0.6`` already keeps the truncation error
    below 1e-9 for the ladder's largest t.
    """

    t0: float = 0.01
    node_count: int = 16
    x_max: float = 0.6
    inner_paths: int = 2000
    weight_draws: int = 400_000
    # boundary nodes see the largest weight but the rarest path payoffs,
    # so they get a fixed multiple of the path budget
    boundary_x: float = 0.25
    boundary_boost: int = 8


Weighting = MWindow | KappaWindow | PointMass | Nu0Weighting


def _start_sampler(model: ProcessModel, w: Weighting):
    """Returns (draw(rng) -> x0, multiplier)."""
    if isinstance(w, PointMass):
        model.require_inside(w.x)
        return (lambda rng: w.x), 1.0
    if isinstance(w, MWindow):
        lo, hi = w.window
        slo, shi = model.state_space
        lo, hi = max(lo, slo), min(hi, shi)
        if not lo < hi:
            raise ValueError(f"window {w.window!r} misses the state space of {model.name}")
        return (lambda rng: lo + (hi - lo) * rng.random()), hi - lo
    if isinstance(w, KappaWindow):
        if model.killing_density is None:
            raise ValueError(f"{model.name} has no killing measure")
        a, b = w.window
        slo, shi = model.state_space
        if not (slo < a < b < shi):
            raise ValueError(f"kappa window {w.window!r} must sit inside ({slo}, {shi})")
        mass = 1.0 / a - 1.0 / b  # integral of x^-2 over [a, b]

        def draw(rng, a=a, inv_span=mass):
            u = rng.random()
            return 1.0 / (1.0 / a - u * inv_span)

        return draw, mass
    raise TypeError(f"nu0 weighting is handled by nu0_expect, got {w!r}")


def kappa_mass(window: tuple[float, float]) -> float:
    """kappa([a, b]) = int_a^b x^-2 dx for the static model."""
    a, b = window
    return 1.0 / a - 1.0 / b


# --------------------------------------------------------------------------
# path functionals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """A path functional F(path) -> (value, tail bound).

    ``rows``, when set, evaluates F on every row of an event block at once
    and returns per-row value and tail arrays, bit-identical to calling F
    on each row's path.
    """

    per_path: Callable[[Path], tuple[float, float]]
    rows: Optional[Callable[[EventBlock], tuple]] = None

    def __call__(self, path: Path) -> tuple[float, float]:
        return self.per_path(path)


def _square_with_tail(v, tail):
    """(v^2, bound on how far v^2 can move when v moves by tail)."""
    return v * v, 2.0 * abs(v) * tail + tail * tail


def discounted_square(spec: PcafSpec, alpha: float = 1.0) -> Functional:
    """F(path) = (discounted total)^2 with a propagated tail bound."""

    def functional(path: Path):
        return _square_with_tail(*pcaf.discounted_final(spec, path, alpha))

    def rows(block: EventBlock):
        return _square_with_tail(*pcaf.block_discounted_final(spec, block, alpha))

    return Functional(functional, rows)


def _interp_rows(t: float, grid: np.ndarray, series: np.ndarray) -> np.ndarray:
    """np.interp(t, grid[r], series[r]) for every row, with np.interp's
    arithmetic; the padded points of a row all sit at its last time."""
    r = np.arange(grid.shape[0])
    j = np.clip((grid <= t).sum(axis=1) - 1, 0, grid.shape[1] - 2)
    g0, g1, v0, v1 = grid[r, j], grid[r, j + 1], series[r, j], series[r, j + 1]
    inside = (t >= grid[:, 0]) & (t < grid[:, -1])
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (v1 - v0) / (g1 - g0) * (t - g0) + v0
    return np.where(inside, between, np.where(t < grid[:, 0], series[:, 0], series[:, -1]))


def terminal_value(spec: PcafSpec, t: float, alpha: float = 0.0) -> Functional:
    """F(path) = A_t (undiscounted by default)."""

    def functional(path: Path):
        traj = evaluate(spec, path, alpha)
        series = traj.values if alpha == 0.0 else traj.discounted
        return float(np.interp(t, traj.grid, series)), 0.0

    def rows(block: EventBlock):
        _, series = pcaf.block_series(spec, block, alpha)
        return _interp_rows(t, block.grid, series), 0.0

    return Functional(functional, rows)


def sup_sq_diff(spec_a: PcafSpec, spec_b: PcafSpec, T: float, alpha: float = 1.0) -> Functional:
    """F(path) = sup_{t <= T} |A_t - B_t|^2 on the shared path (common random numbers)."""

    def functional(path: Path):
        ta = evaluate(spec_a, path, alpha)
        tb = evaluate(spec_b, path, alpha)
        d = sup_distance(ta, tb, T)
        return d * d, 0.0

    def rows(block: EventBlock):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        _, va = pcaf.block_series(spec_a, block)
        _, vb = pcaf.block_series(spec_b, block)
        d = np.where(block.grid <= T, np.abs(va - vb), 0.0).max(axis=1)
        return d * d, 0.0

    return Functional(functional, rows)


def discounted_sq_diff(spec_a: PcafSpec, spec_b: PcafSpec, alpha: float = 1.0) -> Functional:
    """F(path) = (A~_inf - B~_inf)^2 on the shared path."""

    def square(va, tla, vb, tlb):
        return _square_with_tail(va - vb, tla + tlb)

    def functional(path: Path):
        return square(*pcaf.discounted_final(spec_a, path, alpha),
                      *pcaf.discounted_final(spec_b, path, alpha))

    def rows(block: EventBlock):
        return square(*pcaf.block_discounted_final(spec_a, block, alpha),
                      *pcaf.block_discounted_final(spec_b, block, alpha))

    return Functional(functional, rows)


# --------------------------------------------------------------------------
# the generic expectation
# --------------------------------------------------------------------------

def expect(
    model: ProcessModel,
    weighting: Weighting,
    functional: Callable[[Path], tuple[float, float]],
    cfg: SimConfig,
    n_paths: int,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo E_w[F] with per-path streams and deterministic reduction.

    Path i draws its start (when the weighting requires one) and then its
    trajectory from the stream keyed by (cfg.seed, i).  The reported mean
    carries the weighting multiplier (window length, kappa mass, or 1).
    A ``Functional`` with ``rows`` on an event model runs block by block;
    every other functional runs path by path.  Both give the same value
    array.
    """
    if isinstance(weighting, Nu0Weighting):
        return nu0_expect(model, functional, cfg, weighting)
    draw, multiplier = _start_sampler(model, weighting)
    rows = getattr(functional, "rows", None)

    if rows is not None and model.name in EVENT_MODELS:
        def per_block(lo, hi):
            return rows(simulate_block(model, draw, cfg, lo, hi))
    else:
        def per_index(i):
            rng = rng_for(cfg.seed, i)
            x0 = draw(rng)
            path = simulate_path(model, x0, cfg, rng)
            return functional(path)

        per_block = _path_by_path(per_index)

    vals, tails = _mc_over_indices(n_paths, workers, per_block)
    if not np.all(np.isfinite(vals)):
        raise RuntimeError("non-finite Monte Carlo sample encountered")
    return _estimate_from_values(vals, tails, cfg.seed, scale=multiplier)


# --------------------------------------------------------------------------
# the nu0 finite-difference route
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Nu0Breakdown:
    """Ladder diagnostics for the finite-difference nu0 estimate."""

    ladder_t: tuple[float, ...]
    ladder_values: tuple[float, ...]
    extrapolated: float


def nu0_expect(
    model: ProcessModel,
    functional: Callable[[Path], tuple[float, float]],
    cfg: SimConfig,
    w: Nu0Weighting = Nu0Weighting(),
    return_breakdown: bool = False,
):
    """Finite-difference entrance-law estimate of int E_x[F] dnu0.

    v(t) = int E_x[F] (phi_2(x) - e^{-2t} P_t phi_2(x)) / t dx over a
    boundary-layer node grid (the weight vanishes identically in the bulk
    for the absorbed model), with E_x[F] by path Monte Carlo, P_t phi_2 by
    a one-step simulation with exact bridge survival weights, and
    first-order Richardson extrapolation on {t0, t0/2, t0/4}.
    """
    if model.name != "absorbed_bm":
        raise ValueError("the nu0 weighting requires the absorbed model")
    # Gauss-Legendre in u with x = u^2 (resolves the boundary layer)
    glx, glw = np.polynomial.legendre.leggauss(w.node_count)
    b = math.sqrt(w.x_max)
    u_nodes = 0.5 * b * (glx + 1.0)
    u_weights = 0.5 * b * glw
    nodes = u_nodes**2
    coefs = u_weights * 2.0 * u_nodes  # dx = 2 u du

    e_mean = np.empty(w.node_count)
    e_var = np.empty(w.node_count)
    n_k = np.empty(w.node_count, dtype=int)
    for k, x in enumerate(nodes):
        n_k[k] = w.inner_paths * (w.boundary_boost if x < w.boundary_x else 1)
        vals = np.empty(n_k[k])
        for j in range(n_k[k]):
            rng = rng_for(cfg.seed, (k + 1) * _STAGE + j)
            vals[j], _ = functional(simulate_path(model, float(x), cfg, rng))
        e_mean[k] = pairwise_sum(vals) / n_k[k]
        e_var[k] = pairwise_sum((vals - e_mean[k]) ** 2) / max(n_k[k] - 1, 1)

    ladder = [w.t0, w.t0 / 2.0, w.t0 / 4.0]
    weights = np.empty((3, w.node_count))
    wvar = np.empty((3, w.node_count))
    for ti, t in enumerate(ladder):
        for k, x in enumerate(nodes):
            rng = rng_for(cfg.seed, (k + 1) * _STAGE + (_STAGE >> 1) + ti)
            z = rng.standard_normal(w.weight_draws)
            y = x + math.sqrt(t) * z
            alive = y > 0.0
            survive = np.where(alive, -np.expm1(-2.0 * x * y / t), 0.0)
            samples = np.where(alive, survive * np.exp(-2.0 * y), 0.0)
            p_hat = pairwise_sum(samples) / w.weight_draws
            p_var = pairwise_sum((samples - p_hat) ** 2) / (w.weight_draws - 1)
            weights[ti, k] = (phi(model, 2.0, float(x))
                              - math.exp(-2.0 * t) * p_hat) / t
            wvar[ti, k] = (math.exp(-2.0 * t) / t) ** 2 * p_var / w.weight_draws
    v_t = [float(np.dot(coefs * e_mean, weights[ti])) for ti in range(3)]
    extrapolated = 2.0 * v_t[2] - v_t[1]
    # the E_x[F] noise is common to every ladder entry, so it enters the
    # extrapolation through the combined weight 2 w(t0/4) - w(t0/2); the
    # one-step weight noise is fresh per (node, t)
    comb = 2.0 * weights[2] - weights[1]
    var = float(np.sum((coefs * comb) ** 2 * e_var / n_k))
    var += float(np.sum((coefs * e_mean) ** 2 * (4.0 * wvar[2] + wvar[1])))
    est = McEstimate(
        mean=extrapolated, std_error=math.sqrt(var),
        n=int(n_k.sum()) + 3 * w.node_count * w.weight_draws,
        seed=cfg.seed, tail_bound=0.0,
    )
    if return_breakdown:
        return est, Nu0Breakdown(tuple(ladder), tuple(v_t), extrapolated)
    return est


# --------------------------------------------------------------------------
# the energy identity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Both sides of E_{alpha m + kappa/2 + nu0/2}[(A~_inf)^2] = E_alpha(U mu)."""

    m_part: McEstimate          # alpha * windowed E_m[(A~_inf)^2], Monte Carlo
    kappa_term: float           # full quadrature pairing (enters at weight 1/2)
    nu0_term: float             # full quadrature pairing (enters at weight 1/2)
    rhs: float                  # quadrature energy E_alpha(U_alpha mu)
    z_score: float
    window: tuple[float, float]
    exterior_bound: float

    @property
    def lhs_total(self) -> float:
        return self.m_part.mean + 0.5 * self.kappa_term + 0.5 * self.nu0_term


def exterior_bound(
    model: ProcessModel, mu: SmoothMeasure, alpha: float, rhs: float,
    window: tuple[float, float],
) -> float:
    """Certified bound on the m-contribution neglected outside the window.

    Outside the support, E_x[(A~_inf)^2] <= 2 g_{2a}(x, edge) E_a(U_a mu),
    so an exterior side at distance L contributes at most
    rhs * e^{-2 sqrt(a) L} / 2; sides clipped by the state space boundary
    contribute nothing.
    """
    lo, hi = measure_support(mu)
    slo, shi = model.state_space
    scale = max(abs(rhs), 1e-12)
    c = 2.0 * math.sqrt(alpha)
    total = 0.0
    if window[0] > slo:
        total += 0.5 * scale * math.exp(-c * max(lo - window[0], 0.0))
    if window[1] < shi:
        total += 0.5 * scale * math.exp(-c * max(window[1] - hi, 0.0))
    return total


def identity_window(
    model: ProcessModel, mu: SmoothMeasure, alpha: float, rhs: float,
    exterior_tol: float = 1e-6,
) -> tuple[tuple[float, float], float]:
    """Window whose neglected exterior m-contribution is below tolerance."""
    lo, hi = measure_support(mu)
    scale = max(abs(rhs), 1e-12)
    L = math.log(scale / exterior_tol + 1.0) / (2.0 * math.sqrt(alpha))
    L = max(L, 1.0)
    slo, shi = model.state_space
    window = (max(lo - L, slo), min(hi + L, shi))
    return window, exterior_bound(model, mu, alpha, rhs, window)


def energy_identity_check(
    model: ProcessModel,
    alpha: float,
    mu: SmoothMeasure,
    cfg: SimConfig,
    n_paths: int,
    window: Optional[tuple[float, float]] = None,
    workers: int = 1,
    tol: float = 1e-9,
) -> IdentityReport:
    """Close the energy budget: MC m-part + quadrature kappa/2 + nu0/2 vs rhs."""
    rhs = kernels.energy(model, alpha, mu, mu, tol)
    kap = kernels.kappa_pairing(model, alpha, mu, tol)
    nu0 = kernels.nu0_pairing(model, alpha, mu, tol)
    if window is None:
        window, ext = identity_window(model, mu, alpha, rhs)
    else:
        wlo, whi = window
        slo, shi = model.state_space
        window = (max(wlo, slo), min(whi, shi))
        ext = exterior_bound(model, mu, alpha, rhs, window)
    spec = pcaf.pcaf_of_measure(mu)
    raw = expect(model, MWindow(window), discounted_square(spec, alpha), cfg,
                 n_paths, workers)
    m_part = McEstimate(
        mean=alpha * raw.mean, std_error=alpha * raw.std_error, n=raw.n,
        seed=raw.seed, tail_bound=alpha * raw.tail_bound,
    )
    lhs = m_part.mean + 0.5 * kap + 0.5 * nu0
    z = (lhs - rhs) / m_part.std_error if m_part.std_error > 0 else math.inf
    return IdentityReport(m_part, kap, nu0, rhs, z, window, ext)


# --------------------------------------------------------------------------
# distances, martingale residual, hitting transform, vague probe
# --------------------------------------------------------------------------

def sup_l2_distance(
    model: ProcessModel,
    spec_a: PcafSpec,
    spec_b: PcafSpec,
    weighting: Weighting,
    T: float,
    cfg: SimConfig,
    n_paths: int,
    alpha: float = 1.0,
    workers: int = 1,
) -> McEstimate:
    """E_w[sup_{t<=T} |A_t - B_t|^2] with both PCAFs on the same paths."""
    run_cfg = cfg if cfg.horizon == T else replace(cfg, horizon=T)
    return expect(model, weighting, sup_sq_diff(spec_a, spec_b, T, alpha),
                  run_cfg, n_paths, workers)


def discounted_l2_distance(
    model: ProcessModel,
    spec_a: PcafSpec,
    spec_b: PcafSpec,
    weighting: Weighting,
    cfg: SimConfig,
    n_paths: int,
    alpha: float = 1.0,
    workers: int = 1,
) -> McEstimate:
    """E_w[(A~_inf - B~_inf)^2] with both PCAFs on the same paths."""
    return expect(model, weighting, discounted_sq_diff(spec_a, spec_b, alpha),
                  cfg, n_paths, workers)


class _PotentialTable:
    """Potential sampled on a fine grid for vectorized path evaluation."""

    def __init__(self, model, alpha, mu, lo, hi, points=4097, tol=1e-10):
        slo, shi = model.state_space
        margin = (hi - lo) * 1e-9
        lo = max(lo, slo + margin if math.isfinite(slo) else lo)
        hi = min(hi, shi - margin if math.isfinite(shi) else hi)
        self.xs = np.linspace(lo, hi, points)
        u = Potential(model, alpha, mu, tol=tol)
        self.us = np.array([u(float(x)) for x in self.xs])
        # boundary behaviour outside the table: decay to 0 on the left for
        # the absorbed model, kernel decay on both free ends
        self.left = 0.0 if model.name == "absorbed_bm" else float(self.us[0])
        self.right = float(self.us[-1])

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return np.interp(states, self.xs, self.us, left=self.left, right=self.right)


def fukushima_residual(
    model: ProcessModel,
    mu: SmoothMeasure,
    x: float,
    T: float,
    cfg: SimConfig,
    n_paths: int,
    alpha: float = 1.0,
    workers: int = 1,
) -> McEstimate:
    """Mean of the martingale part M_T = U(X_T) - U(X_0) - a int U(X_s) ds + A_T.

    The potential part of the decomposition has zero expectation, so the
    estimate should vanish within noise plus an O(dt) discretization
    allowance.  The potential is evaluated through a fine lookup table
    (interpolation error is quadratic in the table step and negligible
    against the allowance).
    """
    run_cfg = cfg if cfg.horizon == T else replace(cfg, horizon=T)
    spec = pcaf.pcaf_of_measure(mu)
    if model.name == "killed_static":
        table = None
        u_fn = Potential(model, alpha, mu)
    else:
        lo, hi = measure_support(mu)
        span = 6.0 * math.sqrt(T) + 1.0
        table = _PotentialTable(model, alpha, mu, min(lo, x) - span, max(hi, x) + span)
        u_fn = None

    def functional(path: Path):
        uv = table(path.states) if table is not None else \
            np.array([u_fn(float(s)) for s in path.states])
        traj = evaluate(spec, path, alpha=0.0)
        if path.piecewise_constant:
            integral = float(np.sum(uv[:-1] * np.diff(path.grid)))
        else:
            integral = float(np.trapezoid(uv, path.grid))
        terminal = 0.0 if path.killed else float(uv[-1])
        m = terminal - float(uv[0]) - alpha * integral + float(traj.values[-1])
        return m, 0.0

    def static_rows(block: EventBlock):
        # one panel [0, end] at the start x0; U from the lifetime's own rate
        u = kernels.static_potential(mu, alpha, block.states[:, 0], block.rate)
        _, series = pcaf.block_series(spec, block)
        terminal = np.where(block.killed, 0.0, u)
        return terminal - u - alpha * (u * block.grid[:, 1]) + series[:, -1], 0.0

    rows = static_rows if model.name == "killed_static" else None
    return expect(model, PointMass(x), Functional(functional, rows), run_cfg,
                  n_paths, workers)


def hitting_laplace_check(
    model: ProcessModel,
    x: float,
    y: float,
    cfg: SimConfig,
    n_paths: int,
    workers: int = 1,
) -> McEstimate:
    """MC of e^{-sigma_y} from x on free BM, bridge-corrected crossing.

    Paths that never hit inside the horizon contribute value 0 and a
    tail bound e^{-horizon} each.
    """
    if model.name != "free_bm":
        raise ValueError("the hitting transform check runs on the free model")
    cap = math.exp(-cfg.horizon)

    def per_index(i):
        rng = rng_for(cfg.seed, i)
        sigma = first_hitting_time(x, y, cfg, rng)
        if math.isinf(sigma):
            return 0.0, cap
        return math.exp(-sigma), 0.0

    vals, tails = _mc_over_indices(n_paths, workers, _path_by_path(per_index))
    return _estimate_from_values(vals, tails, cfg.seed)


@dataclass(frozen=True)
class VagueTable:
    """Quadrature pairings of a measure sequence against test functions."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: np.ndarray          # rows: measures; cols: test functions
    targets: tuple[float, ...]  # limiting pairing per column (may be nan)

    def column_gaps(self, j: int) -> np.ndarray:
        return np.abs(self.matrix[:, j] - self.targets[j])


def vague_probe(
    mu_seq: Sequence[SmoothMeasure],
    test_fns: Sequence[tuple[str, Callable]],
    window: tuple[float, float],
    targets: Optional[Sequence[float]] = None,
    tol: float = 1e-9,
) -> VagueTable:
    """Matrix of int f dmu_n for continuous compactly supported test f."""
    rows = []
    for mu in mu_seq:
        rows.append([
            measures.integrate(mu, f, window, tol) for _, f in test_fns
        ])
    mat = np.array(rows)
    if targets is None:
        targets = tuple(float("nan") for _ in test_fns)
    return VagueTable(
        row_labels=tuple(repr(m) for m in mu_seq),
        col_labels=tuple(name for name, _ in test_fns),
        matrix=mat,
        targets=tuple(targets),
    )
