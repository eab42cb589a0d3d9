"""Smooth measures of finite energy integrals, and integration against them.

The representation is a small tagged hierarchy: absolutely continuous
measures (a density on an interval), Dirac atoms, the level-n Cantor
approximants (uniform on the 2^n surviving intervals), the limiting Cantor
measure itself (handled through its exact self-similarity), and nonnegative
weighted sums of the above.

Signed quantities never appear here: bilinear forms downstream expand
(mu - nu) into four nonnegative terms, which keeps quadrature of the
singular pieces well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate as _sciint


class QuadratureError(RuntimeError):
    """Quadrature failed to meet its error target.

    Carries the value actually achieved and the estimated error so callers
    can decide whether to accept it anyway.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (achieved {value!r} +- {error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


# --------------------------------------------------------------------------
# measure types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMeasure:
    """Measure f(x) dx on an interval support.

    ``singular_points`` lists interior/endpoint locations where f blows up
    or kinks, used to split quadrature panels.  ``sup_bound`` is an optional
    known sup of f on the support (used for PCAF tail rates).
    ``self_clipping`` marks densities that already vanish outside their
    support, sparing consumers the clipping wrapper.
    """

    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    label: str = "density"
    singular_points: tuple[float, ...] = ()
    sup_bound: Optional[float] = None
    self_clipping: bool = False

    def __repr__(self) -> str:
        return f"DensityMeasure({self.label} on {self.support})"


@dataclass(frozen=True)
class DiracMeasure:
    point: float

    def __repr__(self) -> str:
        return f"DiracMeasure({self.point})"


@dataclass(frozen=True)
class CantorLevelMeasure:
    """Normalized Lebesgue measure on the level-n pre-Cantor set C_n.

    C_n consists of 2^n closed intervals of length 3^-n; the measure gives
    each interval mass 2^-n, i.e. density (3/2)^n there.  Total mass is 1.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Cantor level must be a positive integer")

    def __repr__(self) -> str:
        return f"CantorLevelMeasure({self.n})"


@dataclass(frozen=True)
class CantorLimitMeasure:
    """The Cantor measure, defined through its exact self-similarity.

    For any integrand h:  int h dmu = 1/2 int h(x/3) dmu + 1/2 int h(2/3 + x/3) dmu.
    """

    def __repr__(self) -> str:
        return "CantorLimitMeasure()"


@dataclass(frozen=True)
class WeightedSumMeasure:
    terms: tuple[tuple[float, "SmoothMeasure"], ...]

    def __post_init__(self):
        for c, _ in self.terms:
            if c < 0:
                raise ValueError("weighted-sum coefficients must be nonnegative")

    def __repr__(self) -> str:
        return f"WeightedSumMeasure({len(self.terms)} terms)"


SmoothMeasure = (
    DensityMeasure | DiracMeasure | CantorLevelMeasure | CantorLimitMeasure
    | WeightedSumMeasure
)


# --------------------------------------------------------------------------
# Cantor set machinery
# --------------------------------------------------------------------------

def cantor_intervals(n: int) -> list[tuple[float, float]]:
    """The 2^n closed intervals making up the level-n pre-Cantor set.

    Built by the affine recursion C_{k+1} = C_k/3 u (2/3 + C_k/3), returned
    in increasing order.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    intervals = [(0.0, 1.0)]
    for _ in range(n):
        left = [(a / 3.0, b / 3.0) for a, b in intervals]
        right = [(2.0 / 3.0 + a / 3.0, 2.0 / 3.0 + b / 3.0) for a, b in intervals]
        intervals = left + right
    return intervals


def cantor_membership(x: float, n: int) -> bool:
    """Whether x belongs to the level-n pre-Cantor set C_n.

    Kept-interval endpoints are members (the closed-interval convention:
    points with two base-3 expansions count as members when either
    expansion avoids the removed middle thirds).
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    if not (0.0 <= x <= 1.0):
        return False
    y = x
    for _ in range(n):
        if y <= 1.0 / 3.0:
            y = 3.0 * y
        elif y >= 2.0 / 3.0:
            y = 3.0 * y - 2.0
        else:
            return False
    return True


def cantor_indicator(x: np.ndarray, n: int) -> np.ndarray:
    """Vectorized indicator of C_n (same convention as cantor_membership)."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    y = np.where(inside, x, 0.5)  # 0.5 is outside every level, acts as reject
    alive = inside.copy()
    for _ in range(n):
        low = y <= 1.0 / 3.0
        high = y >= 2.0 / 3.0
        alive &= low | high
        y = np.where(low, 3.0 * y, 3.0 * y - 2.0)
    return alive


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

_QUAD_LIMIT = 800


def _quad(f, a, b, tol, points=None):
    if a >= b:
        return 0.0
    pts = None
    if points:
        pts = sorted(p for p in points if a < p < b)
        if not pts:
            pts = None
    val, err = _sciint.quad(
        f, a, b, epsabs=tol, epsrel=max(1e-12, tol), limit=_QUAD_LIMIT,
        points=pts,
    )
    if err > max(tol * 10.0, 1e-9) and err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError("quadrature did not converge", val, err)
    return val


def _window_clip(support, window):
    a = max(support[0], window[0])
    b = min(support[1], window[1])
    return a, b


def integrate(
    mu: SmoothMeasure,
    h: Callable,
    window: tuple[float, float],
    tol: float = 1e-9,
    lipschitz: Optional[float] = None,
    integrand_points: Sequence[float] = (),
) -> float:
    """Integral of h against mu over the window, to absolute target tol.

    Parameters
    ----------
    mu : SmoothMeasure
    h : callable
        Piecewise-continuous integrand; must accept numpy arrays for the
        density and Cantor-level branches.
    window : (float, float)
        Integration window; contributions outside are dropped.
    tol : float
        Absolute error target for the quadrature.
    lipschitz : float, optional
        A Lipschitz bound for h, used to pick the recursion depth for the
        limiting Cantor measure.  If omitted it is estimated by sampling h.
    integrand_points : sequence of float
        Known kink/singularity locations of h (quadrature panels split
        there); the diagonal kink of Green kernels comes in this way.
    """
    if isinstance(mu, DiracMeasure):
        a, b = window
        return float(h(mu.point)) if a <= mu.point <= b else 0.0

    if isinstance(mu, DensityMeasure):
        a, b = _window_clip(mu.support, window)
        f = mu.density
        pts = tuple(mu.singular_points) + tuple(integrand_points)
        return _quad(lambda x: float(h(x)) * float(f(x)), a, b, tol, points=pts)

    if isinstance(mu, CantorLevelMeasure):
        weight = 0.5 ** mu.n      # each interval has mass 2^-n
        length = 3.0 ** -mu.n     # ... spread over length 3^-n
        total = 0.0
        for a, b in cantor_intervals(mu.n):
            ca, cb = max(a, window[0]), min(b, window[1])
            if ca >= cb:
                continue
            total += (weight / length) * _quad(
                lambda x: float(h(x)), ca, cb, tol / (2.0 ** mu.n),
                points=integrand_points,
            )
        return total

    if isinstance(mu, CantorLimitMeasure):
        if not (window[0] <= 0.0 and window[1] >= 1.0):
            # restrict by recursing on the full measure of h * indicator;
            # the indicator is handled by interval clipping below.
            return _cantor_limit_integral(
                lambda x: h(x) if window[0] <= x <= window[1] else 0.0,
                tol, lipschitz,
            )
        return _cantor_limit_integral(h, tol, lipschitz)

    if isinstance(mu, WeightedSumMeasure):
        return sum(
            c * integrate(part, h, window, tol, lipschitz, integrand_points)
            for c, part in mu.terms
        )

    raise TypeError(f"unsupported measure {mu!r}")


def density_value(mu: DensityMeasure, x) -> np.ndarray:
    """Density evaluated with the support clipping applied."""
    x = np.asarray(x, dtype=float)
    a, b = mu.support
    inside = (x > a) & (x < b)
    safe = np.where(inside, x, 0.5 * (min(b, a + 1.0) + a) if np.isfinite(a) else 0.0)
    vals = np.asarray(mu.density(safe), dtype=float)
    return np.where(inside, vals, 0.0)


def _cantor_limit_integral(h, tol, lipschitz):
    """Self-similar recursion: descend until h's oscillation per cell < tol.

    At depth d the measure splits into 2^d cells of diameter 3^-d and mass
    2^-d; the total oscillation error is bounded by lipschitz * 3^-d.
    """
    if lipschitz is None:
        xs = np.linspace(0.0, 1.0, 257)
        vals = np.array([float(h(x)) for x in xs])
        slopes = np.abs(np.diff(vals)) / np.diff(xs)
        lipschitz = float(slopes.max()) if slopes.size else 1.0
        lipschitz = max(lipschitz * 1.5, 1e-12)
    depth = max(1, int(math.ceil(math.log(max(lipschitz, tol) / tol) / math.log(3.0))))
    depth = min(depth, 26)
    # cells at depth d have left endpoints sum(b_i 2/3^i); evaluate h at
    # cell midpoints with equal weights 2^-d.
    lefts = np.zeros(1)
    scale = 1.0
    for _ in range(depth):
        scale /= 3.0
        lefts = np.concatenate([lefts, lefts + 2.0 * scale])
    mids = lefts + scale / 2.0
    vals = h(mids) if _accepts_arrays(h, mids) else np.array([float(h(x)) for x in mids])
    return float(np.mean(vals))


def _accepts_arrays(h, sample):
    try:
        out = h(sample[:2])
        return np.shape(out) == np.shape(sample[:2])
    except Exception:
        return False


# --------------------------------------------------------------------------
# named density families and config literals
# --------------------------------------------------------------------------

def sin_shift(n: int, support: tuple[float, float] = (0.0, 1.0)) -> DensityMeasure:
    """Density 1 + sin(n x) on the support window."""
    return DensityMeasure(
        density=lambda x, n=n: 1.0 + np.sin(n * np.asarray(x, dtype=float)),
        support=support, label=f"sin_shift({n})", sup_bound=2.0,
    )


def perturbed(n: int) -> DensityMeasure:
    """Density (1 + x^-2)(1 + n^{-1/2} sin(n x)) on (0, 1)."""
    def f(x, n=n):
        x = np.asarray(x, dtype=float)
        return (1.0 + x ** -2.0) * (1.0 + np.sin(n * x) / math.sqrt(n))
    return DensityMeasure(density=f, support=(0.0, 1.0),
                          label=f"perturbed({n})", singular_points=(0.0,))


def perturbed_base() -> DensityMeasure:
    """Density 1 + x^-2 on (0, 1) (the n -> infinity member of the family)."""
    def f(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + x ** -2.0
    return DensityMeasure(density=f, support=(0.0, 1.0), label="perturbed_base",
                          singular_points=(0.0,))


def spike(n: int) -> DensityMeasure:
    """Density n^{3/2} on (0, 1/n), zero elsewhere."""
    height = float(n) ** 1.5
    def f(x, n=n, height=height):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0.0) & (x < 1.0 / n), height, 0.0)
    return DensityMeasure(density=f, support=(0.0, 1.0 / n),
                          label=f"spike({n})", sup_bound=height,
                          self_clipping=True)


def uniform_density(a: float, b: float) -> DensityMeasure:
    """Density 1 on [a, b] (so the measure is Lebesgue restricted there)."""
    def f(x, a=a, b=b):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), 1.0, 0.0)
    return DensityMeasure(density=f, support=(a, b), label=f"uniform[{a},{b}]",
                          sup_bound=1.0, self_clipping=True)


def zero_measure() -> DensityMeasure:
    def f(x):
        return np.zeros_like(np.asarray(x, dtype=float))
    return DensityMeasure(density=f, support=(0.0, 1.0), label="zero",
                          sup_bound=0.0, self_clipping=True)


_NAMED_DENSITIES = {
    "sin_shift": lambda p: sin_shift(int(p["n"]), tuple(p.get("support", (0.0, 1.0)))),
    "perturbed": lambda p: perturbed(int(p["n"])),
    "perturbed_base": lambda p: perturbed_base(),
    "spike": lambda p: spike(int(p["n"])),
    "uniform": lambda p: uniform_density(float(p["a"]), float(p["b"])),
    "zero": lambda p: zero_measure(),
}


def measure_from_config(spec: dict) -> SmoothMeasure:
    """Build a measure from its config literal.

    Accepted forms::

        {"type": "density", "expr": {"name": "sin_shift", "n": 4}}
        {"type": "dirac", "x": 0.5}
        {"type": "cantor", "n": 3}
        {"type": "cantor_limit"}
        {"type": "sum", "terms": [[coef, literal], ...]}
    """
    kind = spec.get("type")
    if kind == "density":
        expr = spec["expr"]
        name = expr["name"]
        if name not in _NAMED_DENSITIES:
            raise ValueError(
                f"unknown density family {name!r}; expected one of "
                f"{sorted(_NAMED_DENSITIES)}"
            )
        return _NAMED_DENSITIES[name](expr)
    if kind == "dirac":
        return DiracMeasure(float(spec["x"]))
    if kind == "cantor":
        return CantorLevelMeasure(int(spec["n"]))
    if kind == "cantor_limit":
        return CantorLimitMeasure()
    if kind == "sum":
        return WeightedSumMeasure(tuple(
            (float(c), measure_from_config(sub)) for c, sub in spec["terms"]
        ))
    raise ValueError(f"unknown measure literal {spec!r}")
