"""Green's functions, resolvents, potentials, and the energy metric.

This is the quadrature half of the laboratory: everything here is
deterministic.  The two diffusion models have explicit kernels,

    free_bm      g_a(x, y) = (2a)^{-1/2} exp(-sqrt(2a) |x - y|)
    absorbed_bm  g_a(x, y) = (2a)^{-1/2} (exp(-sqrt(2a)|x-y|) - exp(-sqrt(2a)(x+y)))

while the flip and static models act through closed-form resolvents
(multiplication by 1/(a + g) for the static model; even/odd splitting for
the flip process).  Potentials U_a mu, the bilinear energy
E_a(U_a mu, U_a nu) = int int g_a dmu dnu, the metric

    rho(mu, nu) = sqrt(E_1(U_1(mu - nu)))

and the boundary/killing pairings that appear in the energy identity are
all built from these.

The free-BM closed form is validated against the time-integral
representation of the kernel (to 1e-10) before first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sciint

from revuz_lab import measures
from revuz_lab.measures import (
    CantorLevelMeasure,
    CantorLimitMeasure,
    DensityMeasure,
    DiracMeasure,
    QuadratureError,
    SmoothMeasure,
    WeightedSumMeasure,
    cantor_intervals,
    density_value,
)
from revuz_lab.models import ProcessModel, phi

DEFAULT_TOL = 1e-9

_KERNEL_MODELS = ("free_bm", "absorbed_bm")


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

_free_green_validated = False


def validate_free_green(alpha: float = 1.0, max_dev: float = 1e-10) -> float:
    """Check the free-BM closed form against its time-integral definition.

    Integrates exp(-alpha t) (2 pi t)^{-1/2} exp(-d^2 / 2t) over t for a
    spread of separations d and compares with the closed form.  Returns the
    maximum deviation; raises if it exceeds ``max_dev``.
    """
    worst = 0.0
    for d in (0.0, 0.1, 0.5, 1.0, 2.5):
        val, _ = _sciint.quad(
            lambda t: math.exp(-alpha * t) / math.sqrt(2 * math.pi * t)
            * math.exp(-d * d / (2 * t)),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        closed = math.exp(-math.sqrt(2 * alpha) * d) / math.sqrt(2 * alpha)
        worst = max(worst, abs(val - closed))
    if worst > max_dev:
        raise QuadratureError(
            "free-BM Green closed form failed validation", worst, max_dev
        )
    return worst


def _ensure_validated():
    global _free_green_validated
    if not _free_green_validated:
        validate_free_green()
        _free_green_validated = True


def green(model: ProcessModel, alpha: float, x, y):
    """Green's function g_alpha(x, y); vectorized over x and y.

    Only the two diffusion models are kernel-based; the flip and static
    models go through ``resolvent_apply`` instead.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if model.name not in _KERNEL_MODELS:
        raise ValueError(
            f"{model.name} has no kernel representation; use resolvent_apply"
        )
    _ensure_validated()
    c = math.sqrt(2.0 * alpha)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.exp(-c * np.abs(x - y)) / c
    if model.name == "absorbed_bm":
        out = out - np.exp(-c * (x + y)) / c
    return out if out.ndim else float(out)


def resolvent_one(model: ProcessModel, alpha: float, x):
    """R_alpha 1, closed form for every model; vectorized."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x = np.asarray(x, dtype=float)
    if model.name in ("free_bm", "flip_jump"):
        out = np.full_like(x, 1.0 / alpha)
    elif model.name == "absorbed_bm":
        out = (1.0 - np.exp(-np.sqrt(2.0 * alpha) * x)) / alpha
    elif model.name == "killed_static":
        out = 1.0 / (alpha + x ** -2.0)
    else:
        raise ValueError(f"unknown model {model.name}")
    return out if out.ndim else float(out)


def resolvent_apply(
    model: ProcessModel,
    alpha: float,
    f: Callable,
    x: float,
    window: Optional[tuple[float, float]] = None,
    tol: float = DEFAULT_TOL,
) -> float:
    """Resolvent R_alpha f at a point.

    * ``killed_static``: multiplication, f(x) / (alpha + g(x)).
    * ``flip_jump``: the even part of f is invariant, the odd part decays at
      rate 2, so R_alpha f = f_even / alpha + f_odd / (alpha + 2).
    * kernel models: quadrature of g_alpha(x, .) f over a window (defaults
      to a window wide enough that the kernel tail is below 1e-16).
    """
    model.require_inside(x)
    if model.name == "killed_static":
        return float(f(x)) / (alpha + x ** -2.0)
    if model.name == "flip_jump":
        fx, fmx = float(f(x)), float(f(-x))
        return (fx + fmx) / (2.0 * alpha) + (fx - fmx) / (2.0 * (alpha + 2.0))
    c = math.sqrt(2.0 * alpha)
    if window is None:
        reach = 40.0 / c
        window = (x - reach, x + reach)
    lo = max(window[0], model.state_space[0])
    hi = min(window[1], model.state_space[1])
    probe = np.linspace(lo + (hi - lo) * 1e-9, hi - (hi - lo) * 1e-9, 51)
    fv = np.asarray([float(f(p)) for p in probe])
    if not np.all(np.isfinite(fv)):
        raise QuadratureError(
            f"integrand not finite on the window for R_alpha of {model.name}",
            float("nan"), float("inf"),
        )
    val, err = _sciint.quad(
        lambda yy: float(green(model, alpha, x, yy)) * float(f(yy)),
        lo, hi, points=[x] if lo < x < hi else None,
        epsabs=tol, epsrel=1e-10, limit=800,
    )
    if err > max(10 * tol, 1e-8):
        raise QuadratureError("resolvent quadrature did not converge", val, err)
    return val


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

def measure_support(mu: SmoothMeasure) -> tuple[float, float]:
    if isinstance(mu, DensityMeasure):
        return mu.support
    if isinstance(mu, DiracMeasure):
        return (mu.point, mu.point)
    if isinstance(mu, (CantorLevelMeasure, CantorLimitMeasure)):
        return (0.0, 1.0)
    if isinstance(mu, WeightedSumMeasure):
        spans = [measure_support(part) for _, part in mu.terms]
        return (min(s[0] for s in spans), max(s[1] for s in spans))
    raise TypeError(f"unsupported measure {mu!r}")


def measure_atoms(mu: SmoothMeasure) -> tuple[float, ...]:
    if isinstance(mu, DiracMeasure):
        return (mu.point,)
    if isinstance(mu, WeightedSumMeasure):
        out: tuple[float, ...] = ()
        for _, part in mu.terms:
            out += measure_atoms(part)
        return out
    return ()


@dataclass(frozen=True)
class Potential:
    """The alpha-potential U_alpha mu as a callable.

    For kernel models this is x -> int g_alpha(x, y) dmu(y); for the static
    and flip models it is the closed resolvent applied to the density.
    Values are nonnegative, and for the absorbed model vanish at the
    boundary.
    """

    model: ProcessModel
    alpha: float
    mu: SmoothMeasure
    tol: float = DEFAULT_TOL

    def __call__(self, x: float) -> float:
        m = self.model
        if m.name in _KERNEL_MODELS:
            lo, hi = measure_support(self.mu)
            return measures.integrate(
                self.mu, lambda y: green(m, self.alpha, x, y),
                (lo, hi), self.tol, lipschitz=1.0,
                integrand_points=(x,),
            )
        if m.name == "killed_static":
            return float(static_potential(self.mu, self.alpha, x, m.killing_density(x)))
        if m.name == "flip_jump":
            if not isinstance(self.mu, DensityMeasure):
                raise ValueError("flip_jump potentials require a density measure")
            fx = float(density_value(self.mu, x))
            fmx = float(density_value(self.mu, -x))
            return (fx + fmx) / (2.0 * self.alpha) + (fx - fmx) / (2.0 * (self.alpha + 2.0))
        raise ValueError(f"unknown model {m.name}")


def static_potential(mu: SmoothMeasure, alpha: float, x, rate):
    """U_alpha mu = f / (alpha + g) of the static model, given g = rate at x.

    Vectorized over x and rate.  Taking the killing rate from the caller
    lets a path reuse the rate its lifetime draw used, bit for bit.
    """
    if not isinstance(mu, DensityMeasure):
        raise ValueError("killed_static potentials require a density measure")
    return density_value(mu, x) / (alpha + rate)


def potential(model, alpha, mu, tol=DEFAULT_TOL) -> Potential:
    return Potential(model, alpha, mu, tol)


# --------------------------------------------------------------------------
# exact boxes for the exponential kernels (fast path for interval measures)
# --------------------------------------------------------------------------

def _exp_decay_integral(c, a, b):
    # int_a^b e^{-c y} dy, guarded for tiny intervals
    return (math.exp(-c * a) - math.exp(-c * b)) / c


def _exp_abs_box(c, i0, i1, j0, j1):
    """Exact int_I int_J exp(-c |x - y|) dy dx for intervals I=[i0,i1], J=[j0,j1]."""
    if i1 <= j0:  # disjoint, I left of J
        return (math.exp(c * i1) - math.exp(c * i0)) / c * _exp_decay_integral(c, j0, j1)
    if j1 <= i0:  # disjoint, J left of I
        return _exp_abs_box(c, j0, j1, i0, i1)
    if i0 == j0 and i1 == j1:  # identical
        L = i1 - i0
        return 2.0 * (L / c - (1.0 - math.exp(-c * L)) / (c * c))
    # overlapping: partition both intervals at the common breakpoints
    cuts = sorted({i0, i1, j0, j1})
    total = 0.0
    for a0, a1 in zip(cuts[:-1], cuts[1:]):
        if not (i0 <= a0 and a1 <= i1):
            continue
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            if not (j0 <= b0 and b1 <= j1):
                continue
            total += _exp_abs_box(c, a0, a1, b0, b1)
    return total


def _exp_sum_box(c, i0, i1, j0, j1):
    """Exact int_I int_J exp(-c (x + y)) dy dx."""
    return _exp_decay_integral(c, i0, i1) * _exp_decay_integral(c, j0, j1)


def _as_boxes(mu: SmoothMeasure):
    """Decompose mu into weighted intervals with constant density, if possible.

    Returns a list of (mass_density, a, b) triples or None when mu is not
    piecewise constant.
    """
    if isinstance(mu, CantorLevelMeasure):
        h = (3.0 / 2.0) ** mu.n
        return [(h, a, b) for a, b in cantor_intervals(mu.n)]
    if isinstance(mu, DensityMeasure):
        lbl = mu.label
        if lbl.startswith("uniform[") or lbl == "zero":
            a, b = mu.support
            height = 1.0 if lbl != "zero" else 0.0
            return [(height, a, b)] if height else []
        if lbl.startswith("spike("):
            a, b = mu.support
            return [(float(mu.sup_bound), a, b)]
        return None
    if isinstance(mu, WeightedSumMeasure):
        out = []
        for cw, part in mu.terms:
            sub = _as_boxes(part)
            if sub is None:
                return None
            out.extend((cw * h, a, b) for h, a, b in sub)
        return out
    return None


def _energy_boxes(model, alpha, boxes_mu, boxes_nu):
    c = math.sqrt(2.0 * alpha)
    total = 0.0
    absorbed = model.name == "absorbed_bm"
    for hm, a0, a1 in boxes_mu:
        if hm == 0.0:
            continue
        for hn, b0, b1 in boxes_nu:
            if hn == 0.0:
                continue
            term = _exp_abs_box(c, a0, a1, b0, b1)
            if absorbed:
                term -= _exp_sum_box(c, a0, a1, b0, b1)
            total += hm * hn * term
    return total / c


# --------------------------------------------------------------------------
# energy, metric, pairings
# --------------------------------------------------------------------------

def _require_density(model, mu, op):
    if not isinstance(mu, DensityMeasure):
        raise ValueError(
            f"{op} on {model.name} supports density measures only "
            f"(atoms and Cantor levels are not smooth for this model)"
        )


def energy(
    model: ProcessModel,
    alpha: float,
    mu: SmoothMeasure,
    nu: SmoothMeasure,
    tol: float = DEFAULT_TOL,
) -> float:
    """Bilinear energy E_alpha(U_alpha mu, U_alpha nu) = int int g_alpha dmu dnu.

    Kernel models use double quadrature (with exact closed forms whenever
    both measures decompose into constant-density intervals, which covers
    the Cantor levels and the indicator/spike densities).  The static and
    flip models use their closed resolvents.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if model.name in _KERNEL_MODELS:
        if isinstance(mu, DiracMeasure) and isinstance(nu, DiracMeasure):
            return float(green(model, alpha, mu.point, nu.point))
        boxes_mu, boxes_nu = _as_boxes(mu), _as_boxes(nu)
        if boxes_mu is not None and boxes_nu is not None:
            return _energy_boxes(model, alpha, boxes_mu, boxes_nu)
        u_nu = Potential(model, alpha, nu, tol=tol / 10.0)
        lo, hi = measure_support(mu)
        return measures.integrate(
            mu, lambda x: u_nu(float(x)), (lo, hi), tol,
            lipschitz=None, integrand_points=measure_atoms(nu),
        )
    if model.name == "killed_static":
        _require_density(model, mu, "energy")
        _require_density(model, nu, "energy")
        lo = max(mu.support[0], nu.support[0], 0.0)
        hi = min(mu.support[1], nu.support[1], 1.0)
        if lo >= hi:
            return 0.0
        return _quad_energy_static(
            lambda x: density_value(mu, x) * density_value(nu, x), alpha,
            lo, hi, tol, points=mu.singular_points + nu.singular_points)
    if model.name == "flip_jump":
        _require_density(model, mu, "energy")
        _require_density(model, nu, "energy")
        u_nu = Potential(model, alpha, nu)
        lo, hi = mu.support
        return measures.integrate(mu, lambda x: u_nu(float(x)), (lo, hi), tol)
    raise ValueError(f"unknown model {model.name}")


def _quad_energy_static(ff, alpha, lo, hi, tol, points=()):
    def integrand(x):
        return float(ff(x)) / (alpha + x ** -2.0)
    pts = sorted(p for p in points if lo < p < hi)
    val, err = _sciint.quad(integrand, lo, hi, points=pts or None,
                            epsabs=tol, epsrel=1e-10, limit=800)
    if err > max(10 * tol, 1e-8):
        raise QuadratureError("static energy quadrature did not converge", val, err)
    return val


def rho(
    model: ProcessModel,
    mu: SmoothMeasure,
    nu: SmoothMeasure,
    tol: float = DEFAULT_TOL,
    clamp_tol: float = 1e-9,
) -> float:
    """The energy metric rho(mu, nu) = sqrt(E_1(U_1 mu - U_1 nu)) at alpha = 1.

    Kernel models expand the square into the four nonnegative energy terms.
    The static and flip models act by multiplication / parity in the
    density, so the expansion is combined pointwise under one quadrature
    (this also covers densities whose individual energies diverge while the
    difference stays finite, as with the perturbed family).

    Small negative round-off inside the square root is clamped to zero when
    within ``clamp_tol``; anything worse raises, signalling inconsistent
    quadrature.
    """
    if model.name == "killed_static":
        _require_density(model, mu, "rho")
        _require_density(model, nu, "rho")
        lo = min(mu.support[0], nu.support[0])
        hi = max(mu.support[1], nu.support[1])
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        sq = _quad_energy_static(
            lambda x: (density_value(mu, x) - density_value(nu, x)) ** 2,
            1.0, lo, hi, tol,
            points=mu.singular_points + nu.singular_points)
        return math.sqrt(max(sq, 0.0))
    if model.name == "flip_jump":
        _require_density(model, mu, "rho")
        _require_density(model, nu, "rho")
        # R_1 acts diagonally on parity parts, so E_1(U_1(mu - nu)) expands
        # pointwise through the even/odd split of the difference density;
        # the integrand carries the factor d(x), so the union of supports
        # bounds the integration range
        lo = min(mu.support[0], nu.support[0])
        hi = max(mu.support[1], nu.support[1])

        def integrand(x):
            d = density_value(mu, x) - density_value(nu, x)
            dm = density_value(mu, -x) - density_value(nu, -x)
            ev, od = (d + dm) / 2.0, (d - dm) / 2.0
            return d * (ev / 1.0 + od / 3.0)

        val, err = _sciint.quad(integrand, lo, hi, epsabs=tol, epsrel=1e-10,
                                limit=800, points=[0.0] if lo < 0.0 < hi else None)
        return math.sqrt(max(val, 0.0))
    e_mm = energy(model, 1.0, mu, mu, tol)
    e_mn = energy(model, 1.0, mu, nu, tol)
    e_nn = energy(model, 1.0, nu, nu, tol)
    sq = e_mm - 2.0 * e_mn + e_nn
    if sq < 0.0:
        if abs(sq) <= max(clamp_tol, 3.0 * tol):
            return 0.0
        raise QuadratureError(
            "rho^2 came out negative beyond the clamp threshold", sq, clamp_tol
        )
    return math.sqrt(sq)


def nu0_pairing(
    model: ProcessModel, alpha: float, mu: SmoothMeasure, tol: float = DEFAULT_TOL
) -> float:
    """Boundary-escape energy 2 int phi_{2 alpha} U_alpha mu dmu.

    Zero for every model except the absorbed Brownian motion (conservative
    models have phi = 0; the static model dies by jumps, not by continuous
    approach, so its phi vanishes too).
    """
    if model.name != "absorbed_bm":
        return 0.0
    u = Potential(model, alpha, mu, tol=tol / 10.0)
    lo, hi = measure_support(mu)
    return 2.0 * measures.integrate(
        mu, lambda x: phi(model, 2.0 * alpha, float(x)) * u(float(x)),
        (lo, hi), tol, integrand_points=measure_atoms(mu),
    )


def kappa_pairing(
    model: ProcessModel, alpha: float, mu: SmoothMeasure, tol: float = DEFAULT_TOL
) -> float:
    """Killing-measure energy 2 int (1 - 2a R_{2a}1 - phi_{2a}) U_a mu dmu.

    The weight 1 - 2 alpha R_{2 alpha} 1 - phi_{2 alpha} is the resolvent
    of the killing measure; it vanishes identically for the three models
    without a killing density, so only ``killed_static`` contributes.
    """
    if model.killing_density is None:
        return 0.0
    _require_density(model, mu, "kappa_pairing")
    u = Potential(model, alpha, mu)

    def integrand(x):
        w = 1.0 - 2.0 * alpha * resolvent_one(model, 2.0 * alpha, float(x)) \
            - phi(model, 2.0 * alpha, float(x))
        return w * u(float(x))

    lo, hi = measure_support(mu)
    return 2.0 * measures.integrate(mu, integrand, (lo, hi), tol)


def m_pairing(
    model: ProcessModel, alpha: float, mu: SmoothMeasure, tol: float = DEFAULT_TOL
) -> float:
    """Reference-measure energy 2 alpha int R_{2 alpha} 1 U_alpha mu dmu.

    This is the quadrature twin of the Monte Carlo quantity
    alpha E_m[(discounted total)^2]; together with the kappa and nu0
    pairings (each at weight 1/2) it reconstitutes the full energy.
    """
    u = Potential(model, alpha, mu, tol=tol / 10.0)
    lo, hi = measure_support(mu)
    return 2.0 * alpha * measures.integrate(
        mu,
        lambda x: resolvent_one(model, 2.0 * alpha, float(x)) * u(float(x)),
        (lo, hi), tol, integrand_points=measure_atoms(mu),
    )
