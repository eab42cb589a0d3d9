"""Independent reference values for the benchmark's output checks.

Nothing here imports ``revuz_lab``: every value is a closed form or a
composite Gauss-Legendre rule over a closed-form integrand, derived in
``perfbench/README.md``.  ``test_references.py`` checks each one against
its defining integral with ``scipy.integrate``.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate
from scipy.special import erf, ndtr, sici

SQ2 = math.sqrt(2.0)

# quoted figures (the acceptance criteria pin the first three to 1e-8)
FREE_BOX_ENERGY = 0.4648027104        # E_1 of uniform[0,1] under free BM
ABSORBED_BOX_ENERGY = 0.4528313771    # E_1 of uniform[1,2] under absorbed BM
NU0_PAIRING_UNIFORM_1_2 = 0.0520691817
HITTING_LAPLACE = math.exp(-SQ2)      # E_0[exp(-sigma_1)], free BM
LOCAL_TIME_TRANSFORM = 1.0 / SQ2      # E_0[int e^{-t} dL^0_t] = g_1(0, 0)


def gauss_legendre(f, a: float, b: float, panels: int = 400, order: int = 16) -> float:
    """Composite Gauss-Legendre rule of ``f`` (vectorized) on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return float(np.dot(wts, f(pts)))


# --------------------------------------------------------------------------
# flip process and the static killed process
# --------------------------------------------------------------------------

def flip_mean(n: int, x0: float = 0.5, t: float = 1.0) -> float:
    """E_x0[A_t] for f = 1 + sin(n x) on the flip process."""
    return t + math.sin(n * x0) * math.sinh(t) * math.exp(-t)


def static_m_part() -> float:
    """int_0^1 2x^4/((x^2+1)(2x^2+1)) dx = int (1 - 2/(x^2+1) + 1/(2x^2+1))."""
    return 1.0 - math.pi / 2.0 + math.atan(SQ2) / SQ2


def static_kappa_part(a: float = 0.2, b: float = 0.9) -> float:
    """int_a^b 2x^2/((x^2+1)(2x^2+1)) dx = int (2/(x^2+1) - 2/(2x^2+1))."""
    def prim(x):
        return 2.0 * math.atan(x) - SQ2 * math.atan(SQ2 * x)
    return prim(b) - prim(a)


def static_energy_uniform() -> float:
    """E_1 of uniform[0,1] on the static model: int_0^1 x^2/(x^2+1) dx."""
    return 1.0 - math.pi / 4.0


def static_kappa_pairing_uniform() -> float:
    """2 int_0^1 x^2/((x^2+1)(2x^2+1)) dx, the killing pairing of uniform[0,1]."""
    return 2.0 * (math.pi / 4.0 - math.atan(SQ2) / SQ2)


def _capped_factor(x, T: float):
    """1 - e^{-T/x^2}(1 + T/x^2), so that E_x[(T ^ zeta)^2] = 2x^4 times it."""
    lam_t = T / (x * x)
    return -np.expm1(-lam_t) - lam_t * np.exp(-lam_t)


def capped_lifetime_sq(x, T: float):
    """E_x[(T ^ zeta)^2] for zeta ~ Exp(x^-2): 2x^4 (1 - e^{-T/x^2}(1 + T/x^2))."""
    x = np.asarray(x, dtype=float)
    return 2.0 * x**4 * _capped_factor(x, T)


def _ex5_integrand(x, n, T):
    # (f_n - f)^2 E_x[(T ^ zeta)^2] with f_n - f = (1 + x^-2) sin(nx)/sqrt(n),
    # written as 2 (x^2 + 1)^2 sin^2(nx)/n times the capped factor
    return 2.0 * (x * x + 1.0) ** 2 * np.sin(n * x) ** 2 / n * _capped_factor(x, T)


@functools.cache
def ex5_m_distance(n: int, T: float = 1.0) -> float:
    """E_m[sup_{t<=T} |A^n_t - A_t|^2] on (0, 1) for the perturbed family."""
    return gauss_legendre(lambda x: _ex5_integrand(x, n, T), 0.0, 1.0)


@functools.cache
def ex5_kappa_distance(n: int, T: float = 1.0, window=(0.0, 1.0)) -> float:
    """The same distance weighted by kappa(dx) = x^-2 dx on the window."""
    return gauss_legendre(lambda x: _ex5_integrand(x, n, T) / (x * x), *window)


def _capped_factor4(x, T: float):
    """1 - e^{-T/x^2} sum_{k<4} (T/x^2)^k / k!, so E_x[(T ^ zeta)^4] = 24 x^8 times it."""
    lam_t = T / (x * x)
    head = lam_t + lam_t**2 / 2.0 + lam_t**3 / 6.0
    return -np.expm1(-lam_t) - np.exp(-lam_t) * head


def capped_lifetime_4th(x, T: float):
    """E_x[(T ^ zeta)^4] for zeta ~ Exp(x^-2)."""
    x = np.asarray(x, dtype=float)
    return 24.0 * x**8 * _capped_factor4(x, T)


@functools.cache
def ex5_standard_error(n: int, n_paths: int, T: float = 1.0, window=None) -> float:
    """Standard error of the ex5 estimate from the exact per-path variance.

    The per-path value is V = (f_n - f)^2(x) (T ^ zeta)^2 with
    E_x[V^2] = 24 (x^2+1)^4 sin^4(nx)/n^2 times the fourth-moment factor.
    ``window=None`` is the m-window (0, 1) with x uniform; a kappa window
    draws x from x^-2 dx / kappa(W) and reports kappa(W) times the mean.
    """
    def second(x):
        return 24.0 * (x * x + 1.0) ** 4 * np.sin(n * x) ** 4 / n**2 * _capped_factor4(x, T)

    if window is None:
        var = gauss_legendre(second, 0.0, 1.0) - ex5_m_distance(n, T) ** 2
    else:
        a, b = window
        mass = 1.0 / a - 1.0 / b
        var = (mass * gauss_legendre(lambda x: second(x) / (x * x), a, b)
               - ex5_kappa_distance(n, T, window) ** 2)
    return math.sqrt(var / n_paths)


@functools.cache
def static_rho_sq(n: int) -> float:
    """rho^2(perturbed(n), perturbed_base) = int_0^1 (1 + x^-2) sin^2(nx)/n dx.

    The x^-2 part is int_0^n sin^2(y)/y^2 dy = Si(2n) - sin^2(n)/n, which
    tends to pi/2.
    """
    regular = 0.5 / n - math.sin(2.0 * n) / (4.0 * n * n)
    si, _ = sici(2.0 * n)
    return regular + float(si) - math.sin(n) ** 2 / n


# --------------------------------------------------------------------------
# exponential kernels: boxes, spikes, the nu0 pairing
# --------------------------------------------------------------------------

def _self_box(c: float, length: float) -> float:
    """int_I int_I exp(-c|x-y|) for |I| = length."""
    return 2.0 * (length / c - (1.0 - math.exp(-c * length)) / (c * c))


def free_box_energy(a: float, b: float, height: float = 1.0, alpha: float = 1.0) -> float:
    """E_alpha of height * 1_[a,b] under free BM."""
    c = math.sqrt(2.0 * alpha)
    return height * height * _self_box(c, b - a) / c


def absorbed_box_energy(a: float, b: float, height: float = 1.0, alpha: float = 1.0) -> float:
    """E_alpha of height * 1_[a,b] under BM absorbed at 0 (image kernel)."""
    c = math.sqrt(2.0 * alpha)
    image = ((math.exp(-c * a) - math.exp(-c * b)) / c) ** 2
    return height * height * (_self_box(c, b - a) - image) / c


def absorbed_box_potential(x, a: float, b: float, height: float = 1.0):
    """U_1 of height * 1_[a,b] at x inside [a, b] (absorbed model, alpha = 1)."""
    c = SQ2
    x = np.asarray(x, dtype=float)
    direct = (2.0 - np.exp(-c * (x - a)) - np.exp(-c * (b - x))) / c
    image = np.exp(-c * x) * (math.exp(-c * a) - math.exp(-c * b)) / c
    return height * (direct - image) / c


@functools.cache
def absorbed_nu0_pairing(a: float, b: float, height: float = 1.0) -> float:
    """2 int phi_2 U_1 dmu = 2 height int_a^b e^{-2x} U_1(x) dx."""
    return 2.0 * height * gauss_legendre(
        lambda x: np.exp(-2.0 * x) * absorbed_box_potential(x, a, b, height),
        a, b, panels=8, order=20)


def spike(n: int) -> tuple[float, float, float]:
    """(a, b, height) of the boundary spike n^{3/2} 1_(0, 1/n)."""
    return 0.0, 1.0 / n, float(n) ** 1.5


def absorbed_stay_prob(r: float, y: float, a: float) -> float:
    """K_r(y) = P_y(X_r in (0, a), r < zeta) for BM absorbed at 0."""
    sr = math.sqrt(r)
    return float(2.0 * ndtr(y / sr) - ndtr((y - a) / sr) - ndtr((y + a) / sr))


def survival_integral(y: float, tau: float) -> float:
    """S(y, tau) = int_0^tau P_y(zeta > s) ds = int_0^tau erf(y / sqrt(2s)) ds."""
    c, st = y / SQ2, math.sqrt(tau)
    return float(tau * erf(c / st) + 2.0 * c * st / math.sqrt(math.pi) * math.exp(-c * c / tau)
                 - 2.0 * c * c * (1.0 - erf(c / st)))


@functools.cache
def ex6_m_distance(n: int, T: float = 1.0) -> float:
    """E_m[A_T^2] for the spike n^{3/2} 1_(0, 1/n) on absorbed BM, in
    continuous time (the window (0, 6) of ex6 loses less than 1e-7).

    With a = 1/n and h = n^{3/2},

        E_m[A_T^2] = 2 h^2 int_0^a dy int_0^T dr K_r(y) S(y, T - r).
    """
    _, a, h = spike(n)

    def inner(y):
        def f(r):
            return absorbed_stay_prob(r, y, a) * survival_integral(y, T - r)

        # K_r changes on the time scale a^2; split the r-range there
        cuts = [0.0, 1e-2 * a * a, a * a, min(10.0 * a * a, T / 2.0), T]
        return sum(integrate.quad(f, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-10)[0]
                   for lo, hi in zip(cuts[:-1], cuts[1:]))

    val = integrate.quad(inner, 0.0, a, limit=200, epsabs=1e-13, epsrel=1e-10)[0]
    return 2.0 * h * h * val
