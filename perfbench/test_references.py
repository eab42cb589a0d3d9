"""Each benchmark reference against its defining integral, plus the
determinism property the benchmark relies on.

    python3 -m pytest -q perfbench/test_references.py
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import references as R  # noqa: E402

C = math.sqrt(2.0)


def quad(f, a, b, **kw):
    kw.setdefault("limit", 800)
    kw.setdefault("epsabs", 1e-13)
    kw.setdefault("epsrel", 1e-12)
    return integrate.quad(f, a, b, **kw)[0]


@pytest.mark.parametrize("n", [1, 3, 5])
def test_flip_mean_is_the_integrated_two_point_law(n):
    # X_s = x0 with probability (1 + e^{-2s})/2, else -x0
    x0 = 0.5

    def ef(s):
        p = 0.5 * (1.0 + math.exp(-2.0 * s))
        return p * (1.0 + math.sin(n * x0)) + (1.0 - p) * (1.0 + math.sin(-n * x0))

    assert R.flip_mean(n) == pytest.approx(quad(ef, 0.0, 1.0), abs=1e-12)


def test_static_parts_and_pairings():
    m = quad(lambda x: 2 * x**4 / ((x**2 + 1) * (2 * x**2 + 1)), 0.0, 1.0)
    k = quad(lambda x: 2 * x**2 / ((x**2 + 1) * (2 * x**2 + 1)), 0.2, 0.9)
    assert R.static_m_part() == pytest.approx(m, abs=1e-12)
    assert R.static_kappa_part(0.2, 0.9) == pytest.approx(k, abs=1e-12)
    # E_1 = int f^2 / (1 + g); kappa pairing = 2 int (1 - 2 R_2 1) U_1 f dx
    g = lambda x: x**-2.0  # noqa: E731
    energy = quad(lambda x: 1.0 / (1.0 + g(x)), 0.0, 1.0)
    kappa = quad(lambda x: 2.0 * (1.0 - 2.0 / (2.0 + g(x))) / (1.0 + g(x)), 0.0, 1.0)
    assert R.static_energy_uniform() == pytest.approx(energy, abs=1e-12)
    assert R.static_kappa_pairing_uniform() == pytest.approx(kappa, abs=1e-12)


@pytest.mark.parametrize("x", [0.05, 0.3, 0.9])
def test_capped_lifetime_moment(x):
    lam, T = x**-2.0, 1.0
    direct = quad(lambda z: min(T, z) ** 2 * lam * math.exp(-lam * z), 0.0, T) \
        + T * T * math.exp(-lam * T)
    assert float(R.capped_lifetime_sq(x, T)) == pytest.approx(direct, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("n", [2, 16, 64])
def test_ex5_distances_are_the_weighted_lifetime_integrals(n):
    def diff_sq(x):
        return ((1.0 + x**-2.0) * math.sin(n * x) / math.sqrt(n)) ** 2

    def m_int(x):
        return diff_sq(x) * float(R.capped_lifetime_sq(x, 1.0))

    m = quad(m_int, 0.0, 1.0, epsabs=1e-12)
    k_full = quad(lambda x: m_int(x) / x**2, 0.0, 1.0, epsabs=1e-12)
    k_win = quad(lambda x: m_int(x) / x**2, 0.2, 0.9, epsabs=1e-12)
    assert R.ex5_m_distance(n) == pytest.approx(m, rel=1e-9)
    assert R.ex5_kappa_distance(n) == pytest.approx(k_full, rel=1e-9)
    assert R.ex5_kappa_distance(n, window=(0.2, 0.9)) == pytest.approx(k_win, rel=1e-9)


@pytest.mark.parametrize("x", [0.05, 0.3, 0.9])
def test_capped_lifetime_fourth_moment(x):
    lam, T = x**-2.0, 1.0
    direct = quad(lambda z: min(T, z) ** 4 * lam * math.exp(-lam * z), 0.0, T) \
        + T**4 * math.exp(-lam * T)
    assert float(R.capped_lifetime_4th(x, T)) == pytest.approx(direct, rel=1e-9, abs=1e-18)


@pytest.mark.parametrize("n", [2, 32])
def test_ex5_standard_error_is_the_per_path_spread(n):
    def v2(x):  # E_x[V^2] = (f_n - f)^4 E_x[(T ^ zeta)^4]
        return ((1.0 + x**-2.0) * math.sin(n * x)) ** 4 / n**2 * float(R.capped_lifetime_4th(x, 1.0))

    var_m = quad(v2, 0.0, 1.0, epsabs=1e-12) - R.ex5_m_distance(n) ** 2
    mass = 1.0 / 0.2 - 1.0 / 0.9
    var_k = mass * quad(lambda x: v2(x) / x**2, 0.2, 0.9, epsabs=1e-12) \
        - R.ex5_kappa_distance(n, window=(0.2, 0.9)) ** 2
    assert R.ex5_standard_error(n, 1000) == pytest.approx(math.sqrt(var_m / 1000), rel=1e-8)
    assert R.ex5_standard_error(n, 1000, window=(0.2, 0.9)) == pytest.approx(
        math.sqrt(var_k / 1000), rel=1e-8)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_static_rho_sq(n):
    direct = quad(lambda x: (1.0 + x**-2.0) * math.sin(n * x) ** 2 / n, 0.0, 1.0,
                  epsabs=1e-12)
    assert R.static_rho_sq(n) == pytest.approx(direct, rel=1e-9)


def test_static_rho_sq_tends_to_half_pi():
    assert abs(R.static_rho_sq(10**5) - math.pi / 2.0) < 1e-4


def _free(x, y):
    return math.exp(-C * abs(x - y)) / C


def _absorbed(x, y):
    return (math.exp(-C * abs(x - y)) - math.exp(-C * (x + y))) / C


def _double(kernel, a, b):
    # split at the diagonal kink
    inner = lambda x: quad(lambda y: kernel(x, y), a, x) + quad(lambda y: kernel(x, y), x, b)  # noqa: E731
    return quad(inner, a, b, epsabs=1e-12)


def test_box_energies():
    assert R.free_box_energy(0.0, 1.0) == pytest.approx(_double(_free, 0.0, 1.0), abs=1e-11)
    assert R.free_box_energy(0.0, 1.0) == pytest.approx(R.FREE_BOX_ENERGY, abs=1e-10)
    assert R.absorbed_box_energy(1.0, 2.0) == pytest.approx(
        _double(_absorbed, 1.0, 2.0), abs=1e-11)
    assert R.absorbed_box_energy(1.0, 2.0) == pytest.approx(R.ABSORBED_BOX_ENERGY, abs=1e-10)
    a, b, h = R.spike(8)
    assert R.absorbed_box_energy(a, b, h) == pytest.approx(
        h * h * _double(_absorbed, a, b), rel=1e-10)


@pytest.mark.parametrize("box", [(1.0, 2.0, 1.0), R.spike(8)])
def test_nu0_pairing_is_the_boundary_weighted_potential(box):
    a, b, h = box

    def potential(x):
        return h * (quad(lambda y: _absorbed(x, y), a, x) + quad(lambda y: _absorbed(x, y), x, b))

    direct = 2.0 * h * quad(lambda x: math.exp(-2.0 * x) * potential(x), a, b, epsabs=1e-12)
    assert R.absorbed_nu0_pairing(a, b, h) == pytest.approx(direct, rel=1e-9)
    if box == (1.0, 2.0, 1.0):
        assert R.absorbed_nu0_pairing(a, b, h) == pytest.approx(
            R.NU0_PAIRING_UNIFORM_1_2, abs=1e-10)


def test_hitting_and_local_time_transforms():
    # first passage density of level 1 from 0, and the heat kernel at 0
    hit = quad(lambda t: math.exp(-t) * math.exp(-1.0 / (2 * t)) / math.sqrt(2 * math.pi * t**3),
               0.0, np.inf)
    loc = quad(lambda t: math.exp(-t) / math.sqrt(2 * math.pi * t), 0.0, np.inf)
    assert R.HITTING_LAPLACE == pytest.approx(hit, abs=1e-10)
    assert R.LOCAL_TIME_TRANSFORM == pytest.approx(loc, abs=1e-10)


@pytest.mark.parametrize("r,y", [(1e-4, 0.01), (0.01, 0.1), (0.5, 0.2)])
def test_absorbed_stay_prob_is_the_image_kernel_mass(r, y):
    a = 0.25

    def p(z):
        g = lambda d: math.exp(-d * d / (2 * r)) / math.sqrt(2 * math.pi * r)  # noqa: E731
        return g(y - z) - g(y + z)

    assert R.absorbed_stay_prob(r, y, a) == pytest.approx(quad(p, 0.0, a, points=[y]),
                                                          abs=1e-10)


@pytest.mark.parametrize("y,tau", [(0.01, 1.0), (0.2, 0.3), (1.0, 2.0)])
def test_survival_integral(y, tau):
    direct = quad(lambda s: erf(y / math.sqrt(2 * s)), 0.0, tau)
    assert R.survival_integral(y, tau) == pytest.approx(direct, abs=1e-11)


def test_ex6_distance_in_the_other_integration_order():
    # E_m[A_T^2] = 2 h^2 int dy int_0^T ds P_y(zeta > s) int_0^{T-s} K_r(y) dr
    n, T = 4, 1.0
    _, a, h = R.spike(n)

    def over_s(y):
        def f(s):
            inner = quad(lambda r: R.absorbed_stay_prob(r, y, a), 0.0, T - s,
                         epsabs=1e-11, epsrel=1e-9, points=[a * a] if a * a < T - s else None)
            return erf(y / math.sqrt(2 * s)) * inner
        return quad(f, 0.0, T, epsabs=1e-11, epsrel=1e-9, limit=200)

    direct = 2.0 * h * h * quad(over_s, 0.0, a, epsabs=1e-11, epsrel=1e-9, limit=200)
    assert R.ex6_m_distance(n) == pytest.approx(direct, rel=1e-6)


def test_event_estimate_is_bit_identical_at_one_and_two_workers():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from revuz_lab import estimators, measures, pcaf
    from revuz_lab.models import KILLED_STATIC
    from revuz_lab.simulate import SimConfig

    spec = pcaf.pcaf_of_measure(measures.uniform_density(0.0, 1.0))
    cfg = SimConfig(dt=1e-3, horizon=20.0, seed=7)
    runs = [estimators.expect(KILLED_STATIC, estimators.MWindow((0.0, 1.0)),
                              estimators.discounted_square(spec, 1.0), cfg, 500, workers=w)
            for w in (1, 2)]
    assert [e.mean.hex() for e in runs] == [runs[0].mean.hex()] * 2
    assert [e.std_error.hex() for e in runs] == [runs[0].std_error.hex()] * 2
