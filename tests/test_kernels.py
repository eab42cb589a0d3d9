import math

import numpy as np
import pytest

from revuz_lab import kernels, measures
from revuz_lab.estimators import _PotentialTable
from revuz_lab.kernels import (
    Potential,
    _as_boxes,
    energy,
    green,
    kappa_pairing,
    m_pairing,
    measure_support,
    nu0_pairing,
    resolvent_apply,
    resolvent_one,
    rho,
    validate_free_green,
)
from revuz_lab.measures import (
    CantorLevelMeasure,
    DensityMeasure,
    DiracMeasure,
    WeightedSumMeasure,
    measure_from_config,
)
from revuz_lab.models import ABSORBED_BM, FLIP_JUMP, FREE_BM, KILLED_STATIC

SQ2 = math.sqrt(2.0)


def _green_quadrature(model, alpha, mu, x, tol=1e-13):
    """U_alpha mu(x) by quadrature of the kernel itself, bypassing Potential."""
    lo, hi = measure_support(mu)
    return measures.integrate(mu, lambda y: green(model, alpha, x, y), (lo, hi), tol,
                              lipschitz=1.0, integrand_points=(x,))


def test_free_green_closed_form_validates():
    # the closed form must match the time-integral representation to 1e-10
    assert validate_free_green() <= 1e-10


class TestGreen:
    def test_free_values(self):
        # oracle: quadrature of the time integral gave 0.707106781187 at the
        # diagonal and 0.171909491538 at separation 1
        assert green(FREE_BM, 1.0, 0.0, 0.0) == pytest.approx(1.0 / SQ2, abs=1e-14)
        assert green(FREE_BM, 1.0, 0.0, 1.0) == pytest.approx(
            math.exp(-SQ2) / SQ2, abs=1e-14)

    def test_absorbed_dirichlet_boundary(self):
        assert green(ABSORBED_BM, 1.0, 1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)
        vals = [green(ABSORBED_BM, 1.0, x, 1.0) for x in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(123)
        for model in (FREE_BM, ABSORBED_BM):
            lo = 0.0 if model is ABSORBED_BM else -5.0
            xs = lo + rng.random(1000) * 5.0 + 1e-6
            ys = lo + rng.random(1000) * 5.0 + 1e-6
            gxy = green(model, 1.0, xs, ys)
            gyx = green(model, 1.0, ys, xs)
            assert np.array_equal(gxy, gyx)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.random(500) * 4 + 1e-9, rng.random(500) * 4 + 1e-9
        assert np.all(green(ABSORBED_BM, 0.7, xs, ys) >= 0.0)

    def test_unsupported_models(self):
        with pytest.raises(ValueError):
            green(FLIP_JUMP, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            green(KILLED_STATIC, 1.0, 0.5, 0.5)


class TestResolvent:
    def test_static_fixed_point(self):
        # R_1 applied to 1 + g returns exactly 1
        f = lambda x: 1.0 + x ** -2.0
        assert resolvent_apply(KILLED_STATIC, 1.0, f, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_flip_even_and_odd(self):
        even = lambda x: math.cos(x)
        assert resolvent_apply(FLIP_JUMP, 1.0, even, 0.7) == pytest.approx(
            math.cos(0.7), abs=1e-14)
        # oracle: Monte Carlo Laplace transform over 4e5 flip paths gave
        # 0.098564 +- 0.000220 for sin at 0.3, matching sin(0.3)/3
        assert resolvent_apply(FLIP_JUMP, 1.0, math.sin, 0.3) == pytest.approx(
            math.sin(0.3) / 3.0, abs=1e-14)

    def test_kernel_route_matches_closed_form(self):
        # R_alpha of a Gaussian bump via quadrature vs the identity
        # R_1 1 = 1 on the free model
        val = resolvent_apply(FREE_BM, 1.0, lambda y: 1.0, 0.3)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_resolvent_one(self):
        assert resolvent_one(FREE_BM, 2.0, 1.3) == 0.5
        assert resolvent_one(KILLED_STATIC, 2.0, 0.5) == pytest.approx(1.0 / 6.0)
        assert resolvent_one(ABSORBED_BM, 1.0, 2.0) == pytest.approx(
            1.0 - math.exp(-SQ2 * 2.0))


class TestEnergy:
    def test_dirac_pair_is_green(self):
        assert energy(FREE_BM, 1.0, DiracMeasure(0.2), DiracMeasure(1.1)) == \
            pytest.approx(green(FREE_BM, 1.0, 0.2, 1.1), abs=1e-14)

    def test_zero_mass(self):
        z = measures.zero_measure()
        assert energy(FREE_BM, 1.0, z, measures.uniform_density(0, 1)) == 0.0

    def test_uniform_box_value(self):
        # oracle: iterated quadrature of g_1 over the unit square gave
        # 0.4648027104 (also in closed form)
        u = measures.uniform_density(0.0, 1.0)
        assert energy(FREE_BM, 1.0, u, u) == pytest.approx(0.4648027104, abs=1e-9)

    def test_box_fast_path_matches_generic_quadrature(self):
        # CantorLevel x uniform through the exact boxes vs the generic
        # potential quadrature (dual route)
        mu = CantorLevelMeasure(2)
        nu = measures.uniform_density(0.0, 1.0)
        fast = energy(FREE_BM, 1.0, mu, nu)
        slow = measures.integrate(
            mu, lambda x: _green_quadrature(FREE_BM, 1.0, nu, float(x), tol=1e-11),
            (0.0, 1.0), 1e-10)
        assert fast == pytest.approx(slow, abs=1e-8)

    def test_absorbed_boxes_match_quadrature(self):
        mu = measures.spike(8)
        fast = energy(ABSORBED_BM, 1.0, mu, mu)
        # oracle: iterated quadrature computed before the build
        assert fast == pytest.approx(0.585133, abs=2e-6)

    def test_static_closed_form(self):
        u = measures.uniform_density(0.0, 1.0)
        # E_1(U_1 mu) = int 1/(1+g) = int x^2/(1+x^2) = 1 - pi/4
        assert energy(KILLED_STATIC, 1.0, u, u) == pytest.approx(
            1.0 - math.pi / 4.0, abs=1e-10)

    def test_flip_energy_even_density(self):
        u = measures.uniform_density(-1.0, 1.0)
        # even density: R_1 f = f, so the energy is int f^2 = 2
        assert energy(FLIP_JUMP, 1.0, u, u) == pytest.approx(2.0, abs=1e-8)


class TestRho:
    def test_identity(self):
        assert rho(FREE_BM, DiracMeasure(0.3), DiracMeasure(0.3)) == 0.0

    def test_symmetry(self):
        a, b = DiracMeasure(0.0), CantorLevelMeasure(2)
        assert rho(FREE_BM, a, b) == pytest.approx(rho(FREE_BM, b, a), abs=1e-12)

    def test_dirac_pair_value(self):
        # oracle: expand g_1(0,0) + g_1(1,1) - 2 g_1(0,1) with the validated kernel
        expected = math.sqrt(SQ2 * (1.0 - math.exp(-SQ2)))
        assert rho(FREE_BM, DiracMeasure(0.0), DiracMeasure(1.0)) == \
            pytest.approx(expected, abs=1e-10)

    def test_triangle_inequality(self):
        pts = [DiracMeasure(0.0), DiracMeasure(0.7), CantorLevelMeasure(1),
               measures.uniform_density(0.0, 1.0)]
        tol = 2e-9
        for a in pts:
            for b in pts:
                for c in pts:
                    assert rho(FREE_BM, a, c) <= rho(FREE_BM, a, b) + \
                        rho(FREE_BM, b, c) + 2.0 * tol

    def test_flip_half_line_density(self):
        # d = 1_{[0,1]} splits into even and odd halves; the pointwise
        # expansion gives rho^2 = int (1/2 + 1/6) = 2/3 exactly
        val = rho(FLIP_JUMP, measures.uniform_density(0.0, 1.0),
                  measures.zero_measure())
        assert val ** 2 == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_static_perturbed_family(self):
        # oracle: substituting y = n x reduces the singular part to
        # int_0^n sin^2(y)/y^2 dy; quadrature gave 1.570350 at n=32 and
        # 1.570827 at n=128 (limit pi/2, finite; the divergence claimed in
        # the source display is not what the integral does)
        base = measures.perturbed_base()
        assert rho(KILLED_STATIC, measures.perturbed(32), base) ** 2 == \
            pytest.approx(1.570350, abs=2e-5)
        assert rho(KILLED_STATIC, measures.perturbed(128), base) ** 2 == \
            pytest.approx(1.570827, abs=2e-5)

    def test_l2_bound_for_density_families(self):
        # rho(mu_n, mu)^2 <= ||f_n - f||^2 for absolutely continuous pairs
        base = measures.uniform_density(0.0, 1.0)
        for n in (2, 8, 32):
            mu_n = measures.sin_shift(n)
            r2 = rho(FREE_BM, mu_n, base) ** 2
            l2 = 0.5 - math.sin(2.0 * n) / (4.0 * n)
            assert r2 <= l2 + 1e-9


class TestPairings:
    def test_nu0_zero_for_conservative_and_static(self):
        u = measures.uniform_density(0.0, 1.0)
        assert nu0_pairing(FREE_BM, 1.0, u) == 0.0
        assert nu0_pairing(KILLED_STATIC, 1.0, u) == 0.0

    def test_nu0_dirac(self):
        # oracle: direct substitution 2 e^{-2x} g_1(x, x)
        x = 0.8
        expected = 2.0 * math.exp(-2.0 * x) * green(ABSORBED_BM, 1.0, x, x)
        assert nu0_pairing(ABSORBED_BM, 1.0, DiracMeasure(x)) == \
            pytest.approx(expected, abs=1e-9)

    def test_nu0_spike_ladder(self):
        # oracle: iterated quadrature before the build; the large-n limit is
        # 4/3, consistent with rho^2 -> 2/3 through the 2 min(x,y) expansion
        assert nu0_pairing(ABSORBED_BM, 1.0, measures.spike(8)) == \
            pytest.approx(1.004218, abs=2e-5)
        assert nu0_pairing(ABSORBED_BM, 1.0, measures.spike(128)) == \
            pytest.approx(1.309507, abs=2e-5)

    def test_kappa_zero_without_killing(self):
        u = measures.uniform_density(0.0, 1.0)
        assert kappa_pairing(FREE_BM, 1.0, u) == 0.0
        assert kappa_pairing(ABSORBED_BM, 1.0, u) == 0.0

    def test_kappa_static_closed_form(self):
        # oracle: per-point lifetime computation for zeta ~ Exp(g):
        # E_x[(A~_inf)^2] = f^2 2/((1+g)(2+g)), integrated against g dx
        u = measures.uniform_density(0.0, 1.0)
        assert kappa_pairing(KILLED_STATIC, 1.0, u) == \
            pytest.approx(0.21977461, abs=1e-7)

    def test_budget_closes_for_every_model(self):
        # m-part + kappa/2 + nu0/2 reconstitutes the energy by quadrature
        cases = [
            (FREE_BM, measures.uniform_density(0.0, 1.0)),
            (KILLED_STATIC, measures.uniform_density(0.0, 1.0)),
            (ABSORBED_BM, measures.uniform_density(1.0, 2.0)),
            (FLIP_JUMP, measures.uniform_density(-1.0, 1.0)),
        ]
        for model, mu in cases:
            lhs = m_pairing(model, 1.0, mu) \
                + 0.5 * kappa_pairing(model, 1.0, mu) \
                + 0.5 * nu0_pairing(model, 1.0, mu)
            rhs = energy(model, 1.0, mu, mu)
            assert lhs == pytest.approx(rhs, abs=1e-7), model.name

    def test_absorbed_identity_numbers(self):
        # oracle values computed before the build for mu = 1_{[1,2]} dx
        mu = measures.uniform_density(1.0, 2.0)
        assert energy(ABSORBED_BM, 1.0, mu, mu) == pytest.approx(0.45283138, abs=1e-7)
        assert nu0_pairing(ABSORBED_BM, 1.0, mu) == pytest.approx(0.05206918, abs=1e-7)
        assert m_pairing(ABSORBED_BM, 1.0, mu) == pytest.approx(0.42679679, abs=1e-7)


def _ramp():
    """Density 2x on (0, 1), under a label that names a box."""
    return DensityMeasure(density=lambda x: 2.0 * np.asarray(x, dtype=float),
                          support=(0.0, 1.0), label="uniform[0.0,1.0]")


class TestBoxes:
    """Box measures are declared on the measure; their potential is closed form."""

    def test_label_is_not_a_declaration(self):
        ramp = _ramp()
        assert _as_boxes(ramp) is None
        # oracle: int int 4xy g_1(x, y) over the unit square, in closed form
        # by sympy; the box answer for the same support would be 0.46480
        oracle = 4.0 / 3.0 - (2.0 + SQ2) * math.exp(-SQ2)
        assert oracle == pytest.approx(0.50328, abs=1e-5)
        assert energy(FREE_BM, 1.0, ramp, ramp) == pytest.approx(oracle, abs=1e-8)
        for x in (-0.5, 0.3, 1.7):
            assert Potential(FREE_BM, 1.0, ramp)(x) == pytest.approx(
                _green_quadrature(FREE_BM, 1.0, ramp, x), abs=1e-12)

    @pytest.mark.parametrize("mu, boxes", [
        (measures.uniform_density(0.25, 2.0), [(1.0, 0.25, 2.0)]),
        (measures.spike(8), [(8.0 ** 1.5, 0.0, 0.125)]),
        (measures.zero_measure(), []),
        (measure_from_config({"type": "density",
                              "expr": {"name": "uniform", "a": 1, "b": 2}}), [(1.0, 1.0, 2.0)]),
        (measure_from_config({"type": "density", "expr": {"name": "spike", "n": 4}}),
         [(8.0, 0.0, 0.25)]),
        (measure_from_config({"type": "density", "expr": {"name": "zero"}}), []),
        (CantorLevelMeasure(1), [(1.5, 0.0, 1.0 / 3.0), (1.5, 2.0 / 3.0, 1.0)]),
        (WeightedSumMeasure(((2.0, measures.uniform_density(0.0, 1.0)),
                             (0.5, measures.spike(4)))),
         [(2.0, 0.0, 1.0), (4.0, 0.0, 0.25)]),
    ])
    def test_declared_boxes(self, mu, boxes):
        assert _as_boxes(mu) == boxes

    @pytest.mark.parametrize("mu", [
        measures.sin_shift(3),
        measures.perturbed(4),
        DiracMeasure(0.5),
        WeightedSumMeasure(((1.0, measures.uniform_density(0.0, 1.0)),
                            (1.0, measures.sin_shift(2)))),
    ])
    def test_undeclared_measures_are_not_boxes(self, mu):
        assert _as_boxes(mu) is None

    @pytest.mark.parametrize("model", [FREE_BM, ABSORBED_BM], ids=lambda m: m.name)
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("mu", [
        measures.uniform_density(0.0, 1.0),
        measures.spike(8),
        CantorLevelMeasure(2),
        WeightedSumMeasure(((1.0, measures.uniform_density(0.5, 1.5)),
                            (0.25, measures.uniform_density(2.0, 3.0)))),
    ], ids=["uniform", "spike8", "cantor2", "sum"])
    def test_closed_form_matches_green_quadrature(self, model, alpha, mu):
        points = {1e-9, 1e-4}  # x -> 0+ on the absorbed model
        for _, a, b in _as_boxes(mu):
            points |= {a - 0.3, a, a + 1e-9, 0.5 * (a + b), b - 1e-9, b, b + 0.3}
        points = sorted(p for p in points if p > 0.0 or model is FREE_BM)
        u = Potential(model, alpha, mu)
        values = u(np.array(points))
        for x, value in zip(points, values):
            oracle = _green_quadrature(model, alpha, mu, x)
            assert u(x) == value
            assert abs(value - oracle) <= 1e-12, (x, value, oracle)

    def test_mixed_energy_integrates_the_closed_form_once(self, monkeypatch):
        box, smooth = measures.uniform_density(0.0, 1.0), measures.sin_shift(3)
        expected = measures.integrate(
            smooth, lambda x: _green_quadrature(FREE_BM, 1.0, box, float(x)), (0.0, 1.0), 1e-10)

        def no_kernel_quadrature(*args, **kwargs):
            raise AssertionError("the box side's potential is closed form")

        monkeypatch.setattr(kernels, "green", no_kernel_quadrature)
        for mu, nu in ((box, smooth), (smooth, box)):
            assert energy(FREE_BM, 1.0, mu, nu) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("model", [FREE_BM, ABSORBED_BM], ids=lambda m: m.name)
    def test_small_table_matches_per_point_quadrature(self, model):
        mu = measures.uniform_density(0.0, 1.0)
        table = _PotentialTable(model, 1.0, mu, -2.0, 3.0, points=65)
        quad = [_green_quadrature(model, 1.0, mu, float(x), tol=1e-10) for x in table.xs]
        assert np.max(np.abs(table.us - quad)) <= 1e-14
