import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revuz_lab import measures
from revuz_lab.measures import (
    CantorLevelMeasure,
    CantorLimitMeasure,
    DensityMeasure,
    DiracMeasure,
    WeightedSumMeasure,
    cantor_indicator,
    cantor_intervals,
    cantor_membership,
    integrate,
    measure_from_config,
)


class TestCantorSet:
    def test_level_one_intervals(self):
        assert cantor_intervals(1) == [(0.0, 1.0 / 3.0), (2.0 / 3.0, 1.0)]

    def test_counts_and_lengths(self):
        for n in (1, 2, 3, 5):
            ivs = cantor_intervals(n)
            assert len(ivs) == 2 ** n
            total = sum(b - a for a, b in ivs)
            assert total == pytest.approx((2.0 / 3.0) ** n, rel=1e-12)

    def test_membership_examples(self):
        assert cantor_membership(1.0 / 3.0, 5)   # kept endpoint at every level
        assert not cantor_membership(0.5, 1)     # the removed middle third
        # oracle: explicit enumeration of the 8 intervals of C_3
        ivs = cantor_intervals(3)
        expected = any(a <= 0.7 <= b for a, b in ivs)
        assert cantor_membership(0.7, 3) == expected is True

    @given(x=st.floats(0.0, 1.0), n=st.integers(1, 8))
    def test_membership_matches_interval_enumeration(self, x, n):
        ivs = cantor_intervals(n)
        assert cantor_membership(x, n) == any(a <= x <= b for a, b in ivs)

    @given(x=st.floats(-0.5, 1.5), n=st.integers(1, 8))
    def test_vectorized_indicator_agrees(self, x, n):
        assert bool(cantor_indicator(np.array([x]), n)[0]) == cantor_membership(x, n)

    @given(x=st.floats(0.0, 1.0), n=st.integers(1, 7))
    def test_levels_are_nested(self, x, n):
        if cantor_membership(x, n + 1):
            assert cantor_membership(x, n)


class TestIntegrate:
    def test_dirac_point_evaluation(self):
        val = integrate(DiracMeasure(0.0), lambda x: x * x + 1.0, (-1.0, 1.0))
        assert val == 1.0
        assert integrate(DiracMeasure(2.0), lambda x: x, (-1.0, 1.0)) == 0.0

    def test_cantor_level_mean(self):
        # oracle: exact mean of the uniform mix on [0,1/3] u [2/3,1] is
        # (1/2)(1/6) + (1/2)(5/6) = 1/2
        val = integrate(CantorLevelMeasure(1), lambda x: x, (0.0, 1.0))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_cantor_levels_total_mass_exact(self):
        for n in (1, 2, 4, 7):
            val = integrate(CantorLevelMeasure(n),
                            lambda x: np.ones_like(np.asarray(x)), (0.0, 1.0))
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_cantor_limit_mass_and_mean(self):
        mu = CantorLimitMeasure()
        assert integrate(mu, lambda x: np.ones_like(np.asarray(x)), (0.0, 1.0),
                         lipschitz=0.0) == pytest.approx(1.0, abs=1e-12)
        # the measure is symmetric about 1/2
        assert integrate(mu, lambda x: x, (0.0, 1.0),
                         lipschitz=1.0) == pytest.approx(0.5, abs=1e-9)

    def test_cantor_limit_self_similarity(self):
        # int h dmu = 1/2 int h(x/3) dmu + 1/2 int h(2/3 + x/3) dmu
        mu = CantorLimitMeasure()
        h = lambda x: np.cos(3.0 * np.asarray(x, dtype=float))
        lhs = integrate(mu, h, (0.0, 1.0), tol=1e-10, lipschitz=3.0)
        r1 = integrate(mu, lambda x: h(np.asarray(x) / 3.0), (0.0, 1.0),
                       tol=1e-10, lipschitz=1.0)
        r2 = integrate(mu, lambda x: h(2.0 / 3.0 + np.asarray(x) / 3.0),
                       (0.0, 1.0), tol=1e-10, lipschitz=1.0)
        assert lhs == pytest.approx(0.5 * r1 + 0.5 * r2, abs=1e-7)

    def test_density_window_clip(self):
        mu = measures.uniform_density(0.0, 1.0)
        assert integrate(mu, lambda x: 1.0, (0.25, 2.0)) == pytest.approx(0.75, abs=1e-10)

    def test_linearity(self):
        mu = measures.sin_shift(5)
        h1 = lambda x: np.exp(-np.asarray(x))
        h2 = lambda x: np.asarray(x) ** 2
        combo = integrate(mu, lambda x: 2.0 * h1(x) + 3.0 * h2(x), (0.0, 1.0))
        parts = 2.0 * integrate(mu, h1, (0.0, 1.0)) + 3.0 * integrate(mu, h2, (0.0, 1.0))
        assert combo == pytest.approx(parts, abs=1e-8)

    def test_weighted_sum(self):
        mu = WeightedSumMeasure(((2.0, DiracMeasure(0.5)), (1.0, CantorLevelMeasure(1))))
        val = integrate(mu, lambda x: x, (0.0, 1.0))
        assert val == pytest.approx(2.0 * 0.5 + 0.5, abs=1e-10)


def _cantor_cdf(x, n):
    total = 0.0
    frac = (2.0 / 3.0) ** n  # each interval carries mass 2^-n over 3^-n length
    for a, b in cantor_intervals(n):
        if x >= b:
            total += 0.5 ** n
        elif x > a:
            total += 0.5 ** n * (x - a) / (b - a)
    return total


def test_cdf_convergence_is_monotone():
    # the distribution functions converge uniformly; the sup gap between
    # consecutive levels shrinks with the level
    grid = np.linspace(0.0, 1.0, 1001)
    gaps = []
    for n in (1, 2, 3, 4):
        gaps.append(max(abs(_cantor_cdf(x, n) - _cantor_cdf(x, n + 1)) for x in grid))
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


class TestConfigLiterals:
    def test_density_literal(self):
        mu = measure_from_config({"type": "density", "expr": {"name": "sin_shift", "n": 4}})
        assert isinstance(mu, DensityMeasure)
        assert mu.label == "sin_shift(4)"

    def test_named_families(self):
        spike = measure_from_config({"type": "density", "expr": {"name": "spike", "n": 8}})
        assert spike.support == (0.0, 0.125)
        pert = measure_from_config({"type": "density", "expr": {"name": "perturbed", "n": 2}})
        assert float(pert.density(np.array([0.5]))[0]) == pytest.approx(
            (1.0 + 4.0) * (1.0 + math.sin(1.0) / math.sqrt(2.0)))

    def test_dirac_cantor_sum(self):
        assert measure_from_config({"type": "dirac", "x": 1.5}).point == 1.5
        assert measure_from_config({"type": "cantor", "n": 3}).n == 3
        s = measure_from_config({
            "type": "sum",
            "terms": [[1.0, {"type": "dirac", "x": 0.0}],
                      [2.0, {"type": "cantor", "n": 1}]],
        })
        assert isinstance(s, WeightedSumMeasure)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            measure_from_config({"type": "banana"})
        with pytest.raises(ValueError):
            measure_from_config({"type": "density", "expr": {"name": "nope"}})
