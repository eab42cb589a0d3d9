import math

import numpy as np
import pytest

from revuz_lab import kernels, measures, pcaf
from revuz_lab.estimators import (
    KappaWindow,
    MWindow,
    Nu0Weighting,
    PointMass,
    discounted_sq_diff,
    discounted_square,
    energy_identity_check,
    expect,
    fukushima_residual,
    hitting_laplace_check,
    kappa_mass,
    nu0_expect,
    pairwise_sum,
    sup_l2_distance,
    terminal_value,
    vague_probe,
)
from revuz_lab.models import ABSORBED_BM, FLIP_JUMP, FREE_BM, KILLED_STATIC
from revuz_lab.simulate import SimConfig

UNIT = pcaf.DensityPcaf(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                        label="ones", rate_bound=1.0)


class TestPairwiseSum:
    def test_matches_plain_sum(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 7, 64, 1001):
            vals = rng.random(n)
            assert pairwise_sum(vals) == pytest.approx(vals.sum(), rel=1e-13)

    def test_empty(self):
        assert pairwise_sum([]) == 0.0

    def test_deterministic_function_of_array(self):
        vals = np.random.default_rng(1).random(999)
        assert pairwise_sum(vals) == pairwise_sum(vals.copy())


class TestExpect:
    def test_deterministic_functional(self):
        # F = A_T with f == 1 from a point: mean T exactly, zero noise
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=0)
        est = expect(FREE_BM, PointMass(0.0), terminal_value(UNIT, 2.0), cfg, 200)
        assert est.mean == pytest.approx(2.0, abs=1e-12)
        assert est.std_error <= 1e-12

    def test_kappa_mass_multiplier(self):
        # F == 1 under the kappa weighting returns kappa(W) exactly
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=0)
        est = expect(KILLED_STATIC, KappaWindow((0.2, 0.9)),
                     lambda path: (1.0, 0.0), cfg, 500)
        assert est.mean == pytest.approx(5.0 - 10.0 / 9.0, abs=1e-12)
        assert kappa_mass((0.2, 0.9)) == pytest.approx(5.0 - 10.0 / 9.0)
        assert est.std_error == 0.0

    def test_flip_closed_form(self):
        n, x0 = 5, 0.5
        spec = pcaf.DensityPcaf(lambda x: np.sin(n * np.asarray(x)) + 1.0,
                                label="sin5", rate_bound=2.0)
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=42)
        est = expect(FLIP_JUMP, PointMass(x0), terminal_value(spec, 1.0), cfg, 20_000)
        closed = 1.0 + math.sin(n * x0) * math.sinh(1.0) / math.e
        assert abs(est.mean - closed) <= 3.0 * est.std_error

    def test_worker_counts_bitwise_identical(self):
        spec = pcaf.DensityPcaf(lambda x: np.sin(np.asarray(x)) + 1.0,
                                label="sin1", rate_bound=2.0)
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=7)
        runs = [
            expect(FREE_BM, MWindow((-2.0, 2.0)), discounted_square(spec, 1.0),
                   cfg, 3000, workers=w)
            for w in (1, 4, 16)
        ]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].std_error == runs[1].std_error == runs[2].std_error

    def test_invalid_weighting_model_pairs(self):
        cfg = SimConfig(seed=0)
        with pytest.raises(ValueError):
            expect(FREE_BM, KappaWindow((0.2, 0.9)), lambda p: (0.0, 0.0), cfg, 10)
        with pytest.raises(ValueError):
            expect(KILLED_STATIC, MWindow((2.0, 3.0)), lambda p: (0.0, 0.0), cfg, 10)
        with pytest.raises(ValueError):
            nu0_expect(FREE_BM, lambda p: (0.0, 0.0), cfg)


class TestDistances:
    def test_self_distance_zero_all_models(self):
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=3)
        cases = [
            (FREE_BM, MWindow((-1.0, 1.0))),
            (FREE_BM, PointMass(0.0)),
            (KILLED_STATIC, MWindow((0.0, 1.0))),
            (KILLED_STATIC, KappaWindow((0.2, 0.9))),
            (FLIP_JUMP, PointMass(1.0)),
            (ABSORBED_BM, MWindow((0.0, 2.0))),
        ]
        for model, w in cases:
            est = sup_l2_distance(model, UNIT, UNIT, w, 1.0, cfg, 200)
            assert est.mean == 0.0 and est.std_error == 0.0

    def test_discounted_deterministic_case(self):
        # f == 1 vs f == 0 from a point on the free model: (1 - e^{-T})^2
        zero = pcaf.DensityPcaf(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                                label="zero", rate_bound=0.0)
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=5)
        est = expect(FREE_BM, PointMass(1.0), discounted_sq_diff(UNIT, zero, 1.0),
                     cfg, 100)
        assert est.mean == pytest.approx((1.0 - math.exp(-20.0)) ** 2, abs=1e-6)
        assert est.std_error <= 1e-12

    def test_local_time_distance_trend(self):
        # oracle: fixed-seed trend over the 1/n ladder of shifted local times
        eps = math.sqrt(1e-3)
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=99)
        base = pcaf.LocalTimePcaf(0.0, eps)
        means = []
        for n in (1, 2, 4, 8):
            est = sup_l2_distance(FREE_BM, pcaf.LocalTimePcaf(1.0 / n, eps), base,
                                  PointMass(2.0), 1.0, cfg, 4000)
            means.append(est.mean)
        assert all(a > b for a, b in zip(means, means[1:]))


class TestEnergyIdentity:
    def test_killed_static_closes(self):
        mu = measures.uniform_density(0.0, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=11)
        rep = energy_identity_check(KILLED_STATIC, 1.0, mu, cfg, 20_000)
        assert abs(rep.z_score) <= 3.0
        assert rep.rhs == pytest.approx(1.0 - math.pi / 4.0, abs=1e-9)
        assert rep.nu0_term == 0.0

    def test_free_bm_closes_small(self):
        mu = measures.uniform_density(0.0, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=4)
        rep = energy_identity_check(FREE_BM, 1.0, mu, cfg, 8000, window=(-8.0, 9.0))
        assert abs(rep.z_score) <= 3.0
        assert rep.kappa_term == 0.0 and rep.nu0_term == 0.0
        assert rep.exterior_bound < 1e-5

    def test_window_extension_bound(self):
        from revuz_lab.estimators import identity_window
        mu = measures.uniform_density(0.0, 1.0)
        window, bound = identity_window(FREE_BM, mu, 1.0, 0.46)
        assert window[0] < 0.0 < 1.0 < window[1]
        assert bound <= 1e-5

    def test_window_clipped_to_state_space(self):
        from revuz_lab.estimators import identity_window
        mu = measures.uniform_density(1.0, 2.0)
        window, _ = identity_window(ABSORBED_BM, mu, 1.0, 0.45)
        assert window[0] == 0.0  # the open boundary clips the extension


class TestFukushima:
    def test_zero_measure_residual_is_zero(self):
        mu = measures.zero_measure()
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=8)
        est = fukushima_residual(FREE_BM, mu, 0.5, 1.0, cfg, 100)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_zero_measure_residual_is_zero_absorbed(self):
        mu = measures.zero_measure()
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=8)
        est = fukushima_residual(ABSORBED_BM, mu, 0.5, 1.0, cfg, 100)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_static_residual_centered(self):
        mu = measures.uniform_density(0.0, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=9)
        est = fukushima_residual(KILLED_STATIC, mu, 0.5, 1.0, cfg, 20_000)
        assert abs(est.mean) <= 3.0 * est.std_error

    def test_free_residual_centered_small(self):
        mu = measures.uniform_density(0.0, 1.0)
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=10)
        est = fukushima_residual(FREE_BM, mu, 0.5, 1.0, cfg, 10_000)
        assert abs(est.mean) <= 3.0 * est.std_error + 5.0 * cfg.dt


class TestHitting:
    def test_at_start(self):
        cfg = SimConfig(dt=1e-3, horizon=5.0, seed=0)
        est = hitting_laplace_check(FREE_BM, 1.0, 1.0, cfg, 50)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_transform_value(self):
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=6)
        est = hitting_laplace_check(FREE_BM, 0.0, 1.0, cfg, 6000)
        assert abs(est.mean - math.exp(-math.sqrt(2.0))) <= \
            3.0 * est.std_error + 0.005
        assert est.tail_bound <= math.exp(-20.0) * 1.01

    def test_far_level(self):
        # oracle: the kernel ratio gives e^{-3 sqrt(2)} for the level at 3
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=15)
        est = hitting_laplace_check(FREE_BM, 0.0, 3.0, cfg, 5000)
        target = math.exp(-3.0 * math.sqrt(2.0))
        assert abs(est.mean - target) <= 3.0 * est.std_error + est.tail_bound + 1e-3

    def test_wrong_model(self):
        with pytest.raises(ValueError):
            hitting_laplace_check(ABSORBED_BM, 1.0, 2.0, SimConfig(seed=0), 10)


class TestNu0FiniteDifference:
    def test_matches_pairing_at_small_budget(self):
        mu = measures.uniform_density(1.0, 2.0)
        spec = pcaf.pcaf_of_measure(mu)
        cfg = SimConfig(dt=2e-3, horizon=15.0, seed=20260810)
        w = Nu0Weighting(node_count=10, inner_paths=400, weight_draws=60_000,
                         boundary_boost=4)
        est = nu0_expect(ABSORBED_BM, discounted_square(spec, 1.0), cfg, w)
        target = kernels.nu0_pairing(ABSORBED_BM, 1.0, mu)
        assert abs(est.mean - target) <= 4.0 * est.std_error + 0.02 * target

    def test_breakdown_exposes_ladder(self):
        mu = measures.uniform_density(1.0, 2.0)
        spec = pcaf.pcaf_of_measure(mu)
        cfg = SimConfig(dt=5e-3, horizon=10.0, seed=1)
        w = Nu0Weighting(node_count=6, inner_paths=100, weight_draws=20_000,
                         boundary_boost=2)
        est, bk = nu0_expect(ABSORBED_BM, discounted_square(spec, 1.0), cfg, w,
                             return_breakdown=True)
        assert len(bk.ladder_t) == len(bk.ladder_values) == 3
        assert bk.ladder_t == (w.t0, w.t0 / 2.0, w.t0 / 4.0)
        assert est.mean == pytest.approx(2.0 * bk.ladder_values[2]
                                         - bk.ladder_values[1])


class TestVagueProbe:
    def test_constant_sequence(self):
        mus = [measures.uniform_density(0.0, 1.0)] * 3
        table = vague_probe(mus, [("x", lambda x: np.asarray(x, dtype=float))],
                            (0.0, 1.0))
        assert np.allclose(table.matrix, 0.5)

    def test_riemann_lebesgue(self):
        # oracle: quadrature at n in {4, 16, 64} decays toward int f dx
        mus = [measures.sin_shift(n) for n in (4, 16, 64)]
        hat = lambda x: np.maximum(0.0, 1.0 - np.abs(2.0 * np.asarray(x) - 1.0))
        table = vague_probe(mus, [("hat", hat)], (0.0, 1.0), targets=[0.5])
        gaps = table.column_gaps(0)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_cantor_level_symmetry(self):
        # the level measures are symmetric about 1/2, so int x dmu_n = 1/2
        mus = [measures.CantorLevelMeasure(n) for n in (1, 3, 5)]
        table = vague_probe(mus, [("x", lambda x: np.asarray(x, dtype=float))],
                            (0.0, 1.0), targets=[0.5])
        assert np.allclose(table.matrix[:, 0], 0.5, atol=1e-10)
