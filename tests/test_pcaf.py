import math

import numpy as np
import pytest

from revuz_lab import measures
from revuz_lab.models import ExitKind, FLIP_JUMP, FREE_BM, KILLED_STATIC
from revuz_lab.pcaf import (
    CantorPcaf,
    DensityPcaf,
    LocalTimePcaf,
    discounted_final,
    discounted_total,
    evaluate,
    pcaf_from_config,
    pcaf_of_measure,
    sup_distance,
)
from revuz_lab.simulate import Path, SimConfig, rng_for, simulate_path

ONES = DensityPcaf(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                   label="ones", rate_bound=1.0)


def _synthetic(grid, values, alpha=1.0):
    """Trajectory stub for sup-distance unit tests."""
    from revuz_lab.pcaf import PcafTrajectory
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    return PcafTrajectory(grid, values, values.copy(), alpha, 1.0, False,
                          float(grid[-1]))


class TestEvaluate:
    def test_unit_density_gives_time(self):
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=5)
        p = simulate_path(FREE_BM, 0.0, cfg, rng_for(5, 0))
        traj = evaluate(ONES, p, alpha=0.0)
        assert np.allclose(traj.values, p.grid, atol=1e-12)

    def test_killed_static_exact_discount(self):
        # A~_inf = 1 - e^{-zeta} exactly for f == 1, alpha = 1
        cfg = SimConfig(dt=1e-3, horizon=50.0, seed=3)
        p = simulate_path(KILLED_STATIC, 0.4, cfg, rng_for(3, 7))
        assert p.killed
        traj = evaluate(ONES, p, alpha=1.0)
        v, tail = discounted_total(traj)
        assert tail == 0.0
        assert v == pytest.approx(1.0 - math.exp(-p.zeta), abs=1e-14)

    def test_flip_exact_piecewise(self):
        # on the flip path the accumulation is exact panel sums
        grid = np.array([0.0, 0.5, 1.2, 2.0])
        states = np.array([1.0, -1.0, 1.0, 1.0])
        p = Path(grid, states, math.inf, ExitKind.ALIVE, 2.0, piecewise_constant=True)
        spec = DensityPcaf(lambda x: np.asarray(x) + 2.0, label="x+2", rate_bound=3.0)
        traj = evaluate(spec, p, alpha=0.0)
        assert traj.values[-1] == pytest.approx(3.0 * 0.5 + 1.0 * 0.7 + 3.0 * 0.8)

    def test_flip_closed_form_mean(self):
        # mean of A_1 over 2e4 paths vs t (1 + sin(n x) sinh(t)/e^t) at t=1
        n, x0, t = 3, 0.5, 1.0
        cfg = SimConfig(dt=1e-3, horizon=t, seed=12)
        spec = DensityPcaf(lambda x: np.sin(n * np.asarray(x)) + 1.0,
                           label="sin3", rate_bound=2.0)
        vals = np.empty(20_000)
        for i in range(vals.size):
            p = simulate_path(FLIP_JUMP, x0, cfg, rng_for(12, i))
            vals[i] = evaluate(spec, p, alpha=0.0).values[-1]
        closed = t * (1.0 + math.sin(n * x0) * math.sinh(t) / math.e)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - closed) <= 3.0 * se

    def test_monotone_coupling(self):
        cfg = SimConfig(dt=1e-2, horizon=1.0, seed=8)
        f = DensityPcaf(lambda x: np.abs(np.sin(np.asarray(x))), label="low")
        g = DensityPcaf(lambda x: np.abs(np.sin(np.asarray(x))) + 0.5, label="high")
        for i in range(20):
            p = simulate_path(FREE_BM, 0.0, cfg, rng_for(8, i))
            tf, tg = evaluate(f, p, 0.0), evaluate(g, p, 0.0)
            assert np.all(tf.values <= tg.values + 1e-15)

    def test_additivity_under_shift(self):
        # A_{t+s} equals A_t plus the functional of the shifted path
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=19)
        p = simulate_path(FREE_BM, 0.1, cfg, rng_for(19, 0))
        spec = DensityPcaf(lambda x: np.asarray(x) ** 2, label="sq")
        whole = evaluate(spec, p, 0.0)
        k = 100  # split at t = 1.0
        shifted = Path(p.grid[k:] - p.grid[k], p.states[k:], math.inf,
                       ExitKind.ALIVE, 1.0, uniform_dt=p.uniform_dt)
        part = evaluate(spec, shifted, 0.0)
        assert whole.values[-1] == pytest.approx(
            whole.values[k] + part.values[-1], abs=1e-12)

    def test_local_time_revuz_limit(self):
        # (1/t) E_m-window[int_0^t h dL^x] -> h(x) at small fixed parameters;
        # windowed Lebesgue start carries the window length as multiplier
        x_star, t, dt = 0.2, 0.05, 1e-4
        eps = math.sqrt(dt)
        lo, hi = -2.0, 2.0
        h = lambda y: 2.0 + np.sin(y)
        cfg = SimConfig(dt=dt, horizon=t, seed=44)
        spec = LocalTimePcaf(x_star, eps)
        n = 20_000
        vals = np.empty(n)
        for i in range(n):
            rng = rng_for(44, i)
            x0 = lo + (hi - lo) * rng.random()
            p = simulate_path(FREE_BM, x0, cfg, rng)
            hv = h(p.states) * spec.values(p.states)
            vals[i] = np.trapezoid(hv, p.grid)
        est = (hi - lo) * vals.mean() / t
        se = (hi - lo) * vals.std(ddof=1) / math.sqrt(n) / t
        assert abs(est - h(x_star)) <= 3.0 * se + 0.05 * abs(h(x_star))


class TestSupDistance:
    def test_identical(self):
        t = _synthetic([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert sup_distance(t, t, 2.0) == 0.0

    def test_linear_pair(self):
        a = _synthetic(np.linspace(0, 3, 31), np.linspace(0, 3, 31))
        b = _synthetic(np.linspace(0, 3, 31), 2.0 * np.linspace(0, 3, 31))
        assert sup_distance(a, b, 3.0) == pytest.approx(3.0)

    def test_truncation(self):
        a = _synthetic(np.linspace(0, 3, 31), np.linspace(0, 3, 31))
        b = _synthetic(np.linspace(0, 3, 31), 2.0 * np.linspace(0, 3, 31))
        assert sup_distance(a, b, 1.5) == pytest.approx(1.5)

    def test_union_grid_against_fine_resampling(self):
        # oracle: evaluation on a 10x finer grid agrees within one-step modulus
        rng = np.random.default_rng(2)
        g1 = np.sort(np.concatenate([[0.0], rng.random(40)]))
        g2 = np.sort(np.concatenate([[0.0], rng.random(35)]))
        v1 = np.cumsum(np.concatenate([[0.0], rng.random(g1.size - 1)]))
        v2 = np.cumsum(np.concatenate([[0.0], rng.random(g2.size - 1)]))
        a, b = _synthetic(g1, v1), _synthetic(g2, v2)
        d = sup_distance(a, b, 1.0)
        fine = np.linspace(0, 1, 4001)
        d_fine = np.max(np.abs(np.interp(fine, g1, v1) - np.interp(fine, g2, v2)))
        step = max(np.diff(np.union1d(g1, g2)).max(), 1e-3)
        modulus = step * max(np.diff(v1).max() / np.diff(g1).min(),
                             np.diff(v2).max() / np.diff(g2).min())
        assert abs(d - d_fine) <= modulus

    def test_freeze_extension(self):
        # a trajectory that ends early extends constantly
        a = _synthetic([0.0, 0.5], [0.0, 1.0])
        b = _synthetic([0.0, 1.0], [0.0, 0.0])
        assert sup_distance(a, b, 1.0) == pytest.approx(1.0)


class TestDiscountedTotal:
    def test_unit_density_free_bm(self):
        # oracle: int_0^T e^{-s} ds = 1 - e^{-T}; tail bounded by e^{-T}
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=2)
        p = simulate_path(FREE_BM, 0.0, cfg, rng_for(2, 0))
        v, tail = discounted_total(evaluate(ONES, p, alpha=1.0))
        assert v == pytest.approx(1.0 - math.exp(-20.0), abs=1e-7)
        assert 0.0 < tail <= math.exp(-20.0) * 1.0000001

    def test_local_time_tail_rate(self):
        eps = 0.05
        spec = LocalTimePcaf(0.0, eps)
        cfg = SimConfig(dt=1e-2, horizon=5.0, seed=2)
        p = simulate_path(FREE_BM, 0.0, cfg, rng_for(2, 1))
        _, tail = discounted_total(evaluate(spec, p, 1.0))
        assert tail == pytest.approx(math.exp(-5.0) * 0.5 / eps)

    def test_tail_tolerance_flag(self):
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=2)
        p = simulate_path(FREE_BM, 0.0, cfg, rng_for(2, 3))
        traj = evaluate(ONES, p, alpha=1.0)
        with pytest.warns(UserWarning, match="extend the horizon"):
            discounted_total(traj, tol=1e-6)

    def test_event_rules_are_the_panel_formulas(self):
        # the exact piecewise-constant rules, spelled out on whole paths:
        # left value times panel width, the exponential panel weight, and
        # the discounted total as one np.dot
        spec = DensityPcaf(lambda x: np.exp(-np.asarray(x)), label="exp", rate_bound=None)
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=6)
        for model, x0 in ((FLIP_JUMP, 0.5), (KILLED_STATIC, 0.3037176527266371)):
            for i in range(40):
                p = simulate_path(model, x0, cfg, rng_for(6, i))
                t, fv = p.grid, spec.values(p.states)
                w = (np.exp(-1.5 * t[:-1]) - np.exp(-1.5 * t[1:])) / 1.5
                traj = evaluate(spec, p, 1.5)
                assert np.array_equal(traj.values[1:], np.cumsum(fv[:-1] * np.diff(t)))
                assert np.array_equal(traj.discounted[1:], np.cumsum(fv[:-1] * w))
                total, tail = discounted_final(spec, p, 1.5)
                assert total.hex() == float(np.dot(fv[:-1], w)).hex()
                expected_tail = 0.0 if p.killed else \
                    math.exp(-1.5 * 20.0) * float(fv.max()) / 1.5
                assert tail.hex() == expected_tail.hex()

    def test_fast_route_matches(self):
        cfg = SimConfig(dt=1e-3, horizon=5.0, seed=14)
        spec = DensityPcaf(lambda x: np.asarray(x) ** 2 + 0.1, label="q",
                           rate_bound=None)
        for model, x0 in ((FREE_BM, 0.2), (KILLED_STATIC, 0.3), (FLIP_JUMP, 1.0)):
            p = simulate_path(model, x0, cfg, rng_for(14, 5))
            v1, t1 = discounted_total(evaluate(spec, p, 1.0))
            v2, t2 = discounted_final(spec, p, 1.0)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert t1 == pytest.approx(t2, abs=1e-12)


class TestSpecs:
    def test_cantor_values_match_membership(self):
        spec = CantorPcaf(3)
        xs = np.linspace(-0.2, 1.2, 257)
        vals = spec.values(xs)
        from revuz_lab.measures import cantor_membership
        for x, v in zip(xs, vals):
            assert v == (1.5 ** 3 if cantor_membership(float(x), 3) else 0.0)

    def test_rate_bounds(self):
        assert LocalTimePcaf(0.0, 0.05).rate_bound == 10.0
        assert CantorPcaf(2).rate_bound == 2.25

    def test_of_measure_roundtrip(self):
        mu = measures.uniform_density(0.0, 1.0)
        spec = pcaf_of_measure(mu)
        assert spec.measure is mu
        with pytest.raises(ValueError):
            pcaf_of_measure(measures.DiracMeasure(0.0))  # needs eps
        lt = pcaf_of_measure(measures.DiracMeasure(0.25), eps=0.01)
        assert isinstance(lt, LocalTimePcaf)

    def test_config_literals(self):
        d = pcaf_from_config({"type": "density", "expr": {"name": "sin_shift", "n": 2}})
        assert isinstance(d, DensityPcaf)
        lt = pcaf_from_config({"type": "local_time", "x": 0.5, "eps": 0.02})
        assert (lt.x, lt.eps) == (0.5, 0.02)
        c = pcaf_from_config({"type": "cantor", "n": 4})
        assert c.n == 4
        with pytest.raises(ValueError):
            pcaf_from_config({"type": "martingale"})
