import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from revuz_lab.models import ABSORBED_BM, FLIP_JUMP, FREE_BM, KILLED_STATIC, ExitKind
from revuz_lab.simulate import (
    SimConfig,
    _chunk_sizes,
    _walk,
    first_hitting_time,
    rng_for,
    simulate_path,
)


class TestRngFor:
    def test_same_key_reproduces(self):
        a = rng_for(7, 0).standard_normal(100)
        b = rng_for(7, 0).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = rng_for(7, 0).standard_normal(1)
        b = rng_for(7, 1).standard_normal(1)
        assert a[0] != b[0]

    def test_consecutive_streams_uncorrelated(self):
        # oracle: empirical correlation of paired first draws, 4/sqrt(n) band
        n = 10_000
        first = np.array([rng_for(3, i).standard_normal(1)[0] for i in range(n + 1)])
        corr = np.corrcoef(first[:-1], first[1:])[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            rng_for(0, -1)

    @pytest.mark.parametrize("seed, index", [
        (0, 2**64), (0, 5 + 2**64),
        (-1, 0), (2**64, 0), (5 + 2**64, 0),
    ])
    def test_out_of_range_key_rejected(self, seed, index):
        # masking to 64 bits would alias these onto in-range streams
        with pytest.raises(ValueError):
            rng_for(seed, index)

    def test_key_words_give_the_philox_key_stream(self):
        for seed, index in ((0, 0), (5, 7), (2**64 - 1, 2**64 - 1)):
            ref = np.random.Philox(key=(seed << 64) | index)
            rng = rng_for(seed, index)
            got, want = rng.bit_generator.state["state"], ref.state["state"]
            assert np.array_equal(got["key"], want["key"])
            assert np.array_equal(got["counter"], want["counter"])
            assert np.array_equal(rng.standard_normal(8),
                                  np.random.Generator(ref).standard_normal(8))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=1.0, horizon=0.5)

    @pytest.mark.parametrize("horizon, dt", [
        (0.05, 1e-4), (1.0, 2e-4), (20.0, 1e-3), (0.5, 1e-2), (15.0, 2e-3),
        (0.3, 0.1), (0.7, 0.1), (1.0, 1.0),
    ])
    def test_whole_step_horizons_accepted(self, horizon, dt):
        # 0.3 / 0.1 and 0.7 / 0.1 are 3 and 7 only up to rounding
        assert SimConfig(dt=dt, horizon=horizon).horizon == horizon

    @pytest.mark.parametrize("horizon, dt", [
        (1.0, 0.3), (1.0, 0.4), (0.0015, 1e-3), (20.0001, 1e-3),
        (math.inf, 1e-3), (1.0, math.nan), (math.nan, 1e-3),
    ])
    def test_partial_step_horizons_rejected(self, horizon, dt):
        # no grid of whole dt steps ends at these horizons
        with pytest.raises(ValueError):
            SimConfig(dt=dt, horizon=horizon)


class TestFreeBm:
    def test_moments(self):
        # Brownian moments at the horizon over 1e4 paths
        cfg = SimConfig(dt=1e-2, horizon=2.0, seed=21)
        ends = np.array([
            simulate_path(FREE_BM, 0.0, cfg, rng_for(21, i)).states[-1]
            for i in range(10_000)
        ])
        se_mean = ends.std(ddof=1) / 100.0
        assert abs(ends.mean()) <= 3.0 * se_mean
        # variance of the sample variance ~ 2 sigma^4 / n
        se_var = math.sqrt(2.0 / 10_000) * 2.0
        assert abs(ends.var(ddof=1) - 2.0) <= 3.0 * se_var

    def test_alive_and_uniform(self):
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=0)
        p = simulate_path(FREE_BM, 0.3, cfg, rng_for(0, 0))
        assert p.exit is ExitKind.ALIVE and math.isinf(p.zeta)
        assert p.uniform_dt == cfg.dt
        assert p.grid.size == 1001 and p.states[0] == 0.3

    def test_m_symmetry_smoke(self):
        # <P_t f, g> = <f, P_t g> for a Gaussian pair, windowed Monte Carlo
        cfg = SimConfig(dt=1e-2, horizon=0.5, seed=9)
        f = lambda x: np.exp(-((x - 0.3) ** 2))
        g = lambda x: np.exp(-((x + 0.2) ** 2) / 2.0)
        lo, hi = -6.0, 6.0
        n = 20_000
        lhs = np.empty(n)
        rhs = np.empty(n)
        for i in range(n):
            rng = rng_for(9, i)
            x0 = lo + (hi - lo) * rng.random()
            end = simulate_path(FREE_BM, x0, cfg, rng).states[-1]
            lhs[i] = f(end) * g(x0)
            rhs[i] = f(x0) * g(end)
        diff = lhs - rhs
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 4.0 * se


class TestFlip:
    def test_two_states_and_rate(self):
        # first holding times are Exp(1); later gaps in a fixed window are
        # inspection-biased, so only the first one is tested (censored at T,
        # which costs e^{-10} in the mean)
        cfg = SimConfig(dt=1e-3, horizon=10.0, seed=4)
        first = np.empty(10_000)
        for i in range(first.size):
            p = simulate_path(FLIP_JUMP, 1.0, cfg, rng_for(4, i))
            assert set(np.unique(p.states)) <= {1.0, -1.0}
            assert p.piecewise_constant
            first[i] = p.grid[1] if p.grid.size > 2 else cfg.horizon
        se = first.std(ddof=1) / math.sqrt(first.size)
        assert abs(first.mean() - 1.0) <= 3.0 * se + 1e-3
        p_hat = np.mean(first <= 1.0)
        assert abs(p_hat - (1.0 - math.exp(-1.0))) <= 3.0 * math.sqrt(0.25 / first.size)

    def test_dt_invariance(self):
        # event-driven law: halving dt changes nothing at all
        a = simulate_path(FLIP_JUMP, 0.5, SimConfig(dt=1e-3, horizon=5.0, seed=8),
                          rng_for(8, 3))
        b = simulate_path(FLIP_JUMP, 0.5, SimConfig(dt=5e-4, horizon=5.0, seed=8),
                          rng_for(8, 3))
        assert np.array_equal(a.grid, b.grid) and np.array_equal(a.states, b.states)


class TestKilledStatic:
    def test_survival_curve(self):
        # P(zeta > t) = e^{-4t} at x = 0.5 over 1e4 paths
        cfg = SimConfig(dt=1e-3, horizon=5.0, seed=13)
        zetas = np.array([
            simulate_path(KILLED_STATIC, 0.5, cfg, rng_for(13, i)).zeta
            for i in range(10_000)
        ])
        for t in (0.1, 0.25, 0.5):
            p_hat = np.mean(zetas > t)
            p = math.exp(-4.0 * t)
            se = math.sqrt(p * (1 - p) / zetas.size)
            assert abs(p_hat - p) <= 3.5 * se

    def test_exit_classification(self):
        cfg = SimConfig(dt=1e-3, horizon=100.0, seed=1)
        p = simulate_path(KILLED_STATIC, 0.2, cfg, rng_for(1, 0))
        assert p.exit is ExitKind.KILLED_BY_KAPPA
        assert p.grid[-1] == p.zeta
        assert np.all(p.states == 0.2)

    def test_dt_invariance(self):
        a = simulate_path(KILLED_STATIC, 0.5, SimConfig(dt=1e-3, horizon=5.0, seed=2),
                          rng_for(2, 0))
        b = simulate_path(KILLED_STATIC, 0.5, SimConfig(dt=5e-4, horizon=5.0, seed=2),
                          rng_for(2, 0))
        assert a.zeta == b.zeta


class TestAbsorbedBm:
    def test_exit_state_is_boundary(self):
        cfg = SimConfig(dt=1e-3, horizon=5.0, seed=6)
        p = simulate_path(ABSORBED_BM, 0.1, cfg, rng_for(6, 0))
        if p.killed:
            assert p.exit is ExitKind.CONTINUOUS_EXIT
            assert p.states[-1] == 0.0
            assert p.grid[-1] == p.zeta

    def test_bridge_corrected_killing_probability(self):
        # empirical P_x(zeta <= t) vs the analytic 2 Phi(-x / sqrt(t)) at
        # dt = 1e-3, within 3 standard errors + 0.005 discretization allowance
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=17)
        x, t = 0.5, 1.0
        n = 20_000
        killed = sum(
            simulate_path(ABSORBED_BM, x, cfg, rng_for(17, i)).killed
            for i in range(n)
        )
        p_hat = killed / n
        p = 2.0 * norm.cdf(-x / math.sqrt(t))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3.0 * se + 0.005

    def test_sign_change_detection_underestimates(self):
        # without the bridge correction the same streams must kill no more
        # often (missed intra-step excursions only lose kills)
        base = SimConfig(dt=1e-2, horizon=1.0, seed=23, bridge_correction=True)
        off = SimConfig(dt=1e-2, horizon=1.0, seed=23, bridge_correction=False)
        n = 3000
        k_on = sum(simulate_path(ABSORBED_BM, 0.3, base, rng_for(23, i)).killed
                   for i in range(n))
        k_off = sum(simulate_path(ABSORBED_BM, 0.3, off, rng_for(23, i)).killed
                    for i in range(n))
        assert k_off < k_on


class TestDomainErrors:
    def test_start_outside(self):
        cfg = SimConfig()
        with pytest.raises(ValueError):
            simulate_path(ABSORBED_BM, -1.0, cfg, rng_for(0, 0))
        with pytest.raises(ValueError):
            simulate_path(KILLED_STATIC, 1.5, cfg, rng_for(0, 0))


class TestFirstHitting:
    def test_at_level_is_zero(self):
        assert first_hitting_time(1.0, 1.0, SimConfig(), rng_for(0, 0)) == 0.0

    def test_laplace_transform(self):
        # E_0[e^{-sigma_1}] = e^{-sqrt 2} within Monte Carlo noise
        cfg = SimConfig(dt=1e-3, horizon=20.0, seed=31)
        n = 4000
        vals = np.empty(n)
        for i in range(n):
            s = first_hitting_time(0.0, 1.0, cfg, rng_for(31, i))
            vals[i] = 0.0 if math.isinf(s) else math.exp(-s)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - math.exp(-math.sqrt(2.0))) <= 3.5 * se + 1e-3


def _chunk_ends(d, cfg):
    """Step counts at which the walk from distance d finishes a chunk."""
    n = round(cfg.horizon / cfg.dt)
    return list(itertools.accumulate(_chunk_sizes(d, cfg.dt, n)))


def _reference_death(d, cfg, rng):
    """Death time of the walk from d, drawn by hand: every chunk's z, u, v in
    that order, then the crossing rule over the concatenated path."""
    n = round(cfg.horizon / cfg.dt)
    draws = [(rng.standard_normal(k), rng.random(k), rng.random(k))
             for k in _chunk_sizes(d, cfg.dt, n)]
    z, u, v = (np.concatenate(parts) for parts in zip(*draws))
    x = np.concatenate([[d], d + math.sqrt(cfg.dt) * np.cumsum(z)])
    if cfg.bridge_correction:
        fired = np.log(u) < -2.0 * x[:-1] * x[1:] / cfg.dt
    else:
        fired = x[1:] <= 0.0
    hits = np.flatnonzero(fired)
    if hits.size == 0:
        return math.inf, n
    return (hits[0] + v[hits[0]]) * cfg.dt, int(hits[0])


class TestWalker:
    # first chunk: the smallest power of two >= 4 d^2 / dt (0.4, 360 and
    # 36000 at dt = 1e-3), clipped to [64, 4096]
    @pytest.mark.parametrize("d, first", [(0.01, 64), (0.3, 512), (3.0, 4096)])
    def test_chunk_schedule(self, d, first):
        for n in (1, 63, 64, 1000, 4097, 20_000, 123_457):
            sizes = list(_chunk_sizes(d, 1e-3, n))
            assert sum(sizes) == n
            assert sizes[0] == min(first, n)
            # each chunk doubles the one before, capped at 4096; the last is cut
            for prev, k in zip(sizes[:-2], sizes[1:-1]):
                assert k == min(2 * prev, 4096)
            if len(sizes) > 1:
                assert 0 < sizes[-1] <= min(2 * sizes[-2], 4096)

    @pytest.mark.parametrize("bridge", [True, False])
    def test_death_time_matches_hand_drawn_reference(self, bridge):
        # d = 0.1 starts with a 64-step chunk; over 1000 streams a few paths
        # die on the first step of a later chunk, whose crossing test pairs
        # the last state of one chunk with the first of the next
        cfg = SimConfig(dt=1e-3, horizon=2.0, seed=5, bridge_correction=bridge)
        later_starts = set(_chunk_ends(0.1, cfg)[:-1])
        straddled = 0
        for i in range(1000):
            _, stop, zeta = _walk(0.1, 2000, cfg, rng_for(5, i))
            want, want_stop = _reference_death(0.1, cfg, rng_for(5, i))
            assert zeta == want and stop == want_stop, i
            straddled += stop in later_starts
        assert straddled >= 3

    @pytest.mark.parametrize("x0, horizon", [(0.05, 2.0), (0.3, 4.0)])
    def test_killing_law_at_chunk_ends(self, x0, horizon):
        # P_x(zeta <= t) = 2 Phi(-x / sqrt(t)) where one chunk hands over to
        # the next, within 3 standard errors + 0.005 as in the bridge test
        cfg = SimConfig(dt=1e-3, horizon=horizon, seed=37)
        n = 20_000
        zetas = np.array([simulate_path(ABSORBED_BM, x0, cfg, rng_for(37, i)).zeta
                          for i in range(n)])
        for end in _chunk_ends(x0, cfg):
            t = end * cfg.dt
            p = 2.0 * norm.cdf(-x0 / math.sqrt(t))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(zetas <= t) - p) <= 3.0 * se + 0.005, t

    @pytest.mark.parametrize("bridge", [True, False])
    @pytest.mark.parametrize("x0, level", [(0.2, 0.5), (0.2, -0.1), (-1.0, -0.7)])
    def test_hitting_time_is_the_absorbed_lifetime(self, x0, level, bridge):
        # one walker: hitting `level` from x0 is absorption from |level - x0|
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=3, bridge_correction=bridge)
        zetas = []
        for i in range(200):
            sigma = first_hitting_time(x0, level, cfg, rng_for(3, i))
            zeta = simulate_path(ABSORBED_BM, abs(level - x0), cfg, rng_for(3, i)).zeta
            assert sigma == zeta, i
            zetas.append(zeta)
        assert 0 < sum(math.isinf(z) for z in zetas) < len(zetas)
