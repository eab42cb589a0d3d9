"""The block route of ``expect`` against an explicit per-path loop.

On the event models a library functional is evaluated a block of paths at
a time; every estimate must be bit-identical (``float.hex``) to the one
formed from a plain loop of ``rng_for`` + ``simulate_path`` + functional,
at path counts and worker counts that put block and slice boundaries
mid-block.
"""

import numpy as np
import pytest

from revuz_lab import estimators, kernels, measures, pcaf
from revuz_lab.estimators import (
    BLOCK,
    KappaWindow,
    MWindow,
    PointMass,
    discounted_sq_diff,
    discounted_square,
    expect,
    fukushima_residual,
    sup_sq_diff,
    terminal_value,
)
from revuz_lab.models import FLIP_JUMP, KILLED_STATIC
from revuz_lab.simulate import SimConfig, rng_for, simulate_path

N_PATHS = (1, BLOCK - 1, BLOCK + 1, 1000)
WORKERS = (1, 3)

UNIFORM = pcaf.pcaf_of_measure(measures.uniform_density(0.0, 1.0))
PERTURBED = pcaf.pcaf_of_measure(measures.perturbed(8))
BASE = pcaf.pcaf_of_measure(measures.perturbed_base())
SIN3 = pcaf.DensityPcaf(lambda x: np.sin(3 * np.asarray(x)) + 1.0, label="sin3",
                        rate_bound=2.0)
QUAD = pcaf.DensityPcaf(lambda x: np.asarray(x) ** 2 + 0.1, label="q", rate_bound=None)
# no rate bound and f(x) != f(-x): the tail bound reads every real state
EXP = pcaf.DensityPcaf(lambda x: np.exp(-np.asarray(x)), label="exp", rate_bound=None)

# (name, functional, horizon): horizon 20 gives flip rows of many panels
FUNCTIONALS = [
    ("discounted_square", discounted_square(UNIFORM, 1.0), 20.0),
    ("discounted_square_no_bound", discounted_square(QUAD, 0.7), 20.0),
    ("discounted_square_asymmetric", discounted_square(EXP, 1.0), 1.0),
    ("terminal_value", terminal_value(SIN3, 0.5), 1.0),
    ("terminal_value_at_horizon", terminal_value(SIN3, 1.0), 1.0),
    ("terminal_value_discounted", terminal_value(QUAD, 3.7, alpha=1.3), 20.0),
    ("sup_sq_diff", sup_sq_diff(PERTURBED, BASE, 1.0), 1.0),
    ("sup_sq_diff_inside", sup_sq_diff(QUAD, SIN3, 0.5), 1.0),
    ("discounted_sq_diff", discounted_sq_diff(PERTURBED, BASE, 1.0), 20.0),
    ("discounted_sq_diff_flip", discounted_sq_diff(QUAD, SIN3, 2.0), 20.0),
]

WEIGHTINGS = [
    ("static_m", KILLED_STATIC, MWindow((0.0, 1.0))),
    ("static_kappa", KILLED_STATIC, KappaWindow((0.2, 0.9))),
    ("static_point", KILLED_STATIC, PointMass(0.3)),
    ("flip_point", FLIP_JUMP, PointMass(0.5)),
]


def _bits(est):
    return est.mean.hex(), est.std_error.hex(), est.tail_bound.hex()


def _loop_estimate(model, weighting, per_path, cfg, n_paths):
    """The reference: one stream, one start draw, one Path per index."""
    draw, multiplier = estimators._start_sampler(model, weighting)
    vals = np.empty(n_paths)
    tails = np.empty(n_paths)
    for i in range(n_paths):
        rng = rng_for(cfg.seed, i)
        vals[i], tails[i] = per_path(simulate_path(model, draw(rng), cfg, rng))
    return estimators._estimate_from_values(vals, tails, cfg.seed, scale=multiplier)


@pytest.mark.parametrize("fname, functional, horizon", FUNCTIONALS,
                         ids=[f[0] for f in FUNCTIONALS])
@pytest.mark.parametrize("wname, model, weighting", WEIGHTINGS,
                         ids=[w[0] for w in WEIGHTINGS])
def test_library_functionals_match_the_path_loop(wname, model, weighting,
                                                 fname, functional, horizon):
    cfg = SimConfig(dt=1e-3, horizon=horizon, seed=11)
    for n_paths in N_PATHS:
        ref = _bits(_loop_estimate(model, weighting, functional.per_path, cfg, n_paths))
        for workers in WORKERS:
            got = _bits(expect(model, weighting, functional, cfg, n_paths, workers))
            assert got == ref, (n_paths, workers)


def _static_residual_loop(mu, x, cfg, n_paths, alpha=1.0):
    """The per-path martingale residual on the static model, spelled out."""
    u = kernels.Potential(KILLED_STATIC, alpha, mu)
    spec = pcaf.pcaf_of_measure(mu)
    vals = np.empty(n_paths)
    for i in range(n_paths):
        path = simulate_path(KILLED_STATIC, x, cfg, rng_for(cfg.seed, i))
        uv = np.array([u(float(s)) for s in path.states])
        integral = float(np.sum(uv[:-1] * np.diff(path.grid)))
        terminal = 0.0 if path.killed else float(uv[-1])
        a_end = float(pcaf.evaluate(spec, path, alpha=0.0).values[-1])
        vals[i] = terminal - float(uv[0]) - alpha * integral + a_end
    return estimators._estimate_from_values(vals, np.zeros(n_paths), cfg.seed)


# at 0.3037...^-2, numpy's vectorized pow and Python's differ in the last
# bit on some CPUs; the block must reuse the rate of the lifetime draw
@pytest.mark.parametrize("x", [0.5, 0.3037176527266371])
@pytest.mark.parametrize("n_paths", N_PATHS)
def test_static_residual_matches_the_path_loop(n_paths, x):
    mu = measures.perturbed(8)
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=4)
    ref = _bits(_static_residual_loop(mu, x, cfg, n_paths))
    for workers in WORKERS:
        got = fukushima_residual(KILLED_STATIC, mu, x, 1.0, cfg, n_paths, workers=workers)
        assert _bits(got) == ref, workers


def test_event_models_build_no_paths_for_library_functionals(monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("the block route builds no Path objects")

    monkeypatch.setattr(estimators, "simulate_path", no_paths)
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=2)
    expect(KILLED_STATIC, MWindow((0.0, 1.0)), sup_sq_diff(PERTURBED, BASE, 1.0), cfg, 300)
    expect(FLIP_JUMP, PointMass(0.5), terminal_value(SIN3, 1.0), cfg, 300, workers=2)


@pytest.mark.parametrize("model, weighting", [
    (KILLED_STATIC, MWindow((0.0, 1.0))),
    (FLIP_JUMP, PointMass(0.5)),
])
def test_user_lambda_keeps_the_path_route(model, weighting):
    cfg = SimConfig(dt=1e-3, horizon=1.0, seed=3)

    def path_end(path):
        return path.grid[-1], 0.0

    ref = _loop_estimate(model, weighting, path_end, cfg, 300)
    assert _bits(expect(model, weighting, path_end, cfg, 300, workers=2)) == _bits(ref)
