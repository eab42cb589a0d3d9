"""The worker layer: forked slices, one re-keyed stream per slice.

Forking is forced by setting ``estimators._FORK_MIN_S`` to 0, and the CPU
count is raised so that every worker count gets its own slice layout.
The per-path value and tail arrays must match, bit for bit (``float.hex``),
the in-process run at workers=1 and, where written out here, a plain
``rng_for`` loop.  No call may leave a child process behind.
"""

import itertools
import math
import os
import signal
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from revuz_lab import estimators, measures, pcaf
from revuz_lab.estimators import (
    BLOCK,
    MWindow,
    Nu0Weighting,
    PointMass,
    discounted_square,
    expect,
    hitting_laplace_check,
    nu0_expect,
    sup_sq_diff,
    terminal_value,
)
from revuz_lab.models import ABSORBED_BM, FLIP_JUMP, FREE_BM, KILLED_STATIC
from revuz_lab.simulate import SimConfig, Streams, rng_for, simulate_path

WORKERS = (1, 2, 3, 16)
UNIFORM = pcaf.pcaf_of_measure(measures.uniform_density(0.0, 1.0))
UNIFORM12 = pcaf.pcaf_of_measure(measures.uniform_density(1.0, 2.0))
HALF = pcaf.pcaf_of_measure(measures.uniform_density(0.0, 0.5))
SIN3 = pcaf.DensityPcaf(lambda x: np.sin(3 * np.asarray(x)) + 1.0, label="sin3",
                        rate_bound=2.0)
NU0 = Nu0Weighting(node_count=6, inner_paths=4, weight_draws=2000, boundary_boost=3)


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


@pytest.fixture
def forked(monkeypatch):
    """Fork on every multi-slice call, one slice per worker up to 16, and
    record each call's (values, tails) as hex strings.  The test must leave
    no child process and no pipe open, and must end within 120 s."""
    monkeypatch.setattr(estimators, "_FORK_MIN_S", 0.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    calls = []
    inner = estimators._mc_over_indices

    def recording(*args):
        vals, tails = inner(*args)
        calls.append(([v.hex() for v in vals.tolist()], [t.hex() for t in tails.tolist()]))
        return vals, tails

    monkeypatch.setattr(estimators, "_mc_over_indices", recording)
    fds = _open_fds()

    def timeout(signum, frame):
        raise TimeoutError("a worker call did not finish")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        yield calls
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _no_children()
    assert _open_fds() == fds


# name -> call(workers); each runs one _mc_over_indices
CALLS = {
    "static_block": lambda w: expect(KILLED_STATIC, MWindow((0.0, 1.0)),
                                     discounted_square(UNIFORM),
                                     SimConfig(horizon=20.0, seed=3), 2 * BLOCK + 7, w),
    "flip_block": lambda w: expect(FLIP_JUMP, PointMass(0.5), terminal_value(SIN3, 1.0),
                                   SimConfig(horizon=1.0, seed=4), 600, w),
    "flip_path": lambda w: expect(FLIP_JUMP, MWindow((-1.0, 1.0)),
                                  lambda p: (float(p.grid.size), p.states[-1]),
                                  SimConfig(horizon=2.0, seed=5), 300, w),
    "free_bm": lambda w: expect(FREE_BM, MWindow((-1.0, 2.0)), sup_sq_diff(UNIFORM, HALF, 1.0),
                                SimConfig(horizon=1.0, seed=6), 80, w),
    "absorbed": lambda w: expect(ABSORBED_BM, MWindow((0.0, 3.0)),
                                 discounted_square(UNIFORM12),
                                 SimConfig(dt=1e-2, horizon=5.0, seed=7), 60, w),
    "hitting": lambda w: hitting_laplace_check(FREE_BM, 0.0, 0.5,
                                               SimConfig(dt=1e-2, horizon=5.0, seed=8), 50, w),
    "nu0": lambda w: nu0_expect(ABSORBED_BM, discounted_square(UNIFORM12),
                                SimConfig(dt=1e-2, horizon=5.0, seed=9), NU0, workers=w),
    "nu0_through_expect": lambda w: expect(ABSORBED_BM, NU0, discounted_square(UNIFORM12),
                                           SimConfig(dt=1e-2, horizon=5.0, seed=9), 0, w),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_arrays_match_at_every_worker_count(forked, name):
    for w in WORKERS:
        CALLS[name](w)
        _no_children()
    assert len(forked) == len(WORKERS)
    for w, arrays in zip(WORKERS[1:], forked[1:]):
        assert arrays == forked[0], (name, w)


def test_slices_larger_than_a_pipe_buffer(forked):
    # 4200 paths send 67 200 bytes, more than a 64 KiB pipe holds: a child
    # that kept a sibling's write end open would stall the parent's reads
    for w in (1, 3):
        expect(KILLED_STATIC, MWindow((0.0, 1.0)), discounted_square(UNIFORM),
               SimConfig(horizon=20.0, seed=3), 3 * 4200, w)
    assert forked[1] == forked[0]


def test_free_bm_values_are_the_rng_for_loop(forked):
    cfg = SimConfig(horizon=1.0, seed=6)
    functional = sup_sq_diff(UNIFORM, HALF, 1.0)
    CALLS["free_bm"](3)
    ref = []
    for i in range(80):
        rng = rng_for(cfg.seed, i)
        x0 = -1.0 + 3.0 * rng.random()
        ref.append(functional(simulate_path(FREE_BM, x0, cfg, rng))[0].hex())
    assert forked[0][0] == ref


def test_nu0_inner_paths_keep_their_node_streams(forked):
    cfg = SimConfig(dt=1e-2, horizon=5.0, seed=9)
    CALLS["nu0"](2)
    glx, _ = np.polynomial.legendre.leggauss(NU0.node_count)
    nodes = (0.5 * math.sqrt(NU0.x_max) * (glx + 1.0)) ** 2
    functional = discounted_square(UNIFORM12)
    ref = []
    for k, x in enumerate(nodes):
        n = NU0.inner_paths * (NU0.boundary_boost if x < NU0.boundary_x else 1)
        for j in range(n):
            rng = rng_for(cfg.seed, (k + 1) * estimators._STAGE + j)
            ref.append(functional(simulate_path(ABSORBED_BM, float(x), cfg, rng))[0].hex())
    assert forked[0][0] == ref


def test_calls_from_threads_match(forked):
    base = CALLS["static_block"](1)
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = [f.result() for f in [pool.submit(CALLS["static_block"], w) for w in (2, 3)]]
    _no_children()
    assert forked[1] == forked[0] and forked[2] == forked[0]
    assert got == [base, base]


def _parent_only(exc, after=0):
    """A per-path functional that raises exc in the calling process after
    ``after`` paths, and in no child."""
    parent, seen = os.getpid(), [0]

    def functional(path):
        seen[0] += 1
        if os.getpid() == parent and seen[0] > after:
            raise exc
        return 0.0, 0.0

    return functional


def _children_only(exc):
    parent = os.getpid()

    def functional(path):
        if os.getpid() != parent:
            raise exc
        return 0.0, 0.0

    return functional


def _flip(functional, workers=2, n_paths=4 * BLOCK):
    return expect(FLIP_JUMP, PointMass(0.5), functional, SimConfig(horizon=1.0, seed=1),
                  n_paths, workers)


def test_child_exception_surfaces_with_its_type(forked):
    with pytest.raises(ValueError, match="bad path in a child"):
        _flip(_children_only(ValueError("bad path in a child")), workers=3)
    _no_children()


def test_unpicklable_child_exception_becomes_runtime_error(forked):
    class Local(Exception):  # a local class does not pickle
        pass

    with pytest.raises(RuntimeError, match="Local"):
        _flip(_children_only(Local("no pickle")))
    _no_children()


@pytest.mark.parametrize("exc", [ValueError("parent slice"), KeyboardInterrupt()])
def test_parent_failure_kills_and_reaps_children(forked, exc):
    # slice 0 holds 2 blocks; the first runs before the fork, the failure
    # comes in the second, while the 15 children run
    with pytest.raises(type(exc)):
        _flip(_parent_only(exc, after=BLOCK + 1), workers=16, n_paths=32 * BLOCK)
    _no_children()


@pytest.mark.parametrize("first_block_s, forks", [(1e-6, False), (1.0, True)])
def test_fork_only_when_the_rest_of_the_call_is_long(monkeypatch, first_block_s, forks):
    # a fake clock fixes the timed first block: 64 paths of 1024 at 16 slices
    ticks = itertools.cycle([0.0, first_block_s])
    monkeypatch.setattr(estimators.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    parent = os.getpid()
    est = _flip(lambda path: (float(os.getpid() != parent), 0.0), workers=16, n_paths=1024)
    _no_children()
    assert est.mean == (960 / 1024 if forks else 0.0)


@pytest.mark.parametrize("name, fail_on", [("fork", 2), ("pipe", 3)])
def test_failure_beside_a_fork_leaks_nothing(forked, monkeypatch, name, fail_on):
    # the second fork or the third pipe fails with children running
    real, parent, count = getattr(os, name), os.getpid(), [0]

    def flaky(*args):
        if os.getpid() == parent:
            count[0] += 1
            if count[0] == fail_on:
                raise OSError(f"injected {name} failure")
        return real(*args)

    monkeypatch.setattr(os, name, flaky)
    with pytest.raises(OSError, match="injected"):
        _flip(lambda path: (0.0, 0.0), workers=4)


def test_interrupt_right_after_a_fork_still_reaps_the_child(forked, monkeypatch):
    # the signal arrives before the parent can record the child's pid
    real = os.fork

    def fork_then_interrupt():
        pid = real()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        _flip(lambda path: (0.0, 0.0), workers=4)


class TestStreams:
    @staticmethod
    def _draws(rng):
        return (rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes()
                + rng.standard_normal(5).tobytes() + rng.random(4).tobytes()
                + rng.exponential(2.0, 3).tobytes()
                + rng.integers(0, 2**32, 1, dtype=np.uint32).tobytes())

    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_rekeyed_draws_are_rng_for(self, seed):
        streams = Streams(seed)
        order = [5, 0, 2**64 - 1, 5, 3, 2**32 + 1, 0, 3]
        for i in order:
            assert self._draws(streams.at(i)) == self._draws(rng_for(seed, i)), i

    def test_rekey_after_a_half_used_word(self):
        # one uint32 leaves the other half of a 64-bit word buffered
        streams = Streams(4)
        streams.at(1).integers(0, 2**32, 1, dtype=np.uint32)
        assert self._draws(streams.at(2)) == self._draws(rng_for(4, 2))

    @pytest.mark.parametrize("index", [-1, 2**64, 5 + 2**64])
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(ValueError):
            Streams(0).at(index)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            Streams(seed)
