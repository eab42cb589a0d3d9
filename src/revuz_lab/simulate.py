"""Reproducible path simulation for the four models.

Every path owns a counter-based random stream derived from
``(seed, path_index)`` through a Philox key, so a path is a pure function
of those two integers: simulations reproduce bit-for-bit regardless of
scheduling or worker count.  Loops over many paths take their streams from
one ``Streams`` generator, re-keyed to each path's stream in turn.

The two event models (static, flip) can also be simulated a block of
indices at a time (``simulate_block``): each path still draws from its own
stream, and the block holds the paths as padded rows that the PCAF layer
evaluates all at once.  Row r of a block is the path ``simulate_path``
builds from the same stream, bit for bit.

Discretization notes
--------------------
* Brownian paths use exact Gaussian increments on a uniform grid.
* Absorption at the origin uses the Brownian-bridge correction by default:
  between consecutive positive states a boundary hit fires with probability
  exp(-2 x_i x_{i+1} / dt) (which is >= 1 whenever the endpoint already
  crossed, so plain sign-change detection is subsumed).  The death time is
  then placed uniformly inside the offending step.
* Absorbed paths and ``first_hitting_time`` (from |level - x0|) share one
  walker over the distance to the boundary, d + sqrt(dt) cumsum(z).  It
  draws in chunks, each taking its increments z, crossing uniforms u and
  death-time uniforms v in that order, and stops after the chunk in which a
  step fires.  The first chunk is the smallest power of two >= 4 d^2 / dt
  (a path has then hit with chance ~0.62) clipped to [64, 4096]; later ones
  double up to 4096, and the last is cut at the horizon.
* The flip process is event-driven and exact; the static process draws its
  exponential lifetime directly.  Halving dt changes neither law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from revuz_lab.models import ExitKind, ProcessModel

_KEY_LIMIT = 1 << 64
_CHUNK = 4096

EVENT_MODELS = ("killed_static", "flip_jump")


def _key_word(value, what: str) -> int:
    value = int(value)
    if not 0 <= value < _KEY_LIMIT:
        raise ValueError(f"{what} {value} outside [0, 2**64)")
    return value


def rng_for(seed: int, path_index: int) -> np.random.Generator:
    """The Philox stream owned by path ``path_index`` under ``seed``.

    Distinct (seed, index) pairs in [0, 2**64) map to distinct 128-bit
    Philox keys (key = seed * 2**64 + index), giving statistically
    independent streams; the same pair always reproduces the same draws.
    """
    seed = _key_word(seed, "seed")
    key = (seed << 64) | _key_word(path_index, "path index")
    return np.random.Generator(np.random.Philox(key=key))


class Streams:
    """One generator that ``at(i)`` re-keys to the fresh state of
    ``rng_for(seed, i)``: the same draws, byte for byte, for a fraction of
    the cost of a new Philox.  Take one path's draws before the next ``at``.
    """

    def __init__(self, seed: int):
        self.rng = rng_for(seed, 0)
        self._key = [0, int(seed)]
        zeros = (0, 0, 0, 0)
        self._state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": self._key},
                       "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def at(self, path_index: int) -> np.random.Generator:
        self._key[0] = _key_word(path_index, "path index")
        self.rng.bit_generator.state = self._state
        return self.rng


@dataclass(frozen=True)
class SimConfig:
    """Grid and reproducibility parameters shared by a batch of paths."""

    dt: float = 1e-3
    horizon: float = 20.0
    bridge_correction: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.dt <= self.horizon < math.inf:
            raise ValueError(f"need 0 < dt <= horizon < inf, got {self.dt}, {self.horizon}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"horizon {self.horizon} is not a whole number of dt {self.dt} steps")


@dataclass
class Path:
    """A simulated trajectory up to min(lifetime, horizon).

    ``grid`` and ``states`` stop at the death time when the path dies
    inside the horizon (the final state is then the left limit at death:
    the boundary value 0.0 for the absorbed model, the resting point for
    the static model).  ``zeta`` is the lifetime, ``inf`` when it exceeds
    the horizon.  Consumers freeze additive functionals at ``zeta``; the
    cemetery is never represented by explicit state slots.

    ``piecewise_constant`` marks event-driven paths (flip, static) whose
    states hold on [t_i, t_{i+1}); diffusion paths interpolate.
    ``uniform_dt`` is set when the grid is the shared uniform grid, letting
    consumers skip per-path diff/exp work.
    """

    grid: np.ndarray
    states: np.ndarray
    zeta: float
    exit: ExitKind
    horizon: float
    piecewise_constant: bool = False
    uniform_dt: float | None = None

    @property
    def killed(self) -> bool:
        return self.exit is not ExitKind.ALIVE


def simulate_path(
    model: ProcessModel, x0: float, cfg: SimConfig, rng: np.random.Generator
) -> Path:
    """One path of the model from x0, consuming draws from ``rng`` only."""
    model.require_inside(x0)
    if model.name == "free_bm":
        return _free_bm_path(x0, cfg, rng)
    if model.name == "absorbed_bm":
        return _absorbed_bm_path(x0, cfg, rng)
    if model.name == "flip_jump":
        return _flip_path(x0, cfg, rng)
    if model.name == "killed_static":
        return _static_path(model, x0, cfg, rng)
    raise ValueError(f"unknown model {model.name}")


_grid_cache: dict[tuple[int, float], np.ndarray] = {}


def _uniform_grid(cfg: SimConfig) -> np.ndarray:
    n = int(round(cfg.horizon / cfg.dt))
    key = (n, cfg.dt)
    grid = _grid_cache.get(key)
    if grid is None:
        grid = np.arange(n + 1) * cfg.dt
        grid.setflags(write=False)
        if len(_grid_cache) > 16:
            _grid_cache.clear()
        _grid_cache[key] = grid
    return grid


def _free_bm_path(x0, cfg, rng) -> Path:
    grid = _uniform_grid(cfg)
    n = grid.size - 1
    states = np.empty(n + 1)
    states[0] = x0
    np.cumsum(rng.standard_normal(n), out=states[1:])
    states[1:] *= math.sqrt(cfg.dt)
    states[1:] += x0
    return Path(grid, states, math.inf, ExitKind.ALIVE, cfg.horizon,
                uniform_dt=cfg.dt)


def _chunk_sizes(d: float, dt: float, n: int):
    """Lazily, the chunk lengths of an n-step walk from distance d."""
    first = 1 << (math.ceil(min(4.0 * d * d / dt, _CHUNK)) - 1).bit_length()
    k = min(_CHUNK, max(64, first))
    while n > 0:
        yield min(k, n)
        n -= k
        k = min(2 * k, _CHUNK)


def _walk(d: float, n: int, cfg: SimConfig, rng) -> tuple[np.ndarray, int, float]:
    """(states, stop, zeta) of the walk from d > 0: states[: stop + 1] are
    filled, and a walk that outlives the n steps has stop = n, zeta = inf."""
    sqdt = math.sqrt(cfg.dt)
    states = np.empty(n + 1)
    states[0] = d
    done = 0
    for k in _chunk_sizes(d, cfg.dt, n):
        z = rng.standard_normal(k)
        u = rng.random(k)
        v = rng.random(k)
        seg = states[done : done + k + 1]
        z.cumsum(out=seg[1:])
        seg[1:] *= sqdt
        seg[1:] += seg[0]
        if cfg.bridge_correction:
            # hit prob exp(-2 a b / dt); >= 1 when the endpoint crossed
            fired = np.log(u) < (-2.0 * seg[:-1] * seg[1:] / cfg.dt)
        else:
            fired = seg[1:] <= 0.0
        idx = int(fired.argmax())
        if fired[idx]:
            return states, done + idx, (done + idx + float(v[idx])) * cfg.dt
        done += k
    return states, n, math.inf


def _absorbed_bm_path(x0, cfg, rng) -> Path:
    full = _uniform_grid(cfg)
    states, stop, zeta = _walk(x0, full.size - 1, cfg, rng)
    if math.isinf(zeta):
        return Path(full, states, math.inf, ExitKind.ALIVE, cfg.horizon,
                    uniform_dt=cfg.dt)
    grid = np.concatenate([full[: stop + 1], [zeta]])
    states = np.concatenate([states[: stop + 1], [0.0]])
    return Path(grid, states, zeta, ExitKind.CONTINUOUS_EXIT, cfg.horizon)


def _flip_times(horizon: float, rng: np.random.Generator) -> list[float]:
    """0 and the unit-rate flip times inside (0, horizon), drawn 64 at a time."""
    times = [0.0]
    t = 0.0
    while t < horizon:
        for tau in rng.exponential(1.0, 64):
            t += tau
            if t >= horizon:
                break
            times.append(t)
    return times


def _static_lifetime(model, x0, horizon, rng) -> tuple[float, float]:
    """(killing rate g(x0), lifetime); the lifetime is inf beyond the horizon."""
    rate = model.killing_density(x0)
    zeta = rng.exponential(1.0 / rate)
    return rate, (zeta if zeta < horizon else math.inf)


def _flip_path(x0, cfg, rng) -> Path:
    T = cfg.horizon
    grid = np.array(_flip_times(T, rng) + [T])
    states = np.empty(grid.size)
    states[0:-1:2] = x0
    states[1:-1:2] = -x0
    states[-1] = states[-2]  # state holding at the horizon
    return Path(grid, states, math.inf, ExitKind.ALIVE, cfg.horizon,
                piecewise_constant=True)


def _static_path(model, x0, cfg, rng) -> Path:
    _, zeta = _static_lifetime(model, x0, cfg.horizon, rng)
    if math.isinf(zeta):
        grid = np.array([0.0, cfg.horizon])
        return Path(grid, np.array([x0, x0]), math.inf, ExitKind.ALIVE,
                    cfg.horizon, piecewise_constant=True)
    grid = np.array([0.0, zeta])
    return Path(grid, np.array([x0, x0]), zeta, ExitKind.KILLED_BY_KAPPA,
                cfg.horizon, piecewise_constant=True)


@dataclass
class EventBlock:
    """Consecutive paths of an event model as rows of equal width.

    Row r holds one path: ``grid[r, :length[r]]`` and ``states[r, :length[r]]``
    are that path's ``Path.grid`` and ``Path.states``.  Shorter rows are
    padded on the right by repeating their last time and state, so every
    padded panel has zero width.  ``rate`` is the static model's killing
    rate g(x0) per row, as its lifetime draw computed it (None otherwise).
    """

    grid: np.ndarray
    states: np.ndarray
    length: np.ndarray
    killed: np.ndarray
    horizon: float
    rate: Optional[np.ndarray] = None

    @classmethod
    def of_path(cls, path: Path) -> "EventBlock":
        """The one-row block of an event path."""
        return cls(path.grid[None, :], path.states[None, :],
                   np.array([path.grid.size]), np.array([path.killed]),
                   path.horizon)


def simulate_block(
    model: ProcessModel,
    draw: Callable[[np.random.Generator], float],
    cfg: SimConfig,
    streams: Streams,
    lo: int,
    hi: int,
) -> EventBlock:
    """Paths lo..hi-1 of an event model as an ``EventBlock``.

    Path i takes the stream ``streams.at(i)`` (``rng_for(cfg.seed, i)`` for
    ``Streams(cfg.seed)``), draws its start with ``draw`` and then its
    events from the same stream, so row i - lo is bit-identical to
    ``simulate_path(model, x0, cfg, rng)`` after the same start draw.
    """
    if model.name not in EVENT_MODELS:
        raise ValueError(f"{model.name} is not an event model")
    T = cfg.horizon
    starts, events = [], []
    for i in range(lo, hi):
        rng = streams.at(i)
        x0 = draw(rng)
        model.require_inside(x0)
        starts.append(x0)
        if model.name == "killed_static":
            events.append(_static_lifetime(model, x0, T, rng))
        else:
            events.append(_flip_times(T, rng))
    x0 = np.array(starts, dtype=float)[:, None]
    if model.name == "killed_static":
        rate, zeta = np.array(events).T
        killed = zeta < T
        grid = np.zeros((x0.shape[0], 2))
        grid[:, 1] = np.where(killed, zeta, T)
        return EventBlock(grid, np.hstack([x0, x0]), np.full(x0.shape[0], 2),
                          killed, T, rate)
    length = np.array([len(times) for times in events]) + 1
    cols = np.arange(length.max())
    grid = np.full((length.size, cols.size), T)
    grid[cols < length[:, None] - 1] = np.fromiter(
        chain.from_iterable(events), float, count=int(length.sum() - length.size))
    # x0 on even panels, -x0 on odd ones; the last state repeats into the padding
    flips = np.minimum(cols, length[:, None] - 2) % 2 == 1
    states = np.where(flips, -x0, x0)
    return EventBlock(grid, states, length, np.zeros(length.size, dtype=bool), T)


def first_hitting_time(
    x0: float, level: float, cfg: SimConfig, rng: np.random.Generator
) -> float:
    """First time free BM from x0 touches ``level``, inf if beyond horizon:
    until then |level - X| is BM from |level - x0| absorbed at 0, so this is
    the absorbed walk's death time from that distance, on the same draws."""
    if x0 == level:
        return 0.0
    return _walk(abs(level - x0), int(round(cfg.horizon / cfg.dt)), cfg, rng)[2]
