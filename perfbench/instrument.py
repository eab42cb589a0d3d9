"""Wrappers installed on revuz_lab from outside: the Monte Carlo clock and
the tracer.

``estimators`` and ``harness`` import several functions by name, so a
wrapper replaces the name in every ``revuz_lab`` module that binds the
original object, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time

import numpy as np

_perf = time.perf_counter


def _bindings(obj):
    """Every (module, name) in revuz_lab that is bound to ``obj``."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "revuz_lab" or modname.startswith("revuz_lab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is obj:
                out.append((mod, attr))
    return out


class _Patches:
    def __init__(self):
        self._undo = []

    def replace_function(self, module, name, make_wrapper):
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod, attr in _bindings(original):
            setattr(mod, attr, wrapper)
            self._undo.append((mod, attr, original))

    def replace_method(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original))

    def undo(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# --------------------------------------------------------------------------
# the Monte Carlo clock (always on; one timer pair per estimator call)
# --------------------------------------------------------------------------

def nu0_path_count(w) -> int:
    """Sum of n_k over the nu0 node grid: path simulations, not weight draws."""
    glx, _ = np.polynomial.legendre.leggauss(w.node_count)
    nodes = (0.5 * w.x_max ** 0.5 * (glx + 1.0)) ** 2
    boosted = int(np.sum(nodes < w.boundary_x))
    return w.inner_paths * (boosted * w.boundary_boost + w.node_count - boosted)


class McClock:
    """Times the outermost Monte Carlo calls and keeps their estimates.

    ``records`` holds one (label, seconds, paths, estimate, stretch) per
    outermost call of ``expect``, ``nu0_expect`` or
    ``hitting_laplace_check``; ``label`` is set by the workload before each
    public call.  When ``checkpoint`` is set, it runs before each outermost
    call and returns the index of the stretch of work the call opens.
    """

    def __init__(self, estimators_module):
        self.label = ""
        self.checkpoint = None
        self.records: list[tuple[str, float, int, object, int]] = []
        self._depth = 0
        self._patches = _Patches()
        est = estimators_module
        nu0_type = est.Nu0Weighting

        def paths_of_expect(args, kwargs):
            weighting = args[1]
            if isinstance(weighting, nu0_type):
                return nu0_path_count(weighting)
            return int(args[4] if len(args) > 4 else kwargs["n_paths"])

        def paths_of_nu0(args, kwargs):
            w = args[3] if len(args) > 3 else kwargs.get("w", nu0_type())
            return nu0_path_count(w)

        def paths_of_hitting(args, kwargs):
            return int(args[4] if len(args) > 4 else kwargs["n_paths"])

        for name, count in (("expect", paths_of_expect),
                            ("nu0_expect", paths_of_nu0),
                            ("hitting_laplace_check", paths_of_hitting)):
            self._patches.replace_function(est, name, self._timed(count))

    def _timed(self, count):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._depth:
                    return fn(*args, **kwargs)
                stretch = self.checkpoint() if self.checkpoint else -1
                self._depth += 1
                t0 = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._depth -= 1
                seconds = _perf() - t0
                est = result[0] if isinstance(result, tuple) else result
                self.records.append((self.label, seconds, count(args, kwargs), est, stretch))
                return result
            return wrapper
        return make

    def uninstall(self):
        self._patches.undo()


# --------------------------------------------------------------------------
# the tracer (separate runs only)
# --------------------------------------------------------------------------

# public functions traced per module; "Potential" traces Potential.__call__
TRACED = {
    "simulate": ("rng_for", "simulate_path", "first_hitting_time"),
    "pcaf": ("evaluate", "discounted_final", "sup_distance"),
    "estimators": ("expect", "nu0_expect", "pairwise_sum"),
    "kernels": ("Potential", "rho", "energy", "nu0_pairing", "kappa_pairing"),
    "measures": ("integrate",),
    "harness": ("run_experiment",),
}


class Tracer:
    """Records a span per call of each traced function, in memory.

    A span is [function id, start, end, parent span index].  Spans that
    start on a worker thread with nothing open on that thread take the
    innermost open span of the main thread as their parent (the estimator
    that fanned the paths out).  ``install`` and ``uninstall`` switch the
    wrappers on and off between rounds.
    """

    def __init__(self, package):
        self.package = package
        self.names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._patches = _Patches()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fid):
        spans = self.spans

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                if stack:
                    parent = stack[-1]
                elif stack is not self._main_stack and self._main_stack:
                    parent = self._main_stack[-1]
                else:
                    parent = -1
                span = [fid, _perf(), 0.0, parent]
                spans.append(span)
                stack.append(len(spans) - 1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = _perf()
                    stack.pop()
            return wrapper
        return make

    def install(self):
        fid = 0
        for modname, funcs in TRACED.items():
            module = getattr(self.package, modname)
            for fname in funcs:
                if fname == "Potential":
                    self._patches.replace_method(module.Potential, "__call__", self._wrap(fid))
                else:
                    self._patches.replace_function(module, fname, self._wrap(fid))
                fid += 1

    def uninstall(self):
        self._patches.undo()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def layer_totals(spans: list[list], names: list[str]) -> dict[str, dict[str, float]]:
    """Per function: calls, self time and inclusive time.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (the union, since children on two worker threads can
    overlap).  Inclusive time sums the spans with no ancestor of the same
    function, so recursion is not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for fid, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {n: {"calls": 0, "self_s": 0.0, "s": 0.0} for n in names}
    for i, (fid, start, end, parent) in enumerate(spans):
        row = out[names[fid]]
        row["calls"] += 1
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        row["self_s"] += (end - start) - covered
        p = parent
        while p >= 0 and spans[p][0] != fid:
            p = spans[p][3]
        if p < 0:
            row["s"] += end - start
    return out


def write_spans(path, names, spans_by_phase: dict[str, list[list]]) -> None:
    """Write the kept spans as gzipped JSON: function names and span rows."""
    payload = {"functions": names,
               "span_fields": ["function", "start_s", "end_s", "parent"],
               "phases": spans_by_phase}
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
