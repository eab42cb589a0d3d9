"""The three benchmark workloads.

Each workload has a set-up (the explicit quadrature targets, timed into
``setup_s``), a round (the Monte Carlo and quadrature calls, repeated
until the run's time is up, round r with seed ``round_seed(seed, r)``)
and checks that compare every result with ``references``.  Budgets and
target standard errors are listed here and in README.md; the acceptance
criterion each call comes from is named in its comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import references as R

SIGMAS = 6.0          # sigma multiple of every statistical check
QUAD_ABS = 1e-7       # quadrature values against closed forms

DT = 1e-3
EX5_LADDER = (2, 4, 8, 16, 32, 64)
EX6_LADDER = (4, 8, 16, 32, 64)
KAPPA_WINDOW = (0.2, 0.9)

# paths per estimate in one round
BUDGET = {
    "event_paths": {"ex5": 2000, "static_parts": 4000, "static_residual": 4000,
                    "flip": 4000},
    "diffusion_paths": {"identity": 1000, "local_time": 1000, "free_residual": 4000},
    "boundary_exit": {"identity": 400, "nu0_inner": 40, "nu0_draws": 100_000,
                      "ex6": 1000, "hitting": 600},
}

# target standard error per estimate label: the standard error the
# acceptance budget of the estimate's criterion reaches, as a share of the
# reference value ("rel") or absolute ("abs") where the reference is 0.
# s_to_target_se sums t * (se / target)^2 over a round's estimates.
TARGET_SE = {
    "ex5": ("rel", 0.007), "static_parts": ("rel", 0.007),
    "static_residual": ("abs", 6e-4), "flip": ("rel", 0.001),
    "identity_free": ("rel", 0.012), "local_time": ("rel", 0.004),
    "free_residual": ("abs", 1e-3),
    "identity_absorbed": ("rel", 0.011), "nu0": ("rel", 0.04), "ex6": ("rel", 0.04),
    "hitting": ("rel", 0.0065),
}
# ex6 spikes narrower than 2 sqrt(dt) are checked against criterion 8's
# bound only: at dt = 1e-3 the n = 64 distance is about twice its
# continuous-time value (README.md)
EX6_CONTINUOUS = (4, 8, 16)


def round_seed(seed: int, r: int) -> int:
    """The seed of round r of a run started with ``seed``."""
    return seed * 10_000 + r


DEFAULT_WORKERS = {"event_paths": 2, "diffusion_paths": 1, "boundary_exit": 1}


@dataclass
class Checks:
    """Operations attempted and failed; a wrong result is a failed operation."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def holds(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"FAILED {name} {detail}")

    def close(self, name: str, value: float, ref: float, tol: float = QUAD_ABS) -> None:
        self.holds(name, math.isfinite(value) and abs(value - ref) <= tol,
                   f"value={value!r} ref={ref!r} tol={tol:g}")

    def estimate(self, name: str, est, ref: float, allowance: float = 0.0,
                 exact_se: float = 0.0) -> None:
        """|mean - ref| <= SIGMAS se + allowance + the estimate's tail bound.

        ``exact_se``, where the reference gives it, floors the sampled
        standard error: on skewed samples a low mean comes with a low
        sampled error.
        """
        gap = abs(est.mean - ref)
        limit = SIGMAS * max(est.std_error, exact_se) + allowance + est.tail_bound
        self.holds(name, math.isfinite(est.mean) and est.std_error > 0 and gap <= limit,
                   f"mean={est.mean!r} se={est.std_error!r} ref={ref!r} "
                   f"gap={gap:.3g} limit={limit:.3g}")


class Workload:
    """Set-up and round of one workload against an imported revuz_lab."""

    def __init__(self, lab, name: str, workers: int, clock):
        self.lab = lab
        self.name = name
        self.seed = 0  # set by each round
        self.workers = workers
        self.clock = clock
        self.budget = BUDGET[name]
        self.setup_values: dict = {}
        self.uniform01 = lab.measures.uniform_density(0.0, 1.0)
        self.uniform12 = lab.measures.uniform_density(1.0, 2.0)

    def sim(self, horizon: float):
        return self.lab.simulate.SimConfig(dt=DT, horizon=horizon, seed=self.seed)

    def call(self, label, fn, *args, **kwargs):
        self.clock.label = label
        return fn(*args, **kwargs)

    # ------------------------------------------------------------------
    # set-up: the explicit quadrature targets
    # ------------------------------------------------------------------

    def setup(self) -> None:
        k, ms, m = self.lab.kernels, self.lab.measures, self.lab.models
        v = self.setup_values
        if self.name == "event_paths":
            base = ms.perturbed_base()
            v["rho_sq"] = [k.rho(m.KILLED_STATIC, ms.perturbed(n), base) ** 2
                           for n in EX5_LADDER]
            v["energy"] = k.energy(m.KILLED_STATIC, 1.0, self.uniform01, self.uniform01)
            v["kappa"] = k.kappa_pairing(m.KILLED_STATIC, 1.0, self.uniform01)
            v["nu0"] = k.nu0_pairing(m.KILLED_STATIC, 1.0, self.uniform01)
        elif self.name == "diffusion_paths":
            v["energy"] = k.energy(m.FREE_BM, 1.0, self.uniform01, self.uniform01)
            v["rho"] = k.rho(m.FREE_BM, ms.DiracMeasure(0.0), ms.DiracMeasure(1.0))
            v["kappa"] = k.kappa_pairing(m.FREE_BM, 1.0, self.uniform01)
            v["nu0"] = k.nu0_pairing(m.FREE_BM, 1.0, self.uniform01)
        else:
            v["energy"] = k.energy(m.ABSORBED_BM, 1.0, self.uniform12, self.uniform12,
                                   tol=1e-10)
            v["nu0"] = k.nu0_pairing(m.ABSORBED_BM, 1.0, self.uniform12, tol=1e-10)
            v["kappa"] = k.kappa_pairing(m.ABSORBED_BM, 1.0, self.uniform12)

    def check_setup(self, checks: Checks) -> None:
        v = self.setup_values
        if self.name == "event_paths":
            for n, r2 in zip(EX5_LADDER, v["rho_sq"]):
                checks.close(f"setup.rho_sq[{n}]", r2, R.static_rho_sq(n))
            checks.close("setup.energy", v["energy"], R.static_energy_uniform())
            checks.close("setup.kappa_pairing", v["kappa"], R.static_kappa_pairing_uniform())
            checks.close("setup.nu0_pairing", v["nu0"], 0.0)
        elif self.name == "diffusion_paths":
            checks.close("setup.energy", v["energy"], R.FREE_BOX_ENERGY, 1e-8)
            checks.close("setup.rho", v["rho"],
                         math.sqrt(R.SQ2 * (1.0 - math.exp(-R.SQ2))), 1e-9)
            checks.close("setup.kappa_pairing", v["kappa"], 0.0)
            checks.close("setup.nu0_pairing", v["nu0"], 0.0)
        else:
            checks.close("setup.energy", v["energy"], R.ABSORBED_BOX_ENERGY, 1e-8)
            checks.close("setup.nu0_pairing", v["nu0"], R.NU0_PAIRING_UNIFORM_1_2, 1e-8)
            checks.close("setup.kappa_pairing", v["kappa"], 0.0)

    # ------------------------------------------------------------------
    # one round; returns its results for the checks
    # ------------------------------------------------------------------

    def round(self, seed: int) -> dict:
        self.seed = seed
        return getattr(self, f"_round_{self.name}")()

    def _round_event_paths(self) -> dict:
        lab, b, w = self.lab, self.budget, self.workers
        est, m, pc = lab.estimators, lab.models, lab.pcaf
        out = {}
        # ex5: m- and kappa-window sup distances over the perturbed ladder
        out["ex5"] = self.call("ex5", lab.harness.run_experiment, "ex5",
                               lab.harness.HarnessConfig(seed=self.seed, n_paths=b["ex5"],
                                                         workers=w))
        # criterion 3: discounted-square m-part and kappa-part, static model
        spec = pc.pcaf_of_measure(self.uniform01)
        cfg20 = self.sim(20.0)
        out["static_m"] = self.call("static_parts", est.expect, m.KILLED_STATIC,
                                    est.MWindow((0.0, 1.0)), est.discounted_square(spec, 1.0),
                                    cfg20, b["static_parts"], workers=w)
        out["static_kappa"] = self.call("static_parts", est.expect, m.KILLED_STATIC,
                                        est.KappaWindow(KAPPA_WINDOW),
                                        est.discounted_square(spec, 1.0),
                                        cfg20, b["static_parts"], workers=w)
        # criterion 9: static martingale residual
        cfg1 = self.sim(1.0)
        out["static_residual"] = self.call("static_residual", est.fukushima_residual,
                                           m.KILLED_STATIC, self.uniform01, 0.5, 1.0, cfg1,
                                           b["static_residual"], workers=w)
        # criterion 1: flip means at t = 1 from x0 = 0.5
        out["flip"] = {}
        for n in (1, 3, 5):
            f_spec = pc.DensityPcaf(lambda x, n=n: np.sin(n * np.asarray(x)) + 1.0,
                                    label=f"sin_shift({n})", rate_bound=2.0)
            out["flip"][n] = self.call("flip", est.expect, m.FLIP_JUMP, est.PointMass(0.5),
                                       est.terminal_value(f_spec, 1.0), cfg1, b["flip"],
                                       workers=w)
        return out

    def _round_diffusion_paths(self) -> dict:
        lab, b, w = self.lab, self.budget, self.workers
        est, m, pc = lab.estimators, lab.models, lab.pcaf
        cfg20 = self.sim(20.0)
        out = {}
        # criterion 2: the conservative energy identity, T = 20, window (-8, 9)
        out["identity"] = self.call("identity_free", est.energy_identity_check, m.FREE_BM, 1.0,
                                    self.uniform01, cfg20, b["identity"],
                                    window=(-8.0, 9.0), workers=w)
        # criterion 5: discounted local time at 0, boxcar bandwidth sqrt(dt)
        lt = pc.LocalTimePcaf(0.0, math.sqrt(DT))

        def local_time(path):
            return lab.pcaf.discounted_final(lt, path, 1.0)

        out["local_time"] = self.call("local_time", est.expect, m.FREE_BM,
                                      est.PointMass(0.0), local_time, cfg20,
                                      b["local_time"], workers=w)
        # criterion 9: free martingale residual (4097-point potential table)
        out["free_residual"] = self.call("free_residual", est.fukushima_residual, m.FREE_BM,
                                         self.uniform01, 0.5, 1.0, self.sim(1.0),
                                         b["free_residual"], workers=w)
        return out

    def _round_boundary_exit(self) -> dict:
        lab, b, w = self.lab, self.budget, self.workers
        est, m, pc = lab.estimators, lab.models, lab.pcaf
        cfg20 = self.sim(20.0)
        out = {}
        # criterion 4: absorbed m-part through the identity, window (0, 9)
        out["identity"] = self.call("identity_absorbed", est.energy_identity_check,
                                    m.ABSORBED_BM,
                                    1.0, self.uniform12, cfg20, b["identity"],
                                    window=(0.0, 9.0), workers=w)
        # criterion 4: the nu0 finite-difference route
        spec = pc.pcaf_of_measure(self.uniform12)
        out["nu0"] = self.call("nu0", est.nu0_expect, m.ABSORBED_BM,
                               est.discounted_square(spec, 1.0), cfg20,
                               est.Nu0Weighting(inner_paths=b["nu0_inner"],
                                                weight_draws=b["nu0_draws"]))
        # ex6: boundary spikes, sup distances and pairings
        out["ex6"] = self.call("ex6", lab.harness.run_experiment, "ex6",
                               lab.harness.HarnessConfig(seed=self.seed, n_paths=b["ex6"],
                                                         workers=w))
        # criterion 6: the hitting transform from 0 to 1 on free BM
        out["hitting"] = self.call("hitting", est.hitting_laplace_check, m.FREE_BM, 0.0, 1.0,
                                   cfg20, b["hitting"], workers=w)
        return out

    def warm_references(self) -> None:
        """Compute the round's costlier reference values once, before any round."""
        if self.name == "event_paths":
            for n in EX5_LADDER:
                R.ex5_m_distance(n)
                R.ex5_kappa_distance(n)
                R.ex5_kappa_distance(n, window=KAPPA_WINDOW)
                R.static_rho_sq(n)
                R.ex5_standard_error(n, self.budget["ex5"])
                R.ex5_standard_error(n, self.budget["ex5"], window=KAPPA_WINDOW)
        elif self.name == "boundary_exit":
            for n in EX6_LADDER:
                R.absorbed_nu0_pairing(*R.spike(n))
                R.ex6_m_distance(n)

    def target_ses(self) -> list[float]:
        """Target standard error of each estimate, in the round's record order."""
        scales = {
            "ex5": [r for n in EX5_LADDER
                    for r in (R.ex5_m_distance(n), R.ex5_kappa_distance(n, window=KAPPA_WINDOW))],
            "static_parts": [R.static_m_part(), R.static_kappa_part(*KAPPA_WINDOW)],
            "flip": [R.flip_mean(n) for n in (1, 3, 5)],
            "identity_free": [R.FREE_BOX_ENERGY],
            "local_time": [R.LOCAL_TIME_TRANSFORM],
            "identity_absorbed": [R.ABSORBED_BOX_ENERGY - 0.5 * R.NU0_PAIRING_UNIFORM_1_2],
            "nu0": [R.NU0_PAIRING_UNIFORM_1_2],
            "ex6": [R.ex6_m_distance(n) for n in EX6_LADDER],
            "hitting": [R.HITTING_LAPLACE],
            "static_residual": [1.0], "free_residual": [1.0],
        }
        order = {
            "event_paths": ("ex5", "static_parts", "static_residual", "flip"),
            "diffusion_paths": ("identity_free", "local_time", "free_residual"),
            "boundary_exit": ("identity_absorbed", "nu0", "ex6", "hitting"),
        }[self.name]
        out = []
        for label in order:
            kind, value = TARGET_SE[label]
            out.extend(value * (abs(r) if kind == "rel" else 1.0) for r in scales[label])
        return out

    def final_checks(self, checks: Checks, seed: int) -> None:
        """The determinism contract: one event_paths estimate at a small
        budget is bit-identical at workers=1 and workers=2."""
        if self.name != "event_paths":
            return
        est, m = self.lab.estimators, self.lab.models
        spec = self.lab.pcaf.pcaf_of_measure(self.uniform01)
        runs = [est.expect(m.KILLED_STATIC, est.MWindow((0.0, 1.0)),
                           est.discounted_square(spec, 1.0),
                           self.lab.simulate.SimConfig(dt=DT, horizon=20.0, seed=seed), 2000,
                           workers=w) for w in (1, 2)]
        bits = [(e.mean.hex(), e.std_error.hex(), e.tail_bound.hex()) for e in runs]
        checks.holds("determinism.workers_1_vs_2", bits[0] == bits[1], str(bits))

    # ------------------------------------------------------------------
    # checks of one round against the references
    # ------------------------------------------------------------------

    def check_round(self, out: dict, checks: Checks) -> None:
        getattr(self, f"_check_{self.name}")(out, checks)

    def _check_event_paths(self, out, checks):
        rep = out["ex5"]
        checks.holds("ex5.conclusive", not rep.inconclusive and len(rep.rows) == len(EX5_LADDER),
                     str(rep.notes))
        for row in rep.rows:
            n = row["n"]
            checks.estimate(f"ex5.m_dist[{n}]", _Est(row["m_dist_mc"], row["m_dist_se"]),
                            R.ex5_m_distance(n),
                            exact_se=R.ex5_standard_error(n, self.budget["ex5"]))
            checks.estimate(f"ex5.kappa_dist[{n}]",
                            _Est(row["kappa_dist_mc_window"], row["kappa_dist_mc_se"]),
                            R.ex5_kappa_distance(n, window=KAPPA_WINDOW),
                            exact_se=R.ex5_standard_error(n, self.budget["ex5"],
                                                          window=KAPPA_WINDOW))
            checks.close(f"ex5.rho_sq[{n}]", row["rho_sq"], R.static_rho_sq(n))
            checks.close(f"ex5.m_closed[{n}]", row["m_dist_closed"], R.ex5_m_distance(n))
            checks.close(f"ex5.kappa_full[{n}]", row["kappa_dist_closed_full"],
                         R.ex5_kappa_distance(n))
            checks.close(f"ex5.kappa_window[{n}]", row["kappa_dist_closed_window"],
                         R.ex5_kappa_distance(n, window=KAPPA_WINDOW))
        checks.estimate("static.m_part", out["static_m"], R.static_m_part())
        checks.estimate("static.kappa_part", out["static_kappa"], R.static_kappa_part(*KAPPA_WINDOW))
        checks.estimate("static.residual", out["static_residual"], 0.0)
        for n, e in out["flip"].items():
            checks.estimate(f"flip.mean[{n}]", e, R.flip_mean(n))

    def _check_diffusion_paths(self, out, checks):
        rep = out["identity"]
        checks.close("identity.rhs", rep.rhs, R.FREE_BOX_ENERGY, 1e-8)
        checks.close("identity.pairings", rep.kappa_term + rep.nu0_term, 0.0)
        checks.estimate("identity.m_part", rep.m_part, R.FREE_BOX_ENERGY,
                        allowance=rep.exterior_bound)
        # boxcar bandwidth bias allowance, as in criterion 5
        checks.estimate("local_time", out["local_time"], R.LOCAL_TIME_TRANSFORM, allowance=0.01)
        # O(dt) discretization allowance 5 dt, as in criterion 9
        checks.estimate("free_residual", out["free_residual"], 0.0, allowance=5.0 * DT)

    def _check_boundary_exit(self, out, checks):
        rep = out["identity"]
        checks.close("identity.rhs", rep.rhs, R.ABSORBED_BOX_ENERGY, 1e-8)
        checks.close("identity.nu0_term", rep.nu0_term, R.NU0_PAIRING_UNIFORM_1_2, 1e-8)
        checks.close("identity.kappa_term", rep.kappa_term, 0.0)
        checks.estimate("identity.m_part", rep.m_part,
                        R.ABSORBED_BOX_ENERGY - 0.5 * R.NU0_PAIRING_UNIFORM_1_2,
                        allowance=rep.exterior_bound)
        # criterion 4 accepts the finite-difference route within 10%
        checks.estimate("nu0_fd", out["nu0"], R.NU0_PAIRING_UNIFORM_1_2,
                        allowance=0.10 * R.NU0_PAIRING_UNIFORM_1_2)
        rep6 = out["ex6"]
        checks.holds("ex6.conclusive", not rep6.inconclusive and len(rep6.rows) == len(EX6_LADDER),
                     str(rep6.notes))
        for row in rep6.rows:
            n = row["n"]
            a, bb, h = R.spike(n)
            checks.close(f"ex6.rho_sq[{n}]", row["rho_sq"], R.absorbed_box_energy(a, bb, h), 1e-9)
            checks.close(f"ex6.nu0[{n}]", row["nu0_pairing"], R.absorbed_nu0_pairing(a, bb, h))
            est = _Est(row["m_dist_mc"], row["m_dist_se"])
            if n in EX6_CONTINUOUS:
                checks.estimate(f"ex6.m_dist[{n}]", est, R.ex6_m_distance(n))
            else:
                checks.holds(f"ex6.m_dist[{n}]_below_0.05",
                             0.0 < est.mean <= 0.05 + SIGMAS * est.std_error,
                             f"mean={est.mean!r} se={est.std_error!r}")
        # bridge-corrected crossing allowance, as in criterion 6
        checks.estimate("hitting", out["hitting"], R.HITTING_LAPLACE, allowance=0.005)


@dataclass(frozen=True)
class _Est:
    mean: float
    std_error: float
    tail_bound: float = 0.0
