"""Scripted experiments: one per worked example, plus the round trip.

Each experiment produces an ``ExperimentReport``: a parameter block, a row
table whose cells are either quadrature values or (mean, std_error) pairs,
and a dict of named verdicts computed by pure functions of the rows.  A
report is reproducible bit-for-bit from (experiment id, seed, config).

Limits are not observable at desk scale, so trend verdicts use Kendall-tau
sign tests on fixed-seed columns with known targets; identity verdicts use
z-scores at 3 sigma.  Quadrature failures mark the experiment inconclusive
rather than passing silently.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sciint
from scipy.stats import kendalltau

from revuz_lab import estimators, kernels, measures, pcaf
from revuz_lab.estimators import KappaWindow, MWindow, PointMass
from revuz_lab.models import ABSORBED_BM, FLIP_JUMP, FREE_BM, KILLED_STATIC
from revuz_lab.simulate import SimConfig

try:
    from revuz_lab import __version__
except ImportError:  # pragma: no cover
    __version__ = "unknown"

SINH1_OVER_E = math.sinh(1.0) / math.e


@dataclass(frozen=True)
class HarnessConfig:
    """Shared experiment knobs (CLI flags and config files override these)."""

    seed: int = 20260810
    n_paths: int = 100_000
    dt: float = 1e-3
    horizon_sup: float = 1.0
    horizon_disc: float = 20.0
    workers: int = 1

    def sim(self, horizon: float) -> SimConfig:
        return SimConfig(dt=self.dt, horizon=horizon, seed=self.seed)


@functools.cache
def _build_id() -> str:
    """The version plus ``git describe`` of the package's own checkout, once per process."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        desc = proc.stdout.strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        desc = ""
    return f"revuz-lab-{__version__}" + (f"+{desc}" if desc else "")


@dataclass
class ExperimentReport:
    experiment_id: str
    parameters: dict
    rows: list[dict]
    verdicts: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    inconclusive: bool = False

    @property
    def passed(self) -> bool:
        return (not self.inconclusive) and all(self.verdicts.values())

    def to_csv(self, path) -> None:
        keys: list[str] = []
        for row in self.rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)

    def to_json(self, path) -> None:
        payload = {
            "experiment_id": self.experiment_id,
            "parameters": self.parameters,
            "rows": self.rows,
            "verdicts": self.verdicts,
            "notes": self.notes,
            "provenance": self.provenance,
            "inconclusive": self.inconclusive,
            "passed": self.passed,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _report(experiment_id, cfg, parameters) -> ExperimentReport:
    return ExperimentReport(
        experiment_id=experiment_id,
        parameters=parameters,
        rows=[],
        provenance={"seed": cfg.seed, "build": _build_id()},
    )


def _mark_inconclusive(report: ExperimentReport, exc: Exception) -> ExperimentReport:
    report.inconclusive = True
    report.verdicts = {"inconclusive": False}
    report.notes.append(f"sub-estimator failure: {type(exc).__name__}: {exc}")
    return report


# --------------------------------------------------------------------------
# trend verdicts (pure functions of columns)
# --------------------------------------------------------------------------

def trend_tau(values) -> float:
    """Kendall tau of a column against its index order."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 2 or np.allclose(vals, vals[0]):
        return 0.0
    tau, _ = kendalltau(np.arange(vals.size), vals)
    return float(tau)


def decreasing_trend(values, tau_threshold: float = 0.5) -> bool:
    return trend_tau(values) <= -tau_threshold


def strictly_decreasing(values) -> bool:
    vals = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(vals) < 0.0))


def plateau(values, floor_fraction: float = 0.5) -> bool:
    """All entries stay above floor_fraction times the final entry."""
    vals = np.asarray(values, dtype=float)
    return bool(np.all(vals >= floor_fraction * vals[-1]) and vals[-1] > 0.0)


# --------------------------------------------------------------------------
# experiment 1: flip process, vague convergence without PCAF convergence
# --------------------------------------------------------------------------

def ex1_flip(cfg: HarnessConfig) -> ExperimentReport:
    """Flip-process counterexample: means match the closed form, the vague
    gaps decay, yet the PCAF gap persists along sin-bounded subsequences."""
    x0, t = 0.5, 1.0
    ladder = (1, 3, 5)
    vague_ladder = (4, 16, 64)
    report = _report("ex1", cfg, {
        "x0": x0, "t": t, "ladder": list(ladder),
        "vague_ladder": list(vague_ladder), "n_paths": cfg.n_paths,
    })
    try:
        sim = cfg.sim(horizon=t)
        zs, gap_floors = [], []
        for n in ladder:
            spec = pcaf.DensityPcaf(
                lambda x, n=n: np.sin(n * x) + 1.0,
                label=f"sin_shift({n})", rate_bound=2.0,
            )
            est = estimators.expect(
                FLIP_JUMP, PointMass(x0), estimators.terminal_value(spec, t),
                sim, cfg.n_paths, cfg.workers,
            )
            closed = t + math.sin(n * x0) * math.sinh(t) * math.exp(-t)
            z = (est.mean - closed) / est.std_error
            zs.append(z)
            gap = abs(est.mean - t)
            gap_floors.append((n, gap, 0.8 * SINH1_OVER_E - 3.0 * est.std_error))
            report.rows.append({
                "section": "closed_form", "n": n, "mc_mean": est.mean,
                "mc_se": est.std_error, "closed_form": closed, "z": z,
                "gap_from_lebesgue": gap,
            })
        hat = ("hat", lambda x: np.maximum(0.0, 1.0 - np.abs(2.0 * np.asarray(x) - 1.0)))
        bump = ("sin2pi", lambda x: np.sin(np.pi * np.asarray(x)) ** 2)
        mus = [measures.sin_shift(n) for n in vague_ladder]
        targets = [0.5, 0.5]  # integrals of the test functions against dx
        table = estimators.vague_probe(mus, [hat, bump], (0.0, 1.0), targets)
        for i, n in enumerate(vague_ladder):
            report.rows.append({
                "section": "vague", "n": n,
                "hat_pairing": float(table.matrix[i, 0]),
                "hat_gap": float(table.column_gaps(0)[i]),
                "sin2pi_pairing": float(table.matrix[i, 1]),
                "sin2pi_gap": float(table.column_gaps(1)[i]),
            })
        persist = [g >= thr > 0.0 for n, g, thr in gap_floors if abs(math.sin(n * x0)) >= 0.8]
        report.verdicts = {
            "closed_form_match": all(abs(z) <= 3.0 for z in zs),
            "riemann_lebesgue_decay": decreasing_trend(table.column_gaps(0)) and
                                      decreasing_trend(table.column_gaps(1)),
            "gap_persists": bool(persist) and all(persist),
        }
        report.notes.append(
            "closed form evaluated at t=1 where E_x[A_t] = t + sin(n x) sinh(t) e^{-t}"
        )
    except Exception as exc:  # noqa: BLE001 - inconclusive, never silent
        return _mark_inconclusive(report, exc)
    return report


# --------------------------------------------------------------------------
# experiment 2: local times of Brownian motion
# --------------------------------------------------------------------------

def ex2_local_times(cfg: HarnessConfig) -> ExperimentReport:
    """Dirac measures converge in the metric and the local times follow."""
    ladder = (1, 2, 4, 8)
    y0, T = 2.0, cfg.horizon_sup
    eps = math.sqrt(cfg.dt)
    report = _report("ex2", cfg, {
        "ladder": list(ladder), "start": y0, "T": T, "eps": eps,
        "n_paths": cfg.n_paths,
    })
    try:
        sim = cfg.sim(horizon=T)
        base = pcaf.LocalTimePcaf(0.0, eps)
        rho_col, dist_col = [], []
        for n in ladder:
            x_n = 1.0 / n
            r = kernels.rho(FREE_BM, measures.DiracMeasure(x_n), measures.DiracMeasure(0.0))
            est = estimators.sup_l2_distance(
                FREE_BM, pcaf.LocalTimePcaf(x_n, eps), base, PointMass(y0),
                T, sim, cfg.n_paths, workers=cfg.workers,
            )
            rho_col.append(r)
            dist_col.append(est.mean)
            report.rows.append({
                "n": n, "x_n": x_n, "rho": r,
                "mc_sup_dist": est.mean, "mc_se": est.std_error,
            })
        self_est = estimators.sup_l2_distance(
            FREE_BM, base, base, PointMass(y0), T, sim, min(cfg.n_paths, 2000),
            workers=cfg.workers,
        )
        report.rows.append({
            "n": "self", "x_n": 0.0, "rho": 0.0,
            "mc_sup_dist": self_est.mean, "mc_se": self_est.std_error,
        })
        report.verdicts = {
            "rho_strictly_decreasing": strictly_decreasing(rho_col),
            "distance_decreasing": decreasing_trend(dist_col),
            "self_distance_zero": self_est.mean == 0.0,
        }
    except Exception as exc:  # noqa: BLE001
        return _mark_inconclusive(report, exc)
    return report


# --------------------------------------------------------------------------
# experiment 3: absolutely continuous measures, the L2 bound
# --------------------------------------------------------------------------

def ex3_l2_density(cfg: HarnessConfig) -> ExperimentReport:
    """rho^2 <= L2 distance of the densities, and both Monte Carlo
    distances co-converge (the forward direction of the equivalence)."""
    ladder = (2, 4, 8, 16)
    window = (-4.0, 5.0)
    base_mu = measures.uniform_density(0.0, 1.0)
    base_spec = pcaf.pcaf_of_measure(base_mu)
    report = _report("ex3", cfg, {
        "ladder": list(ladder), "window": list(window), "n_paths": cfg.n_paths,
        "T_sup": cfg.horizon_sup, "T_disc": cfg.horizon_disc,
    })
    try:
        rho_sq, l2_sq, sup_col, disc_col = [], [], [], []
        for n in ladder:
            mu_n = measures.sin_shift(n)
            r2 = kernels.rho(FREE_BM, mu_n, base_mu) ** 2
            l2 = _sciint.quad(lambda x, n=n: np.sin(n * x) ** 2, 0.0, 1.0,
                              limit=400)[0]
            spec_n = pcaf.pcaf_of_measure(mu_n)
            sup_est = estimators.sup_l2_distance(
                FREE_BM, spec_n, base_spec, MWindow(window), cfg.horizon_sup,
                cfg.sim(cfg.horizon_sup), cfg.n_paths, workers=cfg.workers,
            )
            disc_est = estimators.discounted_l2_distance(
                FREE_BM, spec_n, base_spec, MWindow(window),
                cfg.sim(cfg.horizon_disc), cfg.n_paths, workers=cfg.workers,
            )
            rho_sq.append(r2)
            l2_sq.append(l2)
            sup_col.append(sup_est.mean)
            disc_col.append(disc_est.mean)
            report.rows.append({
                "n": n, "rho_sq": r2, "l2_sq": l2,
                "mc_sup_dist": sup_est.mean, "mc_sup_se": sup_est.std_error,
                "mc_disc_dist": disc_est.mean, "mc_disc_se": disc_est.std_error,
            })
        report.verdicts = {
            "l2_bound_holds": all(r <= l + 1e-9 for r, l in zip(rho_sq, l2_sq)),
            "rho_decreasing": decreasing_trend(rho_sq),
            "co_convergence": decreasing_trend(sup_col) and decreasing_trend(disc_col),
        }
    except Exception as exc:  # noqa: BLE001
        return _mark_inconclusive(report, exc)
    return report


# --------------------------------------------------------------------------
# experiment 4: the Cantor measure, a singular limit
# --------------------------------------------------------------------------

def ex4_cantor(cfg: HarnessConfig) -> ExperimentReport:
    """Cauchy behaviour of the level measures in rho, mirrored by the
    occupation functionals of consecutive levels.

    The Monte Carlo column only resolves levels whose interval width 3^-n
    stays above the path step sqrt(dt); beyond that the occupation
    estimates sit on a discretization floor that grows with the level, so
    the cells run on a refined grid and stop at level 4.
    """
    levels = (1, 2, 3, 4)
    deep = (2, 4, 6, 8)
    mc_pairs = ((1, 2), (2, 3), (3, 4))
    window = (-3.0, 4.0)
    mc_dt = min(cfg.dt, 2e-4)
    report = _report("ex4", cfg, {
        "levels": list(levels), "deep_levels": list(deep),
        "mc_pairs": [list(p) for p in mc_pairs], "mc_dt": mc_dt,
        "window": list(window), "n_paths": cfg.n_paths, "T": cfg.horizon_sup,
    })
    try:
        worst_col = []
        for n in levels:
            mu_n = measures.CantorLevelMeasure(n)
            worst = 0.0
            for m in deep:
                if m <= n:
                    continue
                worst = max(worst, kernels.rho(
                    FREE_BM, mu_n, measures.CantorLevelMeasure(m)))
            worst_col.append(worst)
            report.rows.append({
                "section": "rho", "n": n, "worst_rho_to_deeper": worst,
            })
        sim = SimConfig(dt=mc_dt, horizon=cfg.horizon_sup, seed=cfg.seed)
        mc_col = []
        for a, b in mc_pairs:
            est = estimators.sup_l2_distance(
                FREE_BM, pcaf.CantorPcaf(a), pcaf.CantorPcaf(b),
                MWindow(window), cfg.horizon_sup, sim,
                cfg.n_paths, workers=cfg.workers,
            )
            mc_col.append(est)
            report.rows.append({
                "section": "mc", "n": a,
                "mc_sup_dist_consecutive": est.mean, "mc_se": est.std_error,
            })
        report.verdicts = {
            "rho_cauchy": strictly_decreasing(worst_col),
            "mc_distance_decreasing": strictly_decreasing([e.mean for e in mc_col]),
        }
        report.notes.append(
            "the limit measure is only approached through its levels; the "
            "limit occupation functional has no explicit form"
        )
        report.notes.append(
            f"occupation of level m needs 3^-m >~ sqrt(dt): at dt={mc_dt} "
            "levels beyond 4 sit on the discretization floor"
        )
    except Exception as exc:  # noqa: BLE001
        return _mark_inconclusive(report, exc)
    return report


# --------------------------------------------------------------------------
# experiment 5: killing measure is necessary
# --------------------------------------------------------------------------

def _static_sup_integrands(n: int, T: float):
    """Closed-form per-start E_x[sup_{t<=T}|A^n_t - A_t|^2] integrands.

    For the motionless killed process the difference is |f_n - f|(x) (t ^ zeta),
    so the expectation is (f_n - f)^2(x) E_x[(T ^ zeta)^2] with zeta ~ Exp(g(x)).
    Written in overflow-safe form: (1+g)^2 / g^2 = (1+x^2)^2, and every
    (1+g)^k e^{-gT} factor underflows long before (1+g)^k overflows.
    """
    def m_integrand(x):
        x = np.asarray(x, dtype=float)
        g = x ** -2.0
        decay = np.exp(-g * T)
        s = np.sin(n * x) ** 2 / n
        return s * (2.0 * (1.0 + x * x) ** 2 * (1.0 - decay)
                    - 2.0 * T * (1.0 + g) * ((1.0 + g) * decay) / g)

    def kappa_integrand(x):
        x = np.asarray(x, dtype=float)
        return m_integrand(x) * x ** -2.0

    return m_integrand, kappa_integrand


def ex5_kappa_necessity(cfg: HarnessConfig) -> ExperimentReport:
    """The perturbed family: the m-distance dies, the metric and the
    kappa-distance plateau.  The computed metric limit is pi/2 (finite);
    see the notes.

    The ladder starts at n = 2: the exact m-distance rises from n = 1 to
    n = 2 before its monotone decay, so a strict-decrease verdict is only
    meaningful from there.
    """
    ladder = (2, 4, 8, 16, 32, 64)
    T = cfg.horizon_sup
    kappa_win = (0.2, 0.9)
    base_mu = measures.perturbed_base()
    base_spec = pcaf.pcaf_of_measure(base_mu)
    report = _report("ex5", cfg, {
        "ladder": list(ladder), "T": T, "kappa_window": list(kappa_win),
        "n_paths": cfg.n_paths,
    })
    try:
        sim = cfg.sim(horizon=T)
        m_mc, m_cf, rho_col, kap_full, kap_win_cf, kap_mc = [], [], [], [], [], []
        for n in ladder:
            mu_n = measures.perturbed(n)
            spec_n = pcaf.pcaf_of_measure(mu_n)
            m_integrand, kappa_integrand = _static_sup_integrands(n, T)
            m_closed = _sciint.quad(m_integrand, 0.0, 1.0, limit=800)[0]
            # the kappa distance keeps all its mass near the boundary, so
            # the plateau lives on the full window; the Monte Carlo
            # cross-check samples a compact window where kappa is finite
            k_full = _sciint.quad(kappa_integrand, 0.0, 1.0, limit=800)[0]
            k_win = _sciint.quad(kappa_integrand, kappa_win[0], kappa_win[1],
                                 limit=800)[0]
            r2 = kernels.rho(KILLED_STATIC, mu_n, base_mu) ** 2
            m_est = estimators.sup_l2_distance(
                KILLED_STATIC, spec_n, base_spec, MWindow((0.0, 1.0)), T,
                sim, cfg.n_paths, workers=cfg.workers,
            )
            k_est = estimators.sup_l2_distance(
                KILLED_STATIC, spec_n, base_spec, KappaWindow(kappa_win), T,
                sim, cfg.n_paths, workers=cfg.workers,
            )
            m_mc.append(m_est)
            m_cf.append(m_closed)
            rho_col.append(r2)
            kap_full.append(k_full)
            kap_win_cf.append(k_win)
            kap_mc.append(k_est)
            report.rows.append({
                "n": n, "m_dist_mc": m_est.mean, "m_dist_se": m_est.std_error,
                "m_dist_closed": m_closed, "rho_sq": r2,
                "kappa_dist_closed_full": k_full,
                "kappa_dist_closed_window": k_win,
                "kappa_dist_mc_window": k_est.mean,
                "kappa_dist_mc_se": k_est.std_error,
            })
        tail = [r for n, r in zip(ladder, rho_col) if n >= 32]
        report.verdicts = {
            "m_distance_vanishes": strictly_decreasing([e.mean for e in m_mc])
                                   and m_mc[-1].mean < 0.05,
            "m_mc_matches_closed": all(
                abs(e.mean - c) <= 3.0 * e.std_error
                for e, c in zip(m_mc, m_cf)),
            "rho_sq_plateau": all(1.3 <= r <= 1.8 for r in tail),
            "kappa_mc_matches_closed": all(
                abs(e.mean - c) <= 3.0 * e.std_error
                for e, c in zip(kap_mc, kap_win_cf)),
            "kappa_plateau": plateau(kap_full),
        }
        report.notes.append(
            "computed rho^2 limit is pi/2 ~ 1.5708 (substituting y = n x turns "
            "the singular part into int_0^n sin^2(y)/y^2 dy, which converges); "
            "the source display asserting a divergent limit is flagged as a "
            "discrepancy, and the counterexample stands on the plateau being "
            "bounded away from zero"
        )
    except Exception as exc:  # noqa: BLE001
        return _mark_inconclusive(report, exc)
    return report


# --------------------------------------------------------------------------
# experiment 6: the boundary functional is necessary
# --------------------------------------------------------------------------

def ex6_nu0_necessity(cfg: HarnessConfig) -> ExperimentReport:
    """Boundary spikes on the absorbed model: the m-distance dies while the
    metric tends to 2/3 and the boundary pairing plateaus near 4/3."""
    ladder = (4, 8, 16, 32, 64)
    T = cfg.horizon_sup
    window = (0.0, 6.0)
    zero_mu = measures.zero_measure()
    zero_spec = pcaf.pcaf_of_measure(zero_mu)
    report = _report("ex6", cfg, {
        "ladder": list(ladder), "T": T, "window": list(window),
        "n_paths": cfg.n_paths,
    })
    try:
        sim = cfg.sim(horizon=T)
        m_col, rho_col, nu0_col = [], [], []
        for n in ladder:
            mu_n = measures.spike(n)
            spec_n = pcaf.pcaf_of_measure(mu_n)
            r2 = kernels.energy(ABSORBED_BM, 1.0, mu_n, mu_n)
            nu0 = kernels.nu0_pairing(ABSORBED_BM, 1.0, mu_n)
            m_est = estimators.sup_l2_distance(
                ABSORBED_BM, spec_n, zero_spec, MWindow(window), T,
                sim, cfg.n_paths, workers=cfg.workers,
            )
            m_col.append(m_est)
            rho_col.append(r2)
            nu0_col.append(nu0)
            report.rows.append({
                "n": n, "m_dist_mc": m_est.mean, "m_dist_se": m_est.std_error,
                "rho_sq": r2, "nu0_pairing": nu0,
            })
        report.verdicts = {
            "m_distance_vanishes": decreasing_trend([e.mean for e in m_col])
                                   and m_col[-1].mean < 0.05,
            "rho_sq_near_two_thirds": abs(rho_col[-1] - 2.0 / 3.0) <= 0.15 * (2.0 / 3.0),
            "nu0_plateau": plateau(nu0_col),
        }
        report.notes.append(
            "rho^2 tends to 2/3 through the small-separation expansion of the "
            "kernel, g_1(x,y) ~ 2 min(x,y) near the boundary"
        )
    except Exception as exc:  # noqa: BLE001
        return _mark_inconclusive(report, exc)
    return report


# --------------------------------------------------------------------------
# the round trip
# --------------------------------------------------------------------------

def theorem_roundtrip(cfg: HarnessConfig) -> ExperimentReport:
    """Both directions of the equivalence on one converging and one
    non-converging family: metric convergence moves exactly with the
    full-weighting PCAF distance."""
    conv_ladder = (2, 4, 8, 16)
    block_ladder = (4, 16, 64)
    T = cfg.horizon_sup
    report = _report("roundtrip", cfg, {
        "converging_ladder": list(conv_ladder), "blocked_ladder": list(block_ladder),
        "T": T, "n_paths": cfg.n_paths,
    })
    try:
        sim = cfg.sim(horizon=T)
        base_mu = measures.uniform_density(0.0, 1.0)
        base_spec = pcaf.pcaf_of_measure(base_mu)
        conv_rho, conv_dist = [], []
        for n in conv_ladder:
            mu_n = measures.sin_shift(n)
            conv_rho.append(kernels.rho(FREE_BM, mu_n, base_mu) ** 2)
            est = estimators.sup_l2_distance(
                FREE_BM, pcaf.pcaf_of_measure(mu_n), base_spec,
                MWindow((-4.0, 5.0)), T, sim, cfg.n_paths, workers=cfg.workers,
            )
            conv_dist.append(est.mean)
            report.rows.append({
                "family": "sin_shift", "n": n, "rho_sq": conv_rho[-1],
                "full_weighting_dist": est.mean,
            })
        pert_base = measures.perturbed_base()
        block_rho, block_dist = [], []
        for n in block_ladder:
            mu_n = measures.perturbed(n)
            block_rho.append(kernels.rho(KILLED_STATIC, mu_n, pert_base) ** 2)
            m_integrand, kappa_integrand = _static_sup_integrands(n, T)
            m_closed = _sciint.quad(m_integrand, 0.0, 1.0, limit=800)[0]
            k_closed = _sciint.quad(kappa_integrand, 0.0, 1.0, limit=800)[0]
            block_dist.append(m_closed + k_closed)
            report.rows.append({
                "family": "perturbed", "n": n, "rho_sq": block_rho[-1],
                "full_weighting_dist": block_dist[-1],
            })
        forward = decreasing_trend(conv_rho) and decreasing_trend(conv_dist)
        blocked = plateau(block_rho) and plateau(block_dist)
        report.verdicts = {
            "forward_direction": forward,
            "blocked_direction": blocked,
            "biconditional_pattern": forward and blocked,
        }
        report.notes.append(
            "full weighting = m for the conservative family; m + kappa "
            "(closed form, full window) for the killed family"
        )
    except Exception as exc:  # noqa: BLE001
        return _mark_inconclusive(report, exc)
    return report


EXPERIMENTS: dict[str, Callable[[HarnessConfig], ExperimentReport]] = {
    "ex1": ex1_flip,
    "ex2": ex2_local_times,
    "ex3": ex3_l2_density,
    "ex4": ex4_cantor,
    "ex5": ex5_kappa_necessity,
    "ex6": ex6_nu0_necessity,
    "roundtrip": theorem_roundtrip,
}


def run_experiment(name: str, cfg: HarnessConfig,
                   out_dir: Optional[str] = None) -> ExperimentReport:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of "
                         f"{sorted(EXPERIMENTS)}")
    report = EXPERIMENTS[name](cfg)
    if out_dir is not None:
        out = FsPath(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report.to_csv(out / f"{name}.csv")
        report.to_json(out / f"{name}.json")
    return report
