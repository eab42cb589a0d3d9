"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload event_paths --seed 1 --seconds 35 --trace 0

Run from the repository root.  The process imports ``revuz_lab`` from
``src/``, runs the workload's set-up once, then repeats its round, each
with its own seed derived from ``--seed``, until ``--seconds`` have passed
(whole rounds only), checks every result against ``references`` and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Timings are rescaled to the reference speed
of ``calibrate.py``; the raw seconds are printed on the lines before.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, including
``tracing.overhead_s``; its spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import struct
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("event_paths", "diffusion_paths", "boundary_exit")


def seconds_since_process_start() -> float:
    """Wall time since this process was started (from /proc, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


@dataclass
class Round:
    """One round: raw and reference-speed seconds, and its estimates."""

    traced: bool
    wall_raw: float
    wall_ref: float
    calls_ref: list[float]     # Monte Carlo seconds per estimate, reference speed
    paths: int
    estimates: list


def measure_round(records, stretches, traced) -> Round:
    """Rescale the round's stretches and calls to the reference speed."""
    return Round(
        traced=traced,
        wall_raw=sum(raw for raw, _ in stretches),
        wall_ref=sum(raw * f for raw, f in stretches),
        calls_ref=[seconds * stretches[stretch][1] for _, seconds, _, _, stretch in records],
        paths=sum(r[2] for r in records),
        estimates=[r[3] for r in records],
    )


def digest(estimates) -> str:
    """SHA-256 of the float bits of a round's estimates (mean, se, tail)."""
    h = hashlib.sha256()
    for est in estimates:
        h.update(struct.pack("<3d", est.mean, est.std_error, est.tail_bound))
    return h.hexdigest()


def seconds_to_target_se(rounds: list[Round], targets) -> list[float]:
    """Per estimate, t (se / target)^2, with t the estimate's median Monte
    Carlo seconds and se^2 its median over the rounds (the rounds use
    different seeds; the median keeps one heavy-tailed sample from
    dominating)."""
    terms = []
    for i, target in enumerate(targets):
        t = statistics.median(rd.calls_ref[i] for rd in rounds)
        var = statistics.median(rd.estimates[i].std_error ** 2 for rd in rounds)
        terms.append(t * var / target**2)
    return terms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="override the workload's worker count (baselines only)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import revuz_lab
    if not revuz_lab.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"revuz_lab imported from {revuz_lab.__file__}, not from src/")
    import instrument
    import workloads as W

    clock = instrument.McClock(revuz_lab.estimators)
    tracer = None
    if args.trace:
        tracer = instrument.Tracer(revuz_lab)
        tracer.install()
    workers = args.workers or W.DEFAULT_WORKERS[args.workload]
    work = W.Workload(revuz_lab, args.workload, workers, clock)
    work.setup()
    setup_raw = seconds_since_process_start()
    import calibrate
    setup_s = setup_raw * calibrate.speed_factor()
    setup_spans = tracer.take() if tracer else []
    if tracer:
        tracer.uninstall()

    checks = W.Checks()
    work.check_setup(checks)
    work.warm_references()
    targets = work.target_ses()

    # the traced run skips calibration: its kernel would sit inside the
    # harness and estimator spans
    cal = None if tracer else calibrate.Calibration(workers)
    clock.checkpoint = cal.checkpoint if cal else None
    rounds: list[Round] = []
    traced_totals = []
    kept_spans = {"setup": setup_spans}
    t_start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        clock.records = []
        if cal:
            cal.start_round()
        t0 = time.perf_counter()
        out = work.round(W.round_seed(args.seed, len(rounds)))
        work.check_round(out, checks)
        if cal:
            cal.checkpoint()
            stretches = cal.stretches()
        else:
            stretches = [(time.perf_counter() - t0, 1.0)]
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            traced_totals.append(instrument.layer_totals(spans, tracer.names))
            kept_spans.setdefault("first_traced_round", spans)
        if len(clock.records) != len(targets):
            raise RuntimeError(f"{len(clock.records)} estimates for {len(targets)} targets")
        labels = [rec[0] for rec in clock.records]
        rounds.append(measure_round(clock.records, stretches, traced))
        if time.perf_counter() - t_start >= args.seconds and (not tracer or len(rounds) >= 2):
            break
    if cal:
        cal.close()
    clock.checkpoint = None
    clock.records = []
    work.final_checks(checks, args.seed)

    print(f"digest {args.workload} seed={args.seed} round=0 sha256={digest(rounds[0].estimates)}")
    print(f"setup raw_s={setup_raw:.4f} ref_s={setup_s:.4f}")
    print("rounds " + json.dumps([{"traced": rd.traced, "wall_raw_s": round(rd.wall_raw, 4),
                                   "wall_ref_s": round(rd.wall_ref, 4),
                                   "calls_ref_s": [round(c, 4) for c in rd.calls_ref]}
                                  for rd in rounds]))
    for msg in checks.messages:
        print(msg, file=sys.stderr)
    untraced = [rd for rd in rounds if not rd.traced]
    to_target = seconds_to_target_se(untraced, targets)
    by_label: dict[str, float] = {}
    for label, term in zip(labels, to_target):
        by_label[label] = by_label.get(label, 0.0) + term
    print("s_to_target_se " + json.dumps({k: round(v, 3) for k, v in by_label.items()}))
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(rd.wall_ref for rd in untraced), "s"),
            "setup_s": (setup_s, "s"),
            "paths_per_s": (statistics.median(rd.paths / sum(rd.calls_ref) for rd in untraced),
                            "paths/s"),
            "s_to_target_se": (sum(to_target), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        metrics = layer_metrics(instrument.layer_totals(setup_spans, tracer.names),
                                traced_totals)
        metrics["tracing.overhead_s"] = (
            statistics.median(rd.wall_ref for rd in rounds if rd.traced)
            - statistics.median(rd.wall_ref for rd in untraced), "s")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        instrument.write_spans(
            os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json.gz"),
            tracer.names, kept_spans)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# per-layer metrics: (function, field) pairs; field "s" is inclusive time
PER_LAYER = (
    ("simulate.rng_for", "calls"), ("simulate.rng_for", "self_s"),
    ("simulate.simulate_path", "calls"), ("simulate.simulate_path", "self_s"),
    ("simulate.first_hitting_time", "calls"), ("simulate.first_hitting_time", "self_s"),
    ("pcaf.evaluate", "calls"), ("pcaf.evaluate", "self_s"),
    ("pcaf.discounted_final", "calls"), ("pcaf.discounted_final", "self_s"),
    ("pcaf.sup_distance", "self_s"),
    ("estimators.expect", "self_s"), ("estimators.nu0_expect", "self_s"),
    ("estimators.pairwise_sum", "self_s"),
    ("kernels.Potential", "calls"), ("kernels.Potential", "self_s"),
    ("kernels.rho", "s"), ("kernels.energy", "s"), ("kernels.nu0_pairing", "s"),
    ("kernels.kappa_pairing", "s"),
    ("measures.integrate", "calls"), ("measures.integrate", "self_s"),
    ("harness.run_experiment", "self_s"),
)


def layer_metrics(setup_totals, traced_totals) -> dict:
    """Set-up plus one round (the median over traced rounds), per function."""
    out = {}
    for fname, fld in PER_LAYER:
        per_round = statistics.median(t[fname][fld] for t in traced_totals)
        value = setup_totals[fname][fld] + per_round
        out[f"{fname}.{fld}"] = (value, "count" if fld == "calls" else "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
