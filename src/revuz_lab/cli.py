"""Command-line entry points.

Four subcommands:

* ``revuz-lab rho --model ... --mu ... --nu ...`` prints the metric value;
* ``revuz-lab estimate ...`` runs one Monte Carlo expectation and writes a
  one-row table (csv or json);
* ``revuz-lab run <experiment> [--seed --paths --dt --out DIR]`` runs a
  scripted experiment and persists its report; the exit code is 0 only
  when every verdict holds;
* ``revuz-lab dump-path --model ... --x0 ... [--seed --index --dt --horizon]``
  prints path ``index`` of ``seed`` as csv rows ``t,x,alive``, where
  ``alive`` turns 0 from the lifetime on.

A ``--config FILE`` of ``key = value`` lines overrides any flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from revuz_lab import estimators, harness, kernels, measures, pcaf
from revuz_lab.estimators import KappaWindow, MWindow, PointMass
from revuz_lab.harness import EXPERIMENTS, HarnessConfig
from revuz_lab.models import model_by_name
from revuz_lab.simulate import SimConfig


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (want key = value): {raw!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _measure_arg(text: str):
    return measures.measure_from_config(json.loads(text))


def _weighting_arg(text: str):
    spec = json.loads(text)
    kind = spec.get("type")
    if kind == "m_window":
        return MWindow(tuple(spec["window"]))
    if kind == "kappa_window":
        return KappaWindow(tuple(spec["window"]))
    if kind == "point":
        return PointMass(float(spec["x"]))
    if kind == "nu0":
        return estimators.Nu0Weighting()
    raise ValueError(f"unknown weighting literal {spec!r}")


def _functional_arg(text: str, alpha: float):
    spec = json.loads(text)
    kind = spec.pop("kind", "discounted_square")
    p = pcaf.pcaf_from_config(spec)
    if kind == "discounted_square":
        return estimators.discounted_square(p, alpha), f"disc_sq[{p!r}]"
    if kind == "terminal":
        t = float(spec.get("t", 1.0))
        return estimators.terminal_value(p, t), f"terminal[{p!r},t={t}]"
    raise ValueError(f"unknown functional kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="revuz-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rho = sub.add_parser("rho", help="energy metric between two measures")
    p_rho.add_argument("--model", required=True)
    p_rho.add_argument("--mu", required=True, help="measure literal (json)")
    p_rho.add_argument("--nu", required=True, help="measure literal (json)")
    p_rho.add_argument("--tol", type=float, default=kernels.DEFAULT_TOL)

    p_est = sub.add_parser("estimate", help="one Monte Carlo expectation")
    p_est.add_argument("--model", required=True)
    p_est.add_argument("--weighting", required=True, help="weighting literal (json)")
    p_est.add_argument("--functional", required=True, help="PCAF functional literal (json)")
    p_est.add_argument("--paths", type=int, default=10_000)
    p_est.add_argument("--dt", type=float, default=1e-3)
    p_est.add_argument("--horizon", type=float, default=20.0)
    p_est.add_argument("--alpha", type=float, default=1.0)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--workers", type=int, default=1)
    p_est.add_argument("--out", choices=("csv", "json"), default="csv")

    p_run = sub.add_parser("run", help="run a scripted experiment")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--paths", type=int, default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=None, help="directory for csv/json reports")
    p_run.add_argument("--config", default=None, help="key = value file overriding flags")

    p_dump = sub.add_parser("dump-path", help="dump one simulated path as csv (t, x, alive)")
    p_dump.add_argument("--model", required=True)
    p_dump.add_argument("--x0", type=float, required=True)
    p_dump.add_argument("--dt", type=float, default=1e-3)
    p_dump.add_argument("--horizon", type=float, default=1.0)
    p_dump.add_argument("--seed", type=int, default=0)
    p_dump.add_argument("--index", type=int, default=0, help="path index within the seed")

    args = parser.parse_args(argv)

    if args.command == "rho":
        model = model_by_name(args.model)
        value = kernels.rho(model, _measure_arg(args.mu), _measure_arg(args.nu),
                            tol=args.tol)
        print(f"{value:.12g}")
        return 0

    if args.command == "dump-path":
        from revuz_lab.simulate import rng_for, simulate_path

        model = model_by_name(args.model)
        cfg = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed)
        path = simulate_path(model, args.x0, cfg, rng_for(args.seed, args.index))
        print("t,x,alive")
        for t, x in zip(path.grid, path.states):
            alive = int(not (path.killed and t >= path.zeta))
            print(f"{t:.10g},{x:.10g},{alive}")
        return 0

    if args.command == "estimate":
        model = model_by_name(args.model)
        weighting = _weighting_arg(args.weighting)
        functional, name = _functional_arg(args.functional, args.alpha)
        cfg = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed)
        est = estimators.expect(model, weighting, functional, cfg, args.paths,
                                args.workers)
        row = {
            "name": name, "mean": est.mean, "std_error": est.std_error,
            "n": est.n, "tail_bound": est.tail_bound, "seed": est.seed,
        }
        if args.out == "json":
            print(json.dumps(row))
        else:
            print(",".join(row.keys()))
            print(",".join(str(v) for v in row.values()))
        return 0

    # run
    cfg = HarnessConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.config:
        file_values = _parse_config_file(args.config)
        casts = {"seed": int, "n_paths": int, "paths": int, "dt": float,
                 "horizon_sup": float, "horizon_disc": float, "workers": int}
        for key, text in file_values.items():
            if key == "paths":
                overrides["n_paths"] = int(text)
            elif key in casts:
                overrides[key] = casts[key](text)
            else:
                raise ValueError(f"unknown config key {key!r}")
    cfg = replace(cfg, **overrides)
    report = harness.run_experiment(args.experiment, cfg, out_dir=args.out)
    for row in report.rows:
        print(row)
    for name, ok in report.verdicts.items():
        print(f"verdict {name}: {'pass' if ok else 'FAIL'}")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
