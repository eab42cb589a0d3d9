"""Run one workload several times with different seeds and summarise.

    python3 perfbench/spread.py --workload event_paths --runs 10 --seconds 20

Each run is ``run.py`` in its own process.  For every end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median, which is the spread
the benchmark's bounds are set from.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.workers:
            cmd += ["--workers", str(args.workers)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              cwd=os.path.dirname(HERE))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"seed {seed} {line}")
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        line = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {json.dumps(line)}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    summary = {}
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[k] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}
        print(f"{k:16s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"iqr/median={(q3 - q1) / med:.3f}")
    print("(failed share, correct) over the runs:", sorted(shares))
    print(json.dumps({"workload": args.workload, "runs": args.runs, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
