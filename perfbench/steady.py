"""Steadiness of one workload: run it k times, each with another seed, and summarise.

    python3 perfbench/steady.py --workload screening --runs 10 --seconds 32

For every end-to-end metric the run prints, shows the median, the first and
third quartiles (statistics.quantiles, n=4), the quartile spread as a share of
the median, and the max/min ratio. Also shows the share of failed operations,
which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        line = [f"seed {seed}:"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            line.append(f"{name}={metric['value']:.6g}")
        print(" ".join(line), flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {args.seconds:g} s")
    print(f"(failed share, correct) seen: {sorted(shares)}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'max/min':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        ratio = max(vals) / min(vals) if min(vals) else float("inf")
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {ratio:8.3f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
