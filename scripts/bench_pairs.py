#!/usr/bin/env python3
"""Run alternating pairs of `perfbench/run.py` on two checkouts and summarise them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload case_study,long_run --seeds 12-21 --seconds 32 --logs /tmp/pairs

--workload takes one workload or a comma-separated list, run one after the
other. Pair k runs one seed on both checkouts, the parent first when k is even
and the change first when k is odd. Each run's standard output and standard error
go to their own file under --logs, so an exception that made a run count a
failed operation can be read afterwards. The script prints one line per run
(its metrics and its `failed` count), then per metric each side's median and
quartiles, their ratio, in how many pairs the change was better (ties count
for neither side), whether the change's median is worse than the parent's
by more than the metric's `bound`, a fraction of the parent's median, and
whether the pairs show a gain: the change better in at least 9 of every 10
pairs, and its median better than the parent's by more than the parent's
quartile spread; then each side's failed operations out of those attempted.
One summary per workload is printed once every workload has run. Metric
names, units, directions and bounds come from the change's BENCHMARK.json.
Each workload's results are also written to --logs as <workload>-pairs.json, with
each checkout's `git rev-parse HEAD` and whether it had uncommitted changes,
as read before the first run; the summary prints them too. The file is
rewritten after every pair, so a run that fails (the script then stops)
leaves the pairs finished before it on disk.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """'12-21' or '1,4,9' as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, log: Path) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    log.write_text(
        f"$ {' '.join(cmd)}  (in {checkout}, exit {proc.returncode})\n"
        f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}",
        encoding="utf-8",
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited with {proc.returncode}; see {log}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checkout_state(checkout: Path) -> dict:
    """The checkout's path, HEAD commit and whether `git status` shows any
    change to it; HEAD and dirty are None outside a git work tree."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    if head.returncode or status.returncode:
        return {"path": str(checkout), "head": None, "dirty": None}
    return {"path": str(checkout), "head": head.stdout.strip(), "dirty": bool(status.stdout)}


def describe(state: dict) -> str:
    if state["head"] is None:
        return f"{state['path']} (not a git work tree)"
    return f"{state['head']}{' with uncommitted changes' if state['dirty'] else ''}"


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the two quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def run_pairs(sides: dict, states: dict, workload: str, args, metrics: list) -> list[dict]:
    """Alternating pairs of one workload, each run printed as it ends; the
    pairs file is written again after each pair, so a failed run keeps the
    pairs finished before it."""
    pairs = []
    record = args.logs / f"{workload}-pairs.json"
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            log = args.logs / f"{workload}-seed{seed}-{side}.log"
            result = run_once(sides[side], workload, seed, args.seconds, log)
            pair[side] = result
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics
            )
            print(f"{workload} seed {seed} {side:6s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        pairs.append(pair)
        record.write_text(
            json.dumps({"checkouts": states, "pairs": pairs}, indent=1) + "\n", encoding="utf-8"
        )
    return pairs


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse the change's value is than the parent's, as a fraction of
    the parent's; negative when it is better."""
    lost = change - parent if metric["better"] == "lower" else parent - change
    return lost / parent


def summarise(
    workload: str, pairs: list[dict], states: dict, seeds: list[int], metrics: list
) -> None:
    print(f"\n{workload}: {len(pairs)} pairs, seeds {seeds[0]}..{seeds[-1]}")
    for side in SIDES:
        print(f"  {side}: {describe(states[side])}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(got["parent"], got["change"])
        )
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(got["parent"]), spread(got["change"])
        print(f"  {name} ({m['unit']}, {m['better']} is better): parent {pm:.6g} "
              f"[{pq1:.6g}, {pq3:.6g}]  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]  "
              f"ratio {cm / pm:.4f}  change better in {wins}/{len(pairs)}; "
              f"parent quartile spread {pq3 - pq1:.6g}, medians differ by {abs(cm - pm):.6g}")
        worse, bound = worse_by(m, pm, cm), m["bound"]
        print(f"    {'PAST' if worse > bound else 'within'} its bound: the change's median is "
              f"{worse:+.2%} worse than the parent's (bound {bound:.0%})")
        # a gain is shown by 9 wins in 10 pairs and medians apart by more than
        # the parent's quartile spread, in the better direction
        gain = (pm - cm) if lower else (cm - pm)
        shown = 10 * wins >= 9 * len(pairs) and gain > pq3 - pq1
        print(f"    gain {'shown' if shown else 'not shown'}: change better in {wins}/{len(pairs)} "
              f"(needs 9/10), median better by {gain:.6g} (needs more than {pq3 - pq1:.6g})")
    shares = []
    for side in SIDES:
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        shares.append(f"{side} {failed}/{attempted}")
    print(f"  failed operations: {', '.join(shares)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, type=lambda text: text.split(","),
                        help="e.g. long_run or case_study,long_run")
    parser.add_argument("--seeds", required=True, type=seed_list, help="e.g. 12-21 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--logs", required=True, type=Path, help="directory for run logs")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    args.logs.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    states = {side: checkout_state(path) for side, path in sides.items()}
    results = {w: run_pairs(sides, states, w, args, metrics) for w in args.workload}
    for workload, pairs in results.items():
        summarise(workload, pairs, states, args.seeds, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
