"""Benchmark of flowdse: one workload, end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 32 --trace 0

Run from the root of a checkout. The run writes the workload's inputs from
--seed, then runs whole rounds (round.py), each in a fresh process, while the
time left holds another round; it always runs at least one. It prints one
JSON object as its last line: whether every checked output was correct, the
operations attempted and failed, and the metrics, each the median over the
run's rounds (set-up time: over every set-up repeat of every round).

Everything it writes goes under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_inputs  # noqa: E402

ROUND_TIMEOUT_S = 170


def run_round(inputs: Path, out: Path, trace: int) -> dict:
    """One round in a fresh process group, so a timed-out round takes its pool workers with it."""
    cmd = [sys.executable, str(HERE / "round.py"), "--inputs", str(inputs), "--out", str(out),
           "--trace", str(trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"round took longer than {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"round exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict]) -> dict:
    done = [r for r in rounds if r["explore_s"] is not None]
    if not done:
        raise SystemExit("no explore call completed; nothing to time")
    return {
        "setup_s": (statistics.median(s for r in rounds for s in r["setup_s"]), "s"),
        "explore_s": (statistics.median(r["explore_s"] for r in done), "s"),
        "fillets_per_s": (statistics.median(r["injected"] / r["explore_s"] for r in done), "fillets/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def wall_times(rounds: list[dict]) -> str:
    """The unscaled wall times, for reading next to the scaled metrics."""
    setup = statistics.median(s for r in rounds for s in r["setup_wall_s"])
    explore = [f"{r['explore_wall_s']:.3f}" for r in rounds if r["explore_wall_s"] is not None]
    return f"wall: setup {setup:.6f} s, explore {' '.join(explore)} s"


def per_layer(rounds: list[dict]) -> dict:
    metrics = {
        name: (statistics.median(r["layers"][name] for r in rounds), "s")
        for name in rounds[0]["layers"]
    }
    metrics["traced.explore_s"] = (statistics.median(r["traced_explore_s"] for r in rounds), "s")
    first = rounds[0]["counts"]
    for r in rounds[1:]:
        if r["counts"] != first:
            raise SystemExit(f"counts differ between rounds: {first} vs {r['counts']}")
    for name, value in first.items():
        metrics[name] = (value, "bytes" if name == "runner.journal_bytes" else "count")
    metrics["controller.changed_share"] = (
        first["controller.recomputes_changed"] / first["controller.recomputes"]
        if first["controller.recomputes"] else 0.0,
        "ratio",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowdse" / "runner.py").is_file():
        print(f"no flowdse sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    make_inputs(args.workload, args.seed, inputs)

    started = time.perf_counter()
    rounds: list[dict] = []
    longest = 0.0
    while not rounds or time.perf_counter() - started + longest <= args.seconds:
        begun = time.perf_counter()
        out = work / f"round{len(rounds)}"
        rounds.append(run_round(inputs, out, args.trace))
        shutil.rmtree(out, ignore_errors=True)
        longest = max(longest, time.perf_counter() - begun)

    for r in rounds:
        for line in r["failures"] + r["problems"]:
            print(line, file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"{args.workload}: {len(rounds)} rounds in {time.perf_counter() - started:.1f} s")
    if not args.trace:
        print(wall_times(rounds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
