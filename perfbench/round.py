"""One round of a workload, in a fresh process: set-up timing, explore, checks, resumes.

    python3 perfbench/round.py --inputs DIR --out DIR --trace 0|1

Reads the plan that workloads.py wrote into DIR, and prints one JSON object
as the last line of standard output. An operation is each explore or resume
call; it fails when it raises or when its outputs fail a check.

Untraced, the round first times the set-up calls that explore makes before
its first cell, several times, then times one explore call. Traced, it runs
explore at --jobs 1 inside the span wrappers of tracer.py and reports the
per-layer self times and counts instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import traced  # noqa: E402
from flowdse import runner  # noqa: E402
from flowdse.designspace import deduplicate, enumerate_configurations, load_design_space  # noqa: E402
from flowdse.runner import RunPlan, explore  # noqa: E402
from flowdse.scenario import load_scenario  # noqa: E402

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
ARTIFACTS = ("results.csv", "plot.csv", "pareto.json")
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0005  # probe_loop's time on the reference host


def probe_loop() -> tuple[float, float]:
    """Wall and thread CPU time of a fixed stretch of interpreter work.

    The CPU time's inverse is the host's speed now. Wall time would also count
    the time the probe waits for a core, which a busy worker pool causes.
    """
    start, cpu = time.perf_counter(), time.thread_time()
    table: dict[int, int] = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    return time.perf_counter() - start, time.thread_time() - cpu


class SpeedProbe:
    """Samples the host's speed with probe_loop every PROBE_INTERVAL_S (SIGALRM).

    On this kind of shared VM the speed of the same code drifts by up to a
    factor of two over seconds. A wall time measured inside the block becomes
    the time the same work takes at the reference speed, where probe_loop
    takes PROBE_REF_S of CPU time: take out the probes' own wall time (total)
    and multiply the rest by the mean speed the probes saw (speed()).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total = 0.0

    def _tick(self, signum, frame) -> None:
        wall, cpu = probe_loop()
        self.samples.append(cpu)
        self.total += wall

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        if not self.samples:
            self.samples.append(probe_loop()[1])
        return statistics.fmean(PROBE_REF_S / took for took in self.samples)


def time_setup(plan: RunPlan) -> tuple[list[float], float]:
    """Wall times of the set-up calls explore makes, probe time taken out, and the speed seen."""
    samples: list[float] = []
    with SpeedProbe() as probe:
        while len(samples) < SETUP_MIN_REPEATS or sum(samples) < SETUP_MIN_SECONDS:
            probed = probe.total
            start = time.perf_counter()
            space = load_design_space(plan.space_path)
            configs = list(enumerate_configurations(space))
            if plan.dedup:
                deduplicate(space, configs)
            for path in plan.scenario_paths:
                load_scenario(path)
            samples.append(time.perf_counter() - start - (probe.total - probed))
            del space, configs  # one set-up's objects alive at a time, below explore's peak
    return samples, probe.speed()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def artifacts(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


def tear_last_line(journal: Path) -> None:
    """Cut the journal's last record in half, as a kill mid-write leaves it."""
    data = journal.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    journal.write_bytes(data[: start + (len(data) - start) // 2])


class Round:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []

    def operation(self, name: str, call, check):
        """Run one operation; it fails if it raises or if check() reports problems."""
        self.attempted += 1
        try:
            result = call()
        except Exception as err:  # an operation's failure is counted, not fatal
            self.failed += 1
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            return None
        problems = check(result)
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:20]]
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs, out_dir = Path(args.inputs), Path(args.out)
    spec = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
    plan = RunPlan(
        space_path=str(inputs / spec["space"]),
        scenario_paths=tuple(str(inputs / s) for s in spec["scenarios"]),
        base_seed=spec["base_seed"],
        out_dir=str(out_dir),
        jobs=1 if args.trace else spec["jobs"],
        replications=spec["replications"],
        dedup=spec["dedup"],
    )
    expect = checks.Expectation(spec, inputs)
    shutil.rmtree(out_dir, ignore_errors=True)
    result: dict = {}
    rnd = Round()

    if args.trace:
        with traced(runner) as tracer:
            report = rnd.operation(
                "explore",
                lambda: tracer.call("runner.explore", explore, plan),
                lambda _: checks.check_outputs(expect, out_dir),
            )
        tracer.write(out_dir.parent / f"spans_{out_dir.name}.csv")
        result["layers"] = tracer.self_times()
        result["counts"] = dict(
            tracer.counts,
            **{
                "designspace.designs": len(tracer.design_keys),
                "designspace.behaviour_classes": len(set(tracer.design_keys.values())),
                "evaluator.front_size": len(report.front) if report else 0,
                "runner.cells": report.cells_executed if report else 0,
                "runner.journal_bytes": (out_dir / "journal.jsonl").stat().st_size,
            },
        )
        result["traced_explore_s"] = tracer.root_duration()
    else:
        setup, speed = time_setup(plan)
        result["setup_wall_s"] = setup
        result["setup_s"] = [s * speed for s in setup]
        timing = {}

        def timed_explore():
            with SpeedProbe() as probe:
                start = time.perf_counter()
                report = explore(plan)
                wall = time.perf_counter() - start
            timing["explore_wall_s"] = wall
            timing["explore_s"] = (wall - probe.total) * probe.speed()
            return report

        rnd.operation("explore", timed_explore, lambda _: checks.check_outputs(expect, out_dir))
        result["explore_s"] = timing.get("explore_s")
        result["explore_wall_s"] = timing.get("explore_wall_s")
        result["peak_rss_mb"] = peak_rss_mb()
    rows = checks.read_csv(out_dir / "results.csv") if rnd.failed == 0 else []
    result["injected"] = sum(int(row["injected"]) for row in rows)

    if spec["resumes"]:
        before = artifacts(out_dir)

        def unchanged(report, executed):
            problems = checks.check_outputs(expect, out_dir)
            if report.cells_executed != executed:
                problems.append(f"executed {report.cells_executed} cells, expected {executed}")
            problems += [f"{name} changed" for name, data in artifacts(out_dir).items() if data != before[name]]
            return problems

        rnd.operation("clean resume", lambda: explore(plan), lambda r: unchanged(r, 0))
        tear_last_line(out_dir / "journal.jsonl")
        rnd.operation("torn-journal resume", lambda: explore(plan), lambda r: unchanged(r, 1))

    result.update(
        attempted=rnd.attempted,
        failed=rnd.failed,
        problems=rnd.problems,
        failures=rnd.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
