#!/usr/bin/env python3
"""SHA-256 digests of a checkout's outputs, to check that a change keeps them
byte-identical.

    python3 scripts/output_digests.py --checkout ../parent --work /tmp/a > a.json
    python3 scripts/output_digests.py --checkout . --work /tmp/b > b.json
    python3 scripts/output_digests.py --compare a.json b.json

For each benchmark workload the script writes its seed-1 inputs with the
checkout's `perfbench/workloads.make_inputs`, then runs `flowdse explore` on
them with the plan's flags (seed, replications, --dedup) at --jobs 1 and at
--jobs 2. It then resumes the --jobs 2 run from a copy of its journal cut to
the header, half of its cell lines and half of the next line, as a kill can
leave it. The same three runs follow with `--stop-first --min-attainment`, the
threshold taken from the --jobs 1 run's results.csv (`stop_threshold`), so
that the stop lands past the first batch of cells where the best design does
(on seed 1, after 162 of case_study's 288 designs and 2603 of screening's
9216; long_run's best is its first design).
It also runs `flowdse simulate --trace` of case-study designs 37 and 500
under the bundled scenario1 with seed 0. It prints one JSON object that maps
each output file to its SHA-256: `<workload>/<run>/<file>` for results.csv,
plot.csv, pareto.json and journal.jsonl, where <run> is jobs1, jobs2,
resumed, stop_first_jobs1, stop_first_jobs2 or stop_first_resumed, and
`simulate/<trace file>` for the two traces. Everything it writes goes under
--work. No output may depend on the worker count or on an interruption, so
each file of a workload's jobs2 and resumed runs must be that of its jobs1
run, and each of its stop_first_jobs2 and stop_first_resumed runs that of
stop_first_jobs1. After printing the digests, the script names on stderr
every file that is not, and then exits 1; else it exits 0.

--compare reads two such files, names every file whose digest differs or
that only one of them has, and exits 1 if there is any; else it exits 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("case_study", "screening", "long_run")
JOBS = (1, 2)
EXPLORE_FILES = ("results.csv", "plot.csv", "pareto.json", "journal.jsonl")
TRACED_DESIGNS = (37, 500)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def flowdse(checkout: Path, *args: str) -> None:
    """Run the checkout's `flowdse` command line; stop if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "flowdse.cli", *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")


def make_inputs(checkout: Path):
    """The checkout's `perfbench/workloads.make_inputs`."""
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_inputs


def cut_journal(data: bytes) -> bytes:
    """The journal `data` cut to its header, half of its cell lines (rounded
    down) and the first half of the next line, if there is one."""
    head, *cells = data.splitlines(keepends=True)
    kept = len(cells) // 2
    torn = cells[kept][: len(cells[kept]) // 2] if kept < len(cells) else b""
    return head + b"".join(cells[:kept]) + torn


def stop_threshold(results_csv: Path) -> str:
    """A `--min-attainment` value for the first scenario in `results_csv`:
    the highest mean KPI of a design, so that `--stop-first` stops at the
    first design that reaches it. A mean adds its KPIs left to right, as
    explore does."""
    with open(results_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    scenario = rows[0]["scenario"]
    kpis: dict[str, list[float]] = {}
    for row in rows:
        if row["scenario"] == scenario:
            kpis.setdefault(row["design"], []).append(float(row["kpi"]))
    means = []
    for values in kpis.values():
        total = 0
        for value in values:
            total += value
        means.append(total / len(values))
    return f"{scenario}={max(means)!r}"


def explore_runs(checkout: Path, work: Path, name: str, flags: list[str]) -> dict[str, str]:
    """Digests of `explore` with `flags` at --jobs 1 and 2, and of the --jobs 2
    run resumed from its cut journal, under `work/<name>jobs<n>` and
    `work/<name>resumed`."""
    got = {}
    for jobs in JOBS:
        out = work / f"{name}jobs{jobs}"
        flowdse(checkout, "explore", *flags, "--jobs", str(jobs), "--out", str(out))
        for file in EXPLORE_FILES:
            got[f"{out.parent.name}/{out.name}/{file}"] = sha256(out / file)
    resumed = work / f"{name}resumed"
    resumed.mkdir(parents=True, exist_ok=True)
    (resumed / "journal.jsonl").write_bytes(
        cut_journal((work / f"{name}jobs2" / "journal.jsonl").read_bytes())
    )
    flowdse(checkout, "explore", *flags, "--jobs", "2", "--out", str(resumed))
    for file in EXPLORE_FILES:
        got[f"{resumed.parent.name}/{resumed.name}/{file}"] = sha256(resumed / file)
    return got


def digests(checkout: Path, work: Path) -> dict[str, str]:
    """Each output file's SHA-256, keyed as the module doc says."""
    got = {}
    write_inputs = make_inputs(checkout)
    for workload in WORKLOADS:
        inputs = work / workload / "inputs"
        plan = write_inputs(workload, 1, inputs)
        flags = ["--space", str(inputs / plan["space"]), "--seed", str(plan["base_seed"]),
                 "--replications", str(plan["replications"])]
        flags += ["--scenario", *(str(inputs / name) for name in plan["scenarios"])]
        if plan["dedup"]:
            flags.append("--dedup")
        got.update(explore_runs(checkout, work / workload, "", flags))
        threshold = stop_threshold(work / workload / "jobs1" / "results.csv")
        stop_flags = [*flags, "--stop-first", "--min-attainment", threshold]
        got.update(explore_runs(checkout, work / workload, "stop_first_", stop_flags))
    data = checkout / "src" / "flowdse" / "data"
    out = work / "simulate"
    for design in TRACED_DESIGNS:
        flowdse(checkout, "simulate", "--space", str(data / "case_study_space.json"),
                "--design", str(design), "--scenario", str(data / "scenario1.json"),
                "--seed", "0", "--trace", "--out", str(out))
        name = f"trace_design{design}_scenario1_seed0.csv"
        got[f"simulate/{name}"] = sha256(out / name)
    return got


def mismatched(got: dict[str, str]) -> list[str]:
    """The files of a jobs2 or resumed run whose digests are not those of the
    same workload's jobs1 run (stop_first_ runs against stop_first_jobs1), in
    order."""
    names = []
    for name in sorted(got):
        match = re.fullmatch(r"(.+/(?:stop_first_)?)(?:jobs2|resumed)(/.+)", name)
        if match and got[name] != got.get(f"{match[1]}jobs1{match[2]}"):
            names.append(name)
    return names


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The files whose digests differ, or that only one side has, in order."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT, help="checkout to run")
    parser.add_argument("--work", type=Path, help="directory for inputs and outputs")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two digest files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        names = differing(a, b)
        for name in names:
            print(f"differs: {name}")
        print(f"{len(names)} of {len(a.keys() | b.keys())} files differ")
        return 1 if names else 0
    if args.work is None:
        parser.error("--work is required unless --compare is given")
    got = digests(args.checkout.resolve(), args.work.resolve())
    print(json.dumps(got, indent=1))
    names = mismatched(got)
    for name in names:
        print(f"not as at --jobs 1: {name}", file=sys.stderr)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
