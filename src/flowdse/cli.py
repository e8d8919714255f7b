"""Command-line front end.

Three commands: `explore` runs the full enumerate-construct-simulate-evaluate
batch and writes results.csv, pareto.json, plot.csv plus a resumable journal;
`simulate` runs one (design, scenario, seed) cell, optionally with a
per-fillet trace; `validate` statically checks input files and prints the
configuration counts.

Exit codes: 0 success, 1 invalid inputs, 2 runtime failure, 130 interrupted
(Ctrl-C); an interrupted `explore` resumes when run again.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from pathlib import Path

from flowdse.designspace import DesignSpaceError, PlantBuildError
from flowdse.runner import (
    JOBS_ENV_VAR,
    PlanError,
    RunPlan,
    default_jobs,
    explore,
    simulate_single,
    validate_inputs,
)
from flowdse.scenario import ScenarioError

# a design that cannot be built cannot serve the scenario: bad inputs, not a bug
INPUT_ERRORS = (
    DesignSpaceError,
    ScenarioError,
    PlanError,
    PlantBuildError,
    FileNotFoundError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    """A parser that exits 1 on a bad command line, as on any other bad input:
    exit code 2 is kept for runtime failures. Subparsers share the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _threshold(text: str) -> tuple[str, float]:
    scenario, sep, ratio = text.partition("=")
    if not sep or not scenario:
        raise argparse.ArgumentTypeError(
            f"expected SCENARIO=RATIO, got {text!r}"
        )
    try:
        return scenario, float(ratio)  # its range is explore's to check
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ratio in {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowdse",
        description="Design-space exploration for modular flow-production lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explore", help="simulate every design under every scenario")
    ex.add_argument("--space", required=True, help="design-space JSON file")
    ex.add_argument(
        "--scenario",
        required=True,
        nargs="+",
        action="extend",
        default=[],
        metavar="FILE",
        help="scenario JSON file(s); repeatable",
    )
    ex.add_argument("--seed", type=_seed, default=0, help="64-bit base seed")
    ex.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"worker processes (default: ${JOBS_ENV_VAR} or 1)",
    )
    ex.add_argument("--replications", type=int, default=1, help="replications per cell")
    ex.add_argument(
        "--dedup",
        action="store_true",
        help="simulate one representative per class of interchangeable designs",
    )
    ex.add_argument(
        "--stop-first",
        action="store_true",
        help="stop at the first design meeting every --min-attainment threshold",
    )
    ex.add_argument(
        "--min-attainment",
        type=_threshold,
        nargs="+",
        action="extend",
        default=[],
        metavar="SCENARIO=RATIO",
        help="per-scenario KPI threshold, e.g. scenario1=0.8",
    )
    ex.add_argument(
        "--no-clamp",
        action="store_true",
        help="report raw achieved/target ratios, letting overshoot exceed 1.0",
    )
    ex.add_argument("--out", required=True, help="output directory (resumable)")

    one = sub.add_parser("simulate", help="run a single (design, scenario, seed) cell")
    one.add_argument("--space", required=True)
    one.add_argument("--design", required=True, type=int, help="design index")
    one.add_argument("--scenario", required=True)
    one.add_argument("--seed", type=_seed, default=0)
    one.add_argument("--trace", action="store_true", help="write a per-fillet event trace")
    one.add_argument("--no-clamp", action="store_true")
    one.add_argument("--out", default=".", help="directory for the trace file")

    val = sub.add_parser("validate", help="static checks on space and scenario files")
    val.add_argument("--space", required=True)
    val.add_argument(
        "--scenario", nargs="+", action="extend", default=[], metavar="FILE"
    )
    return parser


def _cmd_explore(args) -> int:
    plan = RunPlan(
        space_path=args.space,
        scenario_paths=tuple(args.scenario),
        base_seed=args.seed,
        out_dir=args.out,
        jobs=args.jobs if args.jobs is not None else default_jobs(),
        replications=args.replications,
        dedup=args.dedup,
        stop_first=args.stop_first,
        min_attainment=tuple(args.min_attainment),
        clamp=not args.no_clamp,
    )
    report = explore(plan, echo=lambda msg: print(msg, file=sys.stderr))
    summary = {
        "designs_evaluated": report.designs_evaluated,
        "cells_executed": report.cells_executed,
        "cells_resumed": report.cells_resumed,
        "front_size": len(report.front),
        "stopped_at_design": report.stopped_at_design,
        "wall_s": round(report.wall_s, 3),
        "files": {name: str(path) for name, path in report.files.items()},
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    record, trace_rows = simulate_single(
        args.space,
        args.design,
        args.scenario,
        args.seed,
        trace=args.trace,
        clamp=not args.no_clamp,
    )
    if trace_rows is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / (
            f"trace_design{args.design}_{record['scenario']}_seed{args.seed}.csv"
        )
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "module", "fillet", "weight_g", "action"])
            writer.writerows(trace_rows)
        record["trace_file"] = str(trace_path)
        record["trace_rows"] = len(trace_rows)
    print(json.dumps(record, indent=2))
    return 0


def _cmd_validate(args) -> int:
    summary, violations = validate_inputs(args.space, args.scenario)
    print(summary)
    for violation in violations:
        print(f"  - {violation}")
    return 0 if not violations else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "explore": _cmd_explore,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        resume = "; the journal keeps the finished cells, and the same command resumes"
        print(f"interrupted{resume if args.command == 'explore' else ''}", file=sys.stderr)
        return 130
    except Exception as err:  # simulation bugs must abort loudly, not pass silently
        traceback.print_exc()
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
