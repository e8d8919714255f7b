"""Batch orchestration: enumerate, construct, simulate, evaluate, report.

A run plan expands into cells, one per (design, scenario, replication).
`run_cell`, the one cell path, builds a cell, runs it and scores it into its
flat record; `explore` runs it for every cell and `simulate` for one. Cells
are independent, so they fan out over a worker pool. The space is enumerated
once, in the parent: each cell carries its design's configuration, and a
worker loads only the space and the scenarios, compiling each distinct lane
wiring once (`compile_design`). Every cell's record is appended to a journal
file before anything else happens with it, which makes interrupted batches
resumable without recomputation. The journal is also the record store: a
worker hands back its record as JSON text, the parent writes it as a journal
line and keeps only the cell's KPI and the line's byte offset, and results.csv
is streamed back from those lines, for fresh and resumed cells alike. Results
are keyed and sorted by cell, so the output files are identical for any
worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Iterator

from flowdse.designspace import (
    DesignConfiguration,
    DesignSpace,
    enumerate_configurations,
    deduplicate,
    load_design_space,
)
from flowdse.evaluator import (
    KpiVector,
    ParetoFront,
    result_columns,
    score,
    write_pareto_json,
    write_plot_csv,
    write_results_csv,
)
from flowdse.kernel import derive_seed
from flowdse.plant import PlantSimulation
from flowdse.scenario import EmpiricalWeights, Scenario, compatibility_issues, load_scenario

JOBS_ENV_VAR = "FLOWDSE_JOBS"


class PlanError(ValueError):
    """Bad plan inputs (files, thresholds, journal mismatch)."""


@dataclass(frozen=True)
class RunPlan:
    space_path: str
    scenario_paths: tuple[str, ...]
    base_seed: int
    out_dir: str
    jobs: int = 1
    replications: int = 1
    dedup: bool = False
    stop_first: bool = False
    min_attainment: tuple[tuple[str, float], ...] = ()  # (scenario id, threshold)
    clamp: bool = True

    def fingerprint(self, scenarios: list[Scenario]) -> dict:
        """What a resumed run must agree on for the journal to be reusable. Inputs
        count by content: the SHA-256 of the space, of each scenario (loaded as
        `scenarios`) and of each empirical weight file they read."""
        weight_files = [
            lane.weights.path
            for scenario in scenarios
            for lane in scenario.inflow
            if isinstance(lane.weights, EmpiricalWeights)
        ]
        return {
            "space_sha256": _sha256(self.space_path),
            "scenarios_sha256": [_sha256(p) for p in self.scenario_paths],
            "weight_files_sha256": [_sha256(p) for p in weight_files],
            "seed": self.base_seed,
            "replications": self.replications,
            "dedup": self.dedup,
            "clamp": self.clamp,
        }


@dataclass
class ExplorationReport:
    designs_evaluated: int
    cells_executed: int
    cells_resumed: int
    front: ParetoFront
    vectors: list[KpiVector]
    stopped_at_design: int | None
    wall_s: float
    out_dir: Path
    files: dict[str, Path] = field(default_factory=dict)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise PlanError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    return 1


def cell_seed(base_seed: int, design_index: int, scenario_index: int, replication: int) -> int:
    """Pure function of the cell coordinates; no cell perturbs another."""
    return derive_seed(base_seed, "cell", design_index, scenario_index, replication)


# -- worker side -------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(space_path: str, scenario_paths: tuple[str, ...], clamp: bool) -> None:
    _WORKER["space"] = load_design_space(space_path)
    _WORKER["scenarios"] = [load_scenario(p) for p in scenario_paths]
    _WORKER["clamp"] = clamp


def run_cell(
    space: DesignSpace,
    config: DesignConfiguration,
    scenario: Scenario,
    seed: int,
    clamp: bool,
    trace: bool = False,
) -> tuple[dict, list[tuple] | None]:
    """Build, run and score one cell: its record, and its trace rows if asked."""
    sim = PlantSimulation(space, config, scenario, seed, trace=trace)
    record = score(sim.run(), scenario, config.index, seed, clamp=clamp)
    return record, sim.trace_rows


def _run_cell(
    cell: tuple[DesignConfiguration, int, int, int]
) -> tuple[tuple[int, int, int], float, str]:
    """One cell of `explore`: its key, its KPI and its record as JSON text."""
    config, scenario_index, replication, base_seed = cell
    seed = cell_seed(base_seed, config.index, scenario_index, replication)
    record, _ = run_cell(
        _WORKER["space"], config, _WORKER["scenarios"][scenario_index], seed, _WORKER["clamp"]
    )
    return (config.index, scenario_index, replication), record["kpi"], json.dumps(record)


def simulate_single(
    space_path: str,
    design_index: int,
    scenario_path: str,
    seed: int,
    trace: bool = False,
    clamp: bool = True,
) -> tuple[dict, list[tuple] | None]:
    """One replication with its exact cell inputs; optionally with a trace."""
    space = load_design_space(space_path)
    config = None
    if design_index >= 0:  # enumeration order is fixed, so the index is a position
        config = next(islice(enumerate_configurations(space), design_index, None), None)
    if config is None:
        count = sum(1 for _ in enumerate_configurations(space))
        raise PlanError(f"design index {design_index} out of range 0..{count - 1}")
    scenario = load_scenario(scenario_path)
    _check_compatibility(space, [scenario])
    return run_cell(space, config, scenario, seed, clamp, trace=trace)


def _check_compatibility(space: DesignSpace, scenarios: list[Scenario]) -> None:
    issues = []
    for scenario in scenarios:
        issues.extend(
            compatibility_issues(scenario, space.destination_tags, space.lanes)
        )
    if issues:
        raise PlanError("; ".join(issues))


# -- batch driver ------------------------------------------------------------


def progress_line(done: int, total: int, executed: int, left: int, elapsed_s: float) -> str:
    """Cells done of the total, the rate of the cells executed in this run's
    `elapsed_s`, and the time the cells `left` take at that rate."""
    rate = executed / elapsed_s if elapsed_s > 0 else 0.0
    eta = f"{left / rate:.0f} s" if rate > 0 else "unknown"
    return f"{done}/{total} cells, {rate:.1f} cells/s, ETA {eta}"


def _load_journal(
    path: Path, fingerprint: dict
) -> tuple[dict[tuple[int, int, int], tuple[float, int]], int]:
    """The cells a journal records, each as its KPI and the byte offset of its
    line, and the byte length of the journal's intact part.

    Every record is written as one line and flushed, so a kill mid-write can
    only tear the last line. A last line that is torn (no newline) or does
    not parse is dropped: its cell runs again, and the caller truncates the
    file to the intact length before appending. A header that is torn before
    its newline leaves nothing to keep (length 0). Any other bad line is
    corruption and a `PlanError`.
    """
    completed: dict[tuple[int, int, int], tuple[float, int]] = {}
    if not path.exists():
        return completed, 0
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            return completed, 0
        try:
            head = json.loads(header)
        except ValueError:
            head = None
        if not isinstance(head, dict):
            raise PlanError(f"{path} is corrupt (bad header line)")
        plan = head.get("plan")
        if isinstance(plan, dict) and "space" in plan:
            raise PlanError(
                f"{path} names its inputs by file name only, so edited inputs cannot be "
                f"told apart; start afresh: use a fresh --out directory or remove the journal"
            )
        if plan != fingerprint:
            raise PlanError(
                f"{path} was written by a different plan; "
                f"use a fresh --out directory or matching inputs"
            )
        intact = len(header)
        for number, line in enumerate(fh, start=2):
            if not line.endswith(b"\n"):
                break  # torn
            try:
                if line.strip():
                    entry = json.loads(line)
                    completed[tuple(entry["cell"])] = (entry["result"]["kpi"], intact)
            except (ValueError, KeyError, TypeError):
                if not fh.read(1):
                    break  # an unparsable last line: drop it like a torn one
                raise PlanError(f"{path} is corrupt (bad line {number})") from None
            intact += len(line)
    return completed, intact


def _journal_records(path: Path, offsets: Iterable[int]) -> Iterator[dict]:
    """The records of the journal lines at `offsets`, read back one at a time."""
    with open(path, "rb") as fh:
        for offset in offsets:
            fh.seek(offset)
            yield json.loads(fh.readline())["result"]


def _phase_times(started: float, ends: dict[str, float]) -> dict[str, float]:
    """Each phase's seconds, from the end times of consecutive phases that
    start at `started`. Each end is rounded to the millisecond first, so the
    phases add up to the rounded wall time."""
    phases = {}
    last = 0.0
    for name, end in ends.items():
        at = round(end - started, 3)
        phases[name] = round(at - last, 3)
        last = at
    return phases


def explore(plan: RunPlan, echo=None) -> ExplorationReport:
    started = time.perf_counter()
    say = echo or (lambda *_: None)
    ends: dict[str, float] = {}  # phase -> when it ended; the phases tile the run

    for sid, minimum in plan.min_attainment:
        if not minimum >= 0:  # NaN too: every KPI would "meet" it
            raise PlanError(f"--min-attainment {sid}={minimum}: ratio must be non-negative")
    space = load_design_space(plan.space_path)
    scenarios = [load_scenario(p) for p in plan.scenario_paths]
    if not scenarios:
        raise PlanError("at least one scenario file is required")
    _check_compatibility(space, scenarios)

    scenario_ids = [s.scenario_id for s in scenarios]
    if len(set(scenario_ids)) != len(scenario_ids):
        raise PlanError(f"duplicate scenario ids: {scenario_ids}")
    thresholds = dict(plan.min_attainment)
    unknown = set(thresholds) - set(scenario_ids)
    if unknown:
        raise PlanError(f"thresholds reference unknown scenarios: {sorted(unknown)}")
    if plan.stop_first and not thresholds:
        raise PlanError("--stop-first needs at least one --min-attainment threshold")
    if plan.replications < 1:
        raise PlanError(f"--replications must be at least 1, got {plan.replications}")
    ends["load"] = time.perf_counter()

    configs = list(enumerate_configurations(space))
    ends["enumerate"] = time.perf_counter()
    say(f"{space.space_id}: {len(configs)} configurations")
    if plan.dedup:
        distinct = deduplicate(space, configs)
        design_indices = [rep.index for rep, _ in distinct]
        multiplicity = {rep.index: mult for rep, mult in distinct}
        ends["dedup"] = time.perf_counter()
        say(f"deduplicated to {len(distinct)} distinct designs")
    else:
        ends["dedup"] = ends["enumerate"]
        design_indices = list(range(len(configs)))
        multiplicity = {i: 1 for i in design_indices}

    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / "journal.jsonl"
    fingerprint = plan.fingerprint(scenarios)
    completed, intact = _load_journal(journal_path, fingerprint)
    if completed:
        say(f"journal: {len(completed)} cells already done")

    per_design = len(scenarios) * plan.replications
    cells_total = len(design_indices) * per_design
    # a cell carries its configuration, so that no worker enumerates the space
    pending = [
        (configs[d], s, r, plan.base_seed)
        for d in design_indices
        for s in range(len(scenarios))
        for r in range(plan.replications)
        if (d, s, r) not in completed
    ]

    # newline="": the offsets kept below count bytes, and json.dumps writes ASCII
    journal = open(journal_path, "a", encoding="utf-8", newline="")
    journal.truncate(intact)  # drop a torn last line so the next record starts clean
    offset = intact
    if not intact:
        header = json.dumps({"plan": fingerprint}) + "\n"
        journal.write(header)
        journal.flush()
        offset = len(header)

    # the journal keeps the records; the parent keeps each cell's KPI and line offset
    collected: dict[tuple[int, int, int], tuple[float, int]] = dict(completed)
    stopped_at = None

    def design_done(d: int) -> bool:
        return all(
            (d, s, r) in collected
            for s in range(len(scenarios))
            for r in range(plan.replications)
        )

    def mean_kpi(d: int, s: int) -> float:
        kpis = [collected[(d, s, r)][0] for r in range(plan.replications)]
        return sum(kpis) / len(kpis)

    def meets_thresholds(d: int) -> bool:
        for sid, minimum in thresholds.items():
            if mean_kpi(d, scenario_ids.index(sid)) < minimum:
                return False
        return True

    executed = 0
    pool = None
    loop_started = time.perf_counter()
    try:
        if plan.jobs <= 1 or not pending:
            _init_worker(plan.space_path, plan.scenario_paths, plan.clamp)
            stream = map(_run_cell, pending)
        else:
            pool = Pool(
                processes=plan.jobs,
                initializer=_init_worker,
                initargs=(plan.space_path, plan.scenario_paths, plan.clamp),
            )
            if plan.stop_first:
                chunk = 1  # keep the journal aligned with evaluation order
            else:
                chunk = max(1, min(16, len(pending) // (plan.jobs * 4) or 1))
            stream = pool.imap(_run_cell, pending, chunksize=chunk)

        for key, kpi, text in stream:
            # byte for byte what json.dumps({"cell": list(key), "result": record}) gives
            line = '{"cell": ' + json.dumps(list(key)) + ', "result": ' + text + "}\n"
            journal.write(line)
            journal.flush()
            collected[key] = (kpi, offset)
            offset += len(line)
            executed += 1
            if executed % (per_design * 64) == 0 or executed == len(pending):
                say(progress_line(len(collected), cells_total, executed,
                                  len(pending) - executed, time.perf_counter() - loop_started))
            if plan.stop_first:
                d = key[0]
                if design_done(d) and meets_thresholds(d):
                    stopped_at = d
                    break
    finally:
        journal.close()
        if pool is not None:
            # every cell wanted is in, or stop-first stopped, or a cell raised
            pool.terminate()
            pool.join()
    ends["simulate"] = time.perf_counter()

    if plan.stop_first and stopped_at is None:
        # honor journal-resumed qualifiers from an interrupted earlier run
        for d in design_indices:
            if design_done(d) and meets_thresholds(d):
                stopped_at = d
                break

    candidates = design_indices
    if plan.stop_first and stopped_at is not None:
        # truncate in evaluation order; under dedup the representative indices
        # are not necessarily ascending
        candidates = design_indices[: design_indices.index(stopped_at) + 1]
    evaluated = [d for d in candidates if design_done(d)]

    vectors = [
        KpiVector(d, tuple(mean_kpi(d, s) for s in range(len(scenarios))), multiplicity[d])
        for d in evaluated
    ]
    front = ParetoFront.from_vectors(vectors)

    offsets = (
        collected[(d, s, r)][1]
        for d in evaluated
        for s in range(len(scenarios))
        for r in range(plan.replications)
    )
    columns = result_columns(scenarios)
    files = {
        "results": out_dir / "results.csv",
        "pareto": out_dir / "pareto.json",
        "plot": out_dir / "plot.csv",
        "journal": journal_path,
        "meta": out_dir / "meta.json",
    }
    write_results_csv(files["results"], _journal_records(journal_path, offsets), columns)
    wiring = {d: configs[d].chosen for d in front.design_indices()}
    write_pareto_json(files["pareto"], front, scenario_ids, wiring)
    write_plot_csv(files["plot"], vectors, scenario_ids, front)
    ends["write"] = time.perf_counter()

    wall = ends["write"] - started
    meta = {
        "plan": fingerprint,
        "jobs": plan.jobs,
        "stop_first": plan.stop_first,
        "min_attainment": dict(plan.min_attainment),
        "configurations": len(configs),
        "designs_evaluated": len(evaluated),
        "cells_total": cells_total,
        "cells_executed": executed,
        "cells_resumed": len(completed),
        "front_size": len(front),
        "stopped_at_design": stopped_at,
        "wall_s": round(wall, 3),
        "phases_s": _phase_times(started, ends),
    }
    files["meta"].write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")

    return ExplorationReport(
        designs_evaluated=len(evaluated),
        cells_executed=executed,
        cells_resumed=len(completed),
        front=front,
        vectors=vectors,
        stopped_at_design=stopped_at,
        wall_s=wall,
        out_dir=out_dir,
        files=files,
    )


def validate_inputs(space_path: str, scenario_paths: list[str]) -> tuple[str, list[str]]:
    """Static checks only; returns (summary line, violation list)."""
    from flowdse.designspace import DesignSpaceError
    from flowdse.scenario import ScenarioError

    violations: list[str] = []
    space = None
    try:
        space = load_design_space(space_path)
    except DesignSpaceError as err:
        violations.append(str(err))

    n_configs = n_distinct = 0
    if space is not None:
        configs = list(enumerate_configurations(space))
        n_configs = len(configs)
        n_distinct = len(deduplicate(space, configs))

    for path in scenario_paths:
        try:
            scenario = load_scenario(path)
        except ScenarioError as err:
            violations.append(str(err))
            continue
        if space is not None:
            violations.extend(
                compatibility_issues(scenario, space.destination_tags, space.lanes)
            )

    summary = (
        f"{n_configs} configurations, {n_distinct} distinct, "
        f"{len(violations)} violations"
    )
    return summary, violations
