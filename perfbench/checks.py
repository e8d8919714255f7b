"""Checks of one explore's output files, computed apart from the program.

Nothing here imports flowdse or compares against a stored copy of earlier
output: every expected value is recomputed from the plan and the scenario
files the benchmark wrote. Each check returns a list of problems; an empty
list means the outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

TOL = 1e-9  # attainment and KPI recomputation
MASS_TOL_G = 1e-4  # masses are written rounded to 6 decimals


def cell_seed(base_seed: int, design: int, scenario: int, replication: int) -> int:
    """The README's derivation: SHA-256 of "base:cell:d:s:r", first 8 bytes."""
    text = f"{base_seed}:cell:{design}:{scenario}:{replication}"
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dominates(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def pareto_filter(vectors: dict[int, tuple[float, ...]]) -> set[int]:
    """O(n^2) pairwise dominance over the distinct vectors; designs that no other beats."""
    distinct = set(vectors.values())
    kept = {v for v in distinct if not any(dominates(w, v) for w in distinct)}
    return {d for d, v in vectors.items() if v in kept}


class Expectation:
    """What a correct explore must produce for one plan, from the benchmark's inputs."""

    def __init__(self, plan: dict, inputs: Path) -> None:
        self.plan = plan
        self.scenarios = [
            json.loads((inputs / name).read_text(encoding="utf-8")) for name in plan["scenarios"]
        ]
        self.scenario_index = {s["id"]: i for i, s in enumerate(self.scenarios)}

    def deterministic_injected(self, scenario: dict) -> int | None:
        """Sum over lanes of floor(horizon * rate / 60), in exact arithmetic."""
        if any(lane.get("process", "deterministic") != "deterministic" for lane in scenario["inflow"]):
            return None
        horizon = Fraction(str(scenario["horizon_s"]))
        return sum(
            math.floor(horizon * Fraction(str(lane["rate_per_min"])) / 60)
            for lane in scenario["inflow"]
        )

    def poisson_mean(self, scenario: dict) -> float:
        return sum(lane["rate_per_min"] for lane in scenario["inflow"]) * scenario["horizon_s"] / 60.0


def check_rows(exp: Expectation, rows: list[dict]) -> list[str]:
    """Per-row checks: seed, conservation, mass bound, bands, injected, attainment, KPI."""
    problems: list[str] = []
    plan = exp.plan
    replication_of: dict[tuple[int, int], int] = {}
    for n, row in enumerate(rows):
        where = f"results.csv row {n + 1}"
        s = exp.scenario_index.get(row["scenario"])
        if s is None:
            problems.append(f"{where}: unknown scenario {row['scenario']!r}")
            continue
        scenario = exp.scenarios[s]
        d = int(row["design"])
        r = replication_of.get((d, s), 0)
        replication_of[(d, s)] = r + 1

        if int(row["seed"]) != cell_seed(plan["base_seed"], d, s, r):
            problems.append(f"{where}: seed {row['seed']} is not the derivation for ({d}, {s}, {r})")

        tags = sorted({rec["destination"] for rec in scenario["recipes"]})
        injected = int(row["injected"])
        counted = sum(int(row[f"count_{t}"]) for t in tags if row.get(f"count_{t}", "") != "")
        in_flight = int(row["in_flight"])
        if injected != counted + in_flight:
            problems.append(
                f"{where}: injected {injected} != counts {counted} + in flight {in_flight}"
            )
        mass = sum(float(row[f"mass_{t}_g"]) for t in tags if row.get(f"mass_{t}_g", "") != "")
        out_mass = mass + float(row["trim_mass_g"])
        in_mass = float(row["injected_mass_g"])
        if in_mass < out_mass - MASS_TOL_G or (in_flight == 0 and abs(in_mass - out_mass) > MASS_TOL_G):
            problems.append(f"{where}: injected mass {in_mass} vs absorbed + trimmed {out_mass}")
        if int(row["band_violations"]) != 0:
            problems.append(f"{where}: {row['band_violations']} band violations")

        expected = exp.deterministic_injected(scenario)
        if expected is not None:
            if injected != expected:
                problems.append(f"{where}: injected {injected}, deterministic arrivals give {expected}")
        else:
            mean = exp.poisson_mean(scenario)
            if abs(injected - mean) > 5 * math.sqrt(mean):
                problems.append(f"{where}: injected {injected} is beyond 5 sigma of {mean:.1f}")

        minutes = scenario["horizon_s"] / 60.0
        attainments = []
        for rec in scenario["recipes"]:
            if rec["priority"] == "*":
                continue
            tag = rec["destination"]
            ratio = min(int(row[f"absorbed_{tag}"]) / minutes / rec["target_throughput_per_min"], 1.0)
            attainments.append(ratio)
            if abs(ratio - float(row[f"attainment_{tag}"])) > TOL:
                problems.append(f"{where}: attainment_{tag} {row[f'attainment_{tag}']} != {ratio}")
        kpi = sum(attainments) / len(attainments) if attainments else 0.0
        if abs(kpi - float(row["kpi"])) > TOL:
            problems.append(f"{where}: kpi {row['kpi']} != mean attainment {kpi}")
    return problems


def design_means(exp: Expectation, rows: list[dict]) -> dict[int, tuple[float, ...]]:
    """Per design, the mean KPI per scenario over replications, in row order."""
    kpis: dict[int, list[list[float]]] = {}
    for row in rows:
        d = int(row["design"])
        per = kpis.setdefault(d, [[] for _ in exp.scenarios])
        per[exp.scenario_index[row["scenario"]]].append(float(row["kpi"]))
    return {d: tuple(sum(k) / len(k) if k else math.nan for k in per) for d, per in kpis.items()}


def check_outputs(exp: Expectation, out_dir: Path) -> list[str]:
    """All checks of one explore's results.csv, plot.csv and pareto.json."""
    plan = exp.plan
    rows = read_csv(out_dir / "results.csv")
    plot = read_csv(out_dir / "plot.csv")
    pareto = json.loads((out_dir / "pareto.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    n_scen, n_rep = len(exp.scenarios), plan["replications"]
    if len(plot) != plan["designs"]:
        problems.append(f"plot.csv has {len(plot)} designs, expected {plan['designs']}")
    multiplicity = sum(int(p["multiplicity"]) for p in plot)
    if multiplicity != plan["configurations"]:
        problems.append(
            f"plot.csv multiplicities sum to {multiplicity}, expected {plan['configurations']} configurations"
        )
    if len(rows) != plan["designs"] * n_scen * n_rep:
        problems.append(
            f"results.csv has {len(rows)} rows, expected {plan['designs']} x {n_scen} x {n_rep}"
        )
    cells: dict[tuple[str, str], int] = {}
    for row in rows:
        key = (row["design"], row["scenario"])
        cells[key] = cells.get(key, 0) + 1
    plotted = {p["design"] for p in plot}
    for design in plotted:
        for scenario in exp.scenario_index:
            if cells.get((design, scenario), 0) != n_rep:
                problems.append(f"design {design} has {cells.get((design, scenario), 0)} rows for {scenario}")

    problems += check_rows(exp, rows)

    means = design_means(exp, rows)
    for p in plot:
        d = int(p["design"])
        for scenario, s in exp.scenario_index.items():
            if d in means and float(p[f"kpi_{scenario}"]) != round(means[d][s], 9):
                problems.append(f"plot.csv design {d}: kpi_{scenario} {p[f'kpi_{scenario}']} != {means[d][s]}")
    front = pareto_filter({int(p["design"]): means.get(int(p["design"]), ()) for p in plot})
    flagged = {int(p["design"]) for p in plot if p["pareto_optimal"] == "1"}
    if flagged != front:
        problems.append(
            f"pareto_optimal flags differ from the dominance filter on {len(flagged ^ front)} designs"
        )
    members = {m["design"] for m in pareto["members"]}
    if members != flagged:
        problems.append(f"pareto.json members differ from the flagged designs on {len(members ^ flagged)} designs")
    return problems
