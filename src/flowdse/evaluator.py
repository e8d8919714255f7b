"""Scoring and multi-objective comparison of simulated designs.

score() turns one cell's raw tallies into its record: per-recipe attainment
ratios and a scalar KPI (mean attainment over the non-default recipes), in
the flat form of its results.csv row (`row_formatter`), the row the journal
holds. KpiVector collects one KPI per scenario for a design; ParetoFront
keeps the vectors not dominated by any other, maximizing every component.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable

from flowdse.kernel import left_sum
from flowdse.plant import RunTallies
from flowdse.scenario import Scenario


def score(
    tallies: RunTallies,
    scenario: Scenario,
    design_index: int,
    seed: int,
    clamp: bool = True,
) -> dict:
    """One cell's record: per-recipe throughput attainment from raw tallies.

    attainment = achieved / target, clamped to 1.0 unless disabled; the KPI is
    the mean over non-default recipes, so an unservable recipe pulls it down
    with an attainment of 0 and overshooting one recipe cannot mask another.
    The record is flat: `row_formatter` writes it as it is. The default recipe
    has no attainment column.
    """
    minutes = scenario.horizon_s / 60.0
    record = {
        "design": design_index,
        "scenario": scenario.scenario_id,
        "seed": seed,
        "kpi": 0.0,  # set once the recipes are scored; the key keeps its place
        "injected": tallies.injected,
        "injected_mass_g": round(tallies.injected_mass_g, 6),
        "trim_mass_g": round(tallies.trim_mass_g, 6),
        "in_flight": tallies.in_flight,
        "band_violations": tallies.band_violations,
    }
    non_default = []
    for recipe, (absorbed_key, achieved_key, attainment_key), absorbed in zip(
        scenario.recipes, scenario.recipe_columns, tallies.recipe_counts, strict=True
    ):
        achieved = absorbed / minutes
        record[absorbed_key] = absorbed
        record[achieved_key] = round(achieved, 9)
        if attainment_key is not None:
            attainment = achieved / recipe.target_per_min
            if clamp:
                attainment = min(attainment, 1.0)
            non_default.append(attainment)
            record[attainment_key] = round(attainment, 9)
    if non_default:
        record["kpi"] = left_sum(non_default) / len(non_default)
    for tag, n in sorted(tallies.counts.items()):
        record[f"count_{tag}"] = n
    for tag, mass in sorted(tallies.masses.items()):
        record[f"mass_{tag}_g"] = round(mass, 6)
    return record


@dataclass(frozen=True)
class KpiVector:
    design_index: int
    values: tuple[float, ...]  # one KPI per scenario, fixed order
    multiplicity: int = 1


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Weak dominance for maximization: >= everywhere, > somewhere."""
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


class ParetoFront:
    """Incrementally maintained set of non-dominated KPI vectors.

    Identical vectors are all kept (ties are not broken); adding a dominated
    vector is a no-op.
    """

    def __init__(self) -> None:
        self.members: list[KpiVector] = []

    def add(self, vector: KpiVector) -> bool:
        """Returns True when the vector joined the front."""
        for m in self.members:
            if dominates(m.values, vector.values):
                return False
        self.members = [
            m for m in self.members if not dominates(vector.values, m.values)
        ]
        self.members.append(vector)
        return True

    @classmethod
    def from_vectors(cls, vectors) -> "ParetoFront":
        front = cls()
        for v in vectors:
            front.add(v)
        return front

    def design_indices(self) -> set[int]:
        return {m.design_index for m in self.members}

    def __len__(self) -> int:
        return len(self.members)


# -- artifact writers --------------------------------------------------------


def result_columns(scenarios: list[Scenario]) -> list[str]:
    """Stable CSV header covering every scenario's recipes and destinations."""
    columns = dict.fromkeys(["design", "scenario", "seed", "kpi", "injected", "injected_mass_g",
                             "trim_mass_g", "in_flight", "band_violations"])
    for scenario in scenarios:  # a name already listed keeps its place
        for names in scenario.recipe_columns:
            columns.update(dict.fromkeys(name for name in names if name is not None))
        for tag in sorted(scenario.destinations):
            columns.update(dict.fromkeys([f"count_{tag}", f"mass_{tag}_g"]))
    return list(columns)


def row_formatter(columns: list[str]) -> Callable[[dict], str]:
    """The results.csv row of a record: its values under `columns`, "" where
    it has none, as `csv.DictWriter(restval="", extrasaction="ignore")` writes
    it. `writerow` returns what its file's `write` returns: here, the line."""
    writerow = csv.writer(SimpleNamespace(write=str)).writerow
    return lambda record: writerow([record.get(column, "") for column in columns])


def write_results_csv(path: Path, rows: Iterable[bytes], columns: list[str]) -> None:
    """results.csv: the header of `columns`, then `rows`, each a record's row
    (`row_formatter`) in UTF-8."""
    with open(path, "wb") as fh:
        fh.write(row_formatter(columns)(dict(zip(columns, columns))).encode())
        fh.writelines(rows)


def write_plot_csv(path: Path, vectors: list[KpiVector], scenario_ids: list[str], front: ParetoFront) -> None:
    """Scatter data: one row per design, one KPI column per scenario."""
    on_front = front.design_indices()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["design", "multiplicity"]
            + [f"kpi_{sid}" for sid in scenario_ids]
            + ["pareto_optimal"]
        )
        for v in vectors:
            writer.writerow(
                [v.design_index, v.multiplicity]
                + [round(x, 9) for x in v.values]
                + [int(v.design_index in on_front)]
            )


def write_pareto_json(
    path: Path,
    front: ParetoFront,
    scenario_ids: list[str],
    wiring: dict[int, tuple[tuple[str, str], ...]],
) -> None:
    members = sorted(
        front.members, key=lambda m: (tuple(-x for x in m.values), m.design_index)
    )
    doc = {
        "scenarios": scenario_ids,
        "front_size": len(members),
        "distinct_designs": len({m.design_index for m in members}),
        "members": [
            {
                "design": m.design_index,
                "multiplicity": m.multiplicity,
                "kpi": {sid: round(x, 9) for sid, x in zip(scenario_ids, m.values)},
                "wiring": [list(pair) for pair in wiring.get(m.design_index, ())],
            }
            for m in members
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
