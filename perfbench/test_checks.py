"""The benchmark's output checks pass on real output and fail on planted faults.

    python3 -m pytest perfbench/test_checks.py

One small explore (three designs, two scenarios, two replications, a
15-minute horizon) runs once; each test copies its output, plants one fault
and expects the matching problem from checks.check_outputs.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import make_inputs  # noqa: E402

from flowdse.runner import RunPlan, explore  # noqa: E402


@pytest.fixture(scope="module")
def explored(tmp_path_factory):
    """Inputs and outputs of one small explore: long_run's space, shortened scenarios."""
    root = tmp_path_factory.mktemp("explored")
    inputs = root / "inputs"
    spec = make_inputs("long_run", 7, inputs)
    for name in spec["scenarios"]:
        path = inputs / name
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["horizon_s"] = 900.0
        if name == "scenario2.json":  # deterministic arrivals, so the exact count is checked too
            for lane in doc["inflow"]:
                del lane["process"]
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = root / "out"
    explore(
        RunPlan(
            space_path=str(inputs / spec["space"]),
            scenario_paths=tuple(str(inputs / s) for s in spec["scenarios"]),
            base_seed=spec["base_seed"],
            out_dir=str(out),
            replications=spec["replications"],
        )
    )
    return checks.Expectation(spec, inputs), out


@pytest.fixture
def outputs(explored, tmp_path):
    expect, out = explored
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return expect, copy


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def set_field(index: int, field: str, change):
    def edit(rows):
        rows[index][field] = change(rows[index][field])
        return rows

    return edit


def problems_of(outputs) -> list[str]:
    expect, out = outputs
    return checks.check_outputs(expect, out)


def test_real_output_passes(outputs):
    assert problems_of(outputs) == []


def test_real_output_covers_both_arrival_kinds(outputs):
    expect, _ = outputs
    kinds = [expect.deterministic_injected(s) is None for s in expect.scenarios]
    assert kinds == [True, False]


def test_dropped_row(outputs):
    edit_csv(outputs[1] / "results.csv", lambda rows: rows[:-1])
    found = problems_of(outputs)
    assert any("results.csv has 11 rows" in p for p in found)


def test_wrong_attainment(outputs):
    edit_csv(
        outputs[1] / "results.csv",
        set_field(0, "attainment_burger", lambda v: repr(float(v) * 0.5 + 0.01)),
    )
    found = problems_of(outputs)
    assert any("row 1: attainment_burger" in p for p in found)


def test_wrong_kpi(outputs):
    edit_csv(outputs[1] / "results.csv", set_field(0, "kpi", lambda v: repr(float(v) + 1e-6)))
    assert any("row 1: kpi" in p for p in problems_of(outputs))


def test_flipped_pareto_flag(outputs):
    edit_csv(
        outputs[1] / "plot.csv",
        set_field(0, "pareto_optimal", lambda v: "0" if v == "1" else "1"),
    )
    found = problems_of(outputs)
    assert any("pareto_optimal flags differ" in p for p in found)


def test_pareto_json_member_missing(outputs):
    path = outputs[1] / "pareto.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["members"] = doc["members"][1:]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert any("pareto.json members differ" in p for p in problems_of(outputs))


def test_count_conservation_broken(outputs):
    edit_csv(
        outputs[1] / "results.csv",
        set_field(0, "count_fillet_strips", lambda v: str(int(v) + 1)),
    )
    found = problems_of(outputs)
    assert any("row 1: injected" in p and "!= counts" in p for p in found)


def test_mass_created(outputs):
    edit_csv(
        outputs[1] / "results.csv",
        set_field(0, "mass_fillet_strips_g", lambda v: repr(float(v) + 1e6)),
    )
    assert any("row 1: injected mass" in p for p in problems_of(outputs))


def test_wrong_seed(outputs):
    edit_csv(outputs[1] / "results.csv", set_field(0, "seed", lambda v: str(int(v) + 1)))
    found = problems_of(outputs)
    assert any("row 1: seed" in p for p in found)


def test_deterministic_injected_off_by_one(outputs):
    # a scenario2 row (deterministic arrivals): one fillet more, kept conserved
    def edit(rows):
        row = next(r for r in rows if r["scenario"] == "scenario2")
        row["injected"] = str(int(row["injected"]) + 1)
        row["in_flight"] = str(int(row["in_flight"]) + 1)
        return rows

    edit_csv(outputs[1] / "results.csv", edit)
    assert any("deterministic arrivals give" in p for p in problems_of(outputs))


def test_band_violation(outputs):
    edit_csv(outputs[1] / "results.csv", set_field(0, "band_violations", lambda v: "1"))
    assert any("band violations" in p for p in problems_of(outputs))


def test_cell_seed_matches_the_program():
    from flowdse.runner import cell_seed

    assert checks.cell_seed(12345, 7, 1, 2) == cell_seed(12345, 7, 1, 2)


def test_pareto_filter_brute_force():
    vectors = {0: (0.5, 0.5), 1: (0.6, 0.4), 2: (0.4, 0.4), 3: (0.5, 0.5), 4: (0.6, 0.3)}
    assert checks.pareto_filter(vectors) == {0, 1, 3}
