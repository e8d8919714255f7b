import csv
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from flowdse import runner
from flowdse.cli import main
from flowdse.kernel import derive_seed
from flowdse.plant import PlantSimulation, RoutingFault
from flowdse.runner import (
    JOBS_ENV_VAR,
    PlanError,
    RunPlan,
    cell_seed,
    default_jobs,
    explore,
    progress_line,
    simulate_single,
    validate_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "flowdse" / "data"

MINI_SPACE = {
    "id": "mini",
    "modules": [
        {"id": "origin1", "kind": "origin", "out_ports": ["out"]},
        {"id": "weigh1", "kind": "weighing", "in_ports": ["in"], "out_ports": ["out"]},
        {"id": "assign1", "kind": "assignment", "in_ports": ["in"], "out_ports": ["out"]},
        {"id": "trimmer1", "kind": "trimming", "in_ports": ["in"], "out_ports": ["out"]},
        {"id": "dist1", "kind": "distribution", "in_ports": ["in"], "out_ports": ["out1", "out2"]},
        {"id": "dest_a", "kind": "destination", "in_ports": ["in"],
         "destination_tag": "batching2", "latency_s": 0.0},
        {"id": "dest_strips", "kind": "destination", "in_ports": ["in"],
         "destination_tag": "fillet_strips", "latency_s": 0.0},
    ],
    "allowed": [
        ["origin1.out", "weigh1.in"],
        ["weigh1.out", "assign1.in"],
        ["assign1.out", "trimmer1.in"],
        ["assign1.out", "dist1.in"],
        ["trimmer1.out", "dist1.in"],
        ["dist1.out1", "dest_a.in"],
        ["dist1.out2", "dest_strips.in"],
    ],
}

MINI_SCENARIO = {
    "id": "mini",
    "recipes": [
        {"destination": "batching2", "priority": 1, "target_throughput_per_min": 40,
         "min_fillet_weight_g": 150, "max_fillet_weight_g": 200, "max_trim_weight_g": 100},
        {"destination": "fillet_strips", "priority": "*", "target_throughput_per_min": "*",
         "min_fillet_weight_g": 0, "max_fillet_weight_g": 1000, "max_trim_weight_g": 0},
    ],
    "inflow": [
        {"lane": "origin1", "rate_per_min": 60,
         "weights": {"kind": "truncated_normal", "mean_g": 280, "stddev_g": 5,
                     "lower_g": 270, "upper_g": 290}},
    ],
    "horizon_s": 600,
    "controller": {"N": 1000, "t_s": 10, "bin_width_g": 10, "warmup_s": 60},
}


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    space = root / "mini_space.json"
    scen = root / "mini_scen.json"
    space.write_text(json.dumps(MINI_SPACE))
    scen.write_text(json.dumps(MINI_SCENARIO))
    return {"root": root, "space": space, "scenario": scen}


def write_edited_inputs(root, edit):
    """Write MINI_SPACE and MINI_SCENARIO into root with one value replaced.

    edit is (which document, key, index, field, value); key None replaces the
    whole document, and the steps key, index and field (a name or a tuple of
    names) that are not None lead to the value replaced.
    """
    which, key, index, field, value = edit
    docs = {"space": json.loads(json.dumps(MINI_SPACE)),
            "scenario": json.loads(json.dumps(MINI_SCENARIO))}
    if key is None:
        docs[which] = value
    else:
        fields = field if isinstance(field, tuple) else (field,)
        *path, last = [step for step in (key, index, *fields) if step is not None]
        target = docs[which]
        for step in path:
            target = target[step]
        target[last] = value
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))


def run_explore(mini, out, **kw):
    plan = RunPlan(
        space_path=str(mini["space"]),
        scenario_paths=(str(mini["scenario"]),),
        base_seed=kw.pop("seed", 42),
        out_dir=str(out),
        **kw,
    )
    return explore(plan)


class TestCellSeeds:
    def test_pure_function_of_coordinates(self):
        assert cell_seed(42, 3, 1, 0) == cell_seed(42, 3, 1, 0)
        assert cell_seed(42, 3, 1, 0) == derive_seed(42, "cell", 3, 1, 0)

    def test_every_coordinate_matters(self):
        base = cell_seed(42, 3, 1, 0)
        assert cell_seed(43, 3, 1, 0) != base
        assert cell_seed(42, 4, 1, 0) != base
        assert cell_seed(42, 3, 0, 0) != base
        assert cell_seed(42, 3, 1, 1) != base


class TestSimulateSingle:
    def test_same_cell_twice_is_identical(self, mini):
        a, _ = simulate_single(str(mini["space"]), 0, str(mini["scenario"]), seed=5)
        b, _ = simulate_single(str(mini["space"]), 0, str(mini["scenario"]), seed=5)
        assert a == b

    def test_design_index_bounds(self, mini):
        with pytest.raises(PlanError, match="out of range"):
            simulate_single(str(mini["space"]), 99, str(mini["scenario"]), seed=5)

    def test_incompatible_scenario_rejected(self, mini, tmp_path):
        bad = dict(MINI_SCENARIO, inflow=MINI_SCENARIO["inflow"] * 1)
        bad["inflow"] = bad["inflow"] + [dict(bad["inflow"][0], lane="origin2")]
        path = tmp_path / "twolane.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(PlanError, match="lane"):
            simulate_single(str(mini["space"]), 0, str(path), seed=5)

    def test_trimmer_design_meets_target_plain_design_cannot(self, mini):
        # inflow at 280 g, band 150..200 g: only trimming can serve the order
        kpis = {}
        for design in (0, 1):
            record, _ = simulate_single(
                str(mini["space"]), design, str(mini["scenario"]), seed=5
            )
            kpis[design] = record["kpi"]
        assert sorted(kpis.values()) == pytest.approx([0.0, 1.0])


class TestExplore:
    def test_artifacts_and_journal_layout(self, mini, tmp_path):
        report = run_explore(mini, tmp_path / "out")
        assert report.designs_evaluated == 2
        assert report.cells_executed == 2
        assert report.cells_resumed == 0
        for name in ("results", "pareto", "plot", "journal", "meta"):
            assert report.files[name].exists()

        lines = report.files["journal"].read_text().splitlines()
        head = json.loads(lines[0])
        assert head["plan"]["seed"] == 42
        cells = [tuple(json.loads(line)["cell"]) for line in lines[1:]]
        assert cells == [(0, 0, 0), (1, 0, 0)]  # design-major order

        with open(report.files["results"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["design"] for r in rows] == ["0", "1"]

    def test_results_agree_with_single_cell_runs(self, mini, tmp_path):
        # every journal record, replication 1 included, is simulate's record
        report = run_explore(mini, tmp_path / "out", replications=2)
        _, *lines = report.files["journal"].read_text().splitlines()
        entries = [json.loads(line) for line in lines]
        assert [tuple(e["cell"]) for e in entries] == [
            (d, 0, r) for d in (0, 1) for r in (0, 1)
        ]
        for entry in entries:
            design, scenario, replication = entry["cell"]
            seed = cell_seed(42, design, scenario, replication)
            single, _ = simulate_single(
                str(mini["space"]), design, str(mini["scenario"]), seed=seed
            )
            assert entry["result"] == single

    def test_parallel_run_writes_identical_files(self, mini, tmp_path):
        serial = run_explore(mini, tmp_path / "serial", jobs=1)
        parallel = run_explore(mini, tmp_path / "parallel", jobs=2)
        for name in ("results", "plot"):
            assert serial.files[name].read_bytes() == parallel.files[name].read_bytes()
        assert serial.files["pareto"].read_text() == parallel.files["pareto"].read_text()

    def test_space_is_enumerated_once_in_the_parent(self, mini, tmp_path, monkeypatch):
        real = runner.enumerate_configurations
        parent = os.getpid()
        calls = []

        def counted(space):
            if os.getpid() != parent:
                raise AssertionError("a worker enumerated the design space")
            calls.append(space.space_id)
            return real(space)

        monkeypatch.setattr(runner, "enumerate_configurations", counted)
        outputs = []
        for jobs in (1, 2):
            calls.clear()
            # 8 cells in chunks of one, so that both workers run some
            report = run_explore(mini, tmp_path / f"jobs{jobs}", jobs=jobs, replications=4)
            assert calls == ["mini"]
            assert report.cells_executed == 8
            outputs.append(
                [report.files[name].read_bytes() for name in ("results", "plot", "pareto", "journal")]
            )
        assert outputs[0] == outputs[1]

    def test_progress_reports_rate_and_eta(self, mini, tmp_path):
        lines = []
        plan = RunPlan(
            space_path=str(mini["space"]),
            scenario_paths=(str(mini["scenario"]),),
            base_seed=42,
            out_dir=str(tmp_path / "out"),
            replications=3,
        )
        explore(plan, echo=lines.append)
        progress = [line for line in lines if "cells/s" in line]
        assert len(progress) == 1  # every 64 designs, and when the last cell is in
        found = re.fullmatch(r"6/6 cells, (\d+\.\d) cells/s, ETA 0 s", progress[0])
        assert found and float(found[1]) > 0

    def test_progress_line(self):
        assert progress_line(30, 100, 20, 70, 10.0) == "30/100 cells, 2.0 cells/s, ETA 35 s"
        assert progress_line(5, 10, 0, 5, 0.0) == "5/10 cells, 0.0 cells/s, ETA unknown"

    def test_resume_skips_completed_cells(self, mini, tmp_path):
        first = run_explore(mini, tmp_path / "a")
        full_journal = first.files["journal"].read_text().splitlines()

        replay = tmp_path / "b"
        replay.mkdir()
        (replay / "journal.jsonl").write_text("\n".join(full_journal) + "\n")
        resumed = run_explore(mini, replay)
        assert resumed.cells_resumed == 2
        assert resumed.cells_executed == 0
        assert resumed.files["results"].read_bytes() == first.files["results"].read_bytes()

        partial = tmp_path / "c"
        partial.mkdir()
        (partial / "journal.jsonl").write_text("\n".join(full_journal[:2]) + "\n")
        finished = run_explore(mini, partial)
        assert finished.cells_resumed == 1
        assert finished.cells_executed == 1
        assert finished.files["results"].read_bytes() == first.files["results"].read_bytes()

    def test_journal_from_another_plan_is_refused(self, mini, tmp_path):
        out = tmp_path / "out"
        run_explore(mini, out, seed=42)
        with pytest.raises(PlanError, match="different plan"):
            run_explore(mini, out, seed=43)

    def test_input_edited_in_place_is_a_different_plan(self, tmp_path):
        # same file names, new contents: resuming would mix in stale cells
        (tmp_path / "space.json").write_text(json.dumps(MINI_SPACE))
        (tmp_path / "weights.txt").write_text("280\n285\n290\n")
        scenario = json.loads(json.dumps(MINI_SCENARIO))
        scenario["inflow"][0]["weights"] = {"kind": "empirical", "file": "weights.txt"}
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        files = {"root": tmp_path, "space": tmp_path / "space.json",
                 "scenario": tmp_path / "scenario.json"}
        out = tmp_path / "out"
        journal = run_explore(files, out).files["journal"].read_bytes()
        assert run_explore(files, out).cells_resumed == 2
        (tmp_path / "weights.txt").write_text("280\n285\n295\n")
        with pytest.raises(PlanError, match="different plan"):
            run_explore(files, out)
        (tmp_path / "weights.txt").write_text("280\n285\n290\n")
        scenario["horizon_s"] = 300
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        with pytest.raises(PlanError, match="different plan"):
            run_explore(files, out)
        assert (out / "journal.jsonl").read_bytes() == journal  # refused before any write

    def test_journal_with_file_name_fingerprint_must_start_afresh(self, mini, tmp_path):
        out = tmp_path / "out"
        first = run_explore(mini, out)
        _, *records = first.files["journal"].read_text().splitlines()
        old_plan = {"space": "mini_space.json", "scenarios": ["mini_scen.json"], "seed": 42,
                    "replications": 1, "dedup": False, "clamp": True}
        (out / "journal.jsonl").write_text(
            "\n".join([json.dumps({"plan": old_plan}), *records]) + "\n"
        )
        with pytest.raises(PlanError, match="start afresh"):
            run_explore(mini, out)
        code = main(["explore", "--space", str(mini["space"]), "--scenario",
                     str(mini["scenario"]), "--seed", "42", "--out", str(out)])
        assert code == 1

    def test_corrupt_journal_header_is_refused(self, mini, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "journal.jsonl").write_text("not json\n")
        with pytest.raises(PlanError, match="corrupt"):
            run_explore(mini, out)

    @pytest.mark.parametrize(
        "tail",
        [
            pytest.param(lambda last: last[: len(last) // 2], id="torn"),
            pytest.param(lambda last: last, id="no-newline"),
            pytest.param(lambda last: b"{not json\n", id="unparsable"),
        ],
    )
    def test_bad_last_journal_line_is_dropped_and_its_cell_rerun(
        self, mini, tmp_path, tail
    ):
        first = run_explore(mini, tmp_path / "a")
        intact = first.files["journal"].read_bytes()
        *kept, last, _ = intact.split(b"\n")

        out = tmp_path / "b"
        out.mkdir()
        (out / "journal.jsonl").write_bytes(b"\n".join(kept) + b"\n" + tail(last))
        resumed = run_explore(mini, out)
        assert resumed.cells_resumed == 1
        assert resumed.cells_executed == 1
        # the fragment was cut away, so the re-run record starts on its own line
        assert resumed.files["journal"].read_bytes() == intact
        for name in ("results", "plot", "pareto"):
            assert resumed.files[name].read_bytes() == first.files[name].read_bytes()

    def test_bad_journal_line_before_the_last_is_refused(self, mini, tmp_path):
        first = run_explore(mini, tmp_path / "a")
        head, _, last = first.files["journal"].read_text().splitlines()
        out = tmp_path / "b"
        out.mkdir()
        (out / "journal.jsonl").write_text(f"{head}\n{{not json\n{last}\n")
        with pytest.raises(PlanError, match="corrupt \\(bad line 2\\)"):
            run_explore(mini, out)

    def test_torn_journal_header_starts_afresh(self, mini, tmp_path):
        first = run_explore(mini, tmp_path / "a")
        header = first.files["journal"].read_bytes().split(b"\n")[0]
        out = tmp_path / "b"
        out.mkdir()
        (out / "journal.jsonl").write_bytes(header[:10])
        resumed = run_explore(mini, out)
        assert resumed.cells_executed == 2
        assert resumed.files["journal"].read_bytes() == first.files["journal"].read_bytes()

    def test_stop_first_halts_at_the_qualifying_design(self, mini, tmp_path):
        report = run_explore(
            mini,
            tmp_path / "out",
            stop_first=True,
            min_attainment=(("mini", 0.9),),
        )
        # the trimmer design enumerates first and meets the order on its own
        assert report.stopped_at_design == 0
        assert report.designs_evaluated == 1
        assert report.cells_executed == 1

    def test_stop_first_scans_everything_when_nothing_qualifies(self, mini, tmp_path):
        report = run_explore(
            mini,
            tmp_path / "out",
            stop_first=True,
            min_attainment=(("mini", 2.0),),
        )
        assert report.stopped_at_design is None
        assert report.designs_evaluated == 2

    def test_stop_first_requires_a_threshold(self, mini, tmp_path):
        with pytest.raises(PlanError, match="min-attainment"):
            run_explore(mini, tmp_path / "out", stop_first=True)

    @pytest.mark.parametrize("ratio", [float("nan"), -0.5], ids=["nan", "negative"])
    def test_threshold_out_of_range_is_refused(self, mini, tmp_path, ratio):
        # a NaN threshold would be met by every KPI and stop at design 0
        out = tmp_path / "out"
        with pytest.raises(PlanError, match=f"--min-attainment mini={ratio}: ratio must be"):
            run_explore(mini, out, stop_first=True, min_attainment=(("mini", ratio),))
        assert not out.exists()  # refused before anything ran or was written

    def test_threshold_for_unknown_scenario_is_refused(self, mini, tmp_path):
        with pytest.raises(PlanError, match="unknown scenarios"):
            run_explore(mini, tmp_path / "out", min_attainment=(("nope", 0.5),))

    def test_duplicate_scenario_files_are_refused(self, mini, tmp_path):
        plan = RunPlan(
            space_path=str(mini["space"]),
            scenario_paths=(str(mini["scenario"]), str(mini["scenario"])),
            base_seed=1,
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(PlanError, match="duplicate scenario ids"):
            explore(plan)

    def test_dedup_flag_keeps_singleton_classes(self, mini, tmp_path):
        report = run_explore(mini, tmp_path / "out", dedup=True)
        assert report.designs_evaluated == 2
        assert all(v.multiplicity == 1 for v in report.vectors)

    def test_parent_memory_per_cell_is_small(self, tmp_path, monkeypatch):
        # the records stay in the journal: the parent keeps a KPI and an offset per cell
        write_edited_inputs(tmp_path, ("scenario", "horizon_s", None, None, 90))
        files = {"space": tmp_path / "space.json", "scenario": tmp_path / "scenario.json"}
        real = runner.write_results_csv
        held = []

        def measured(path, records, columns):
            held.append(tracemalloc.get_traced_memory()[0])
            real(path, records, columns)

        monkeypatch.setattr(runner, "write_results_csv", measured)
        tracemalloc.start()
        try:
            for replications in (8, 40):
                run_explore(files, tmp_path / f"r{replications}", replications=replications)
        finally:
            tracemalloc.stop()
        growth_per_cell = (held[1] - held[0]) / (2 * (40 - 8))
        assert growth_per_cell < 600

    def test_resume_from_a_shuffled_journal(self, mini, tmp_path):
        # results.csv is read back from the journal by offset, in any line order
        first = run_explore(mini, tmp_path / "a", replications=4)
        head, *records = first.files["journal"].read_text().splitlines()
        random.Random(3).shuffle(records)
        out = tmp_path / "b"
        out.mkdir()
        (out / "journal.jsonl").write_text("\n".join([head, *records]) + "\n")
        resumed = run_explore(mini, out, replications=4)
        assert (resumed.cells_resumed, resumed.cells_executed) == (8, 0)
        for name in ("results", "plot", "pareto"):
            assert resumed.files[name].read_bytes() == first.files[name].read_bytes()

    def test_meta_records_phase_times(self, mini, tmp_path):
        report = run_explore(mini, tmp_path / "out")
        meta = json.loads(report.files["meta"].read_text())
        phases = meta["phases_s"]
        assert list(phases) == ["load", "enumerate", "dedup", "simulate", "write"]
        assert all(value >= 0 for value in phases.values())
        assert phases["dedup"] == 0  # dedup is off
        # the phases tile the run, each to the millisecond
        assert sum(round(value * 1000) for value in phases.values()) <= round(meta["wall_s"] * 1000)


class TestJobsDefault:
    def test_unset_means_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() == 1

    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        assert default_jobs() == 4

    def test_garbage_env_var_is_an_input_error(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(PlanError):
            default_jobs()


class TestValidateInputs:
    def test_bundled_files_are_clean(self):
        summary, violations = validate_inputs(
            str(DATA / "case_study_space.json"),
            [str(DATA / "scenario1.json"), str(DATA / "scenario2.json")],
        )
        assert summary == "1152 configurations, 288 distinct, 0 violations"
        assert violations == []

    def test_mismatched_scenario_is_reported(self, mini):
        summary, violations = validate_inputs(
            str(DATA / "case_study_space.json"), [str(mini["scenario"])]
        )
        assert violations
        assert summary.endswith(f"{len(violations)} violations")


class TestCli:
    def test_validate_happy_path(self, capsys):
        code = main(
            [
                "validate",
                "--space", str(DATA / "case_study_space.json"),
                "--scenario", str(DATA / "scenario1.json"), str(DATA / "scenario2.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == "1152 configurations, 288 distinct, 0 violations\n"

    def test_validate_reports_violations_with_exit_one(self, mini, capsys):
        code = main(
            [
                "validate",
                "--space", str(DATA / "case_study_space.json"),
                "--scenario", str(mini["scenario"]),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "  - " in out

    def test_simulate_writes_record_and_trace(self, mini, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--space", str(mini["space"]),
                "--design", "0",
                "--scenario", str(mini["scenario"]),
                "--seed", "7",
                "--trace",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["design"] == 0
        trace_path = Path(record["trace_file"])
        assert trace_path.parent == tmp_path
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_s", "module", "fillet", "weight_g", "action"]
        assert len(rows) - 1 == record["trace_rows"]

    def test_explore_and_resume_through_the_cli(self, mini, tmp_path, capsys):
        argv = [
            "explore",
            "--space", str(mini["space"]),
            "--scenario", str(mini["scenario"]),
            "--seed", "42",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cells_executed"] == 2
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cells_resumed"] == 2
        assert second["cells_executed"] == 0

    def test_jobs_env_var_reaches_the_plan(self, mini, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        code = main(
            [
                "explore",
                "--space", str(mini["space"]),
                "--scenario", str(mini["scenario"]),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["jobs"] == 2

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        code = main(
            [
                "explore",
                "--space", str(tmp_path / "absent.json"),
                "--scenario", str(tmp_path / "absent2.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, message",
        [
            pytest.param(
                "no_weighing",
                "error: lane o: trunk must pass a weighing then an assignment",
                id="no_weighing",
            ),
            pytest.param(
                "no_default",
                "error: lane o cannot reach the default destination",
                id="no_default",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "explore-jobs1", "explore-jobs2"])
    def test_unbuildable_design_is_an_input_error(
        self, tmp_path, capsys, fault, message, command
    ):
        # parses and enumerates fine, but the lane cannot serve the scenario
        modules = [
            {"id": "o", "kind": "origin", "out_ports": ["out"]},
            {"id": "w", "kind": "weighing", "in_ports": ["in"], "out_ports": ["out"]},
            {"id": "a", "kind": "assignment", "in_ports": ["in"], "out_ports": ["out"]},
            {"id": "d", "kind": "distribution", "in_ports": ["in"],
             "out_ports": ["out1", "out2"]},
            {"id": "b", "kind": "destination", "in_ports": ["in"],
             "destination_tag": "batching2"},
            {"id": "s", "kind": "destination", "in_ports": ["in"],
             "destination_tag": "fillet_strips"},
        ]
        if fault == "no_weighing":
            del modules[1]
            allowed = [["o.out", "a.in"], ["a.out", "d.in"],
                       ["d.out1", "b.in"], ["d.out2", "s.in"]]
        else:  # the default recipe's fillet_strips is declared but never wired
            del modules[3]
            allowed = [["o.out", "w.in"], ["w.out", "a.in"], ["a.out", "b.in"]]
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"id": fault, "modules": modules, "allowed": allowed}))
        scen = dict(MINI_SCENARIO)
        scen["inflow"] = [dict(MINI_SCENARIO["inflow"][0], lane="o")]
        scen_path = tmp_path / "scen.json"
        scen_path.write_text(json.dumps(scen))
        argv = ["--space", str(space_path), "--scenario", str(scen_path)]
        if command == "simulate":
            argv = ["simulate", *argv, "--design", "0"]
        else:
            argv = ["explore", *argv, "--out", str(tmp_path / "out"),
                    "--jobs", command[-1]]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "Traceback" not in err

    def test_simulation_bug_is_a_runtime_failure(self, mini, capsys, monkeypatch):
        def run(self):
            raise RoutingFault("impossible routing")

        monkeypatch.setattr(PlantSimulation, "run", run)
        code = main(
            [
                "simulate",
                "--space", str(mini["space"]),
                "--design", "0",
                "--scenario", str(mini["scenario"]),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "runtime failure: impossible routing" in err
        assert "Traceback" in err

    @pytest.mark.parametrize("replications", ["0", "-3"])
    def test_replications_below_one_is_an_input_error(
        self, mini, tmp_path, capsys, replications
    ):
        code = main(
            [
                "explore",
                "--space", str(mini["space"]),
                "--scenario", str(mini["scenario"]),
                "--replications", replications,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: --replications must be at least 1, got {replications}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rate, message",
        [
            (None, "inflow[0].rate_per_min: missing"),
            ("fast", "inflow[0].rate_per_min: not a number: 'fast'"),
            ([60], "inflow[0].rate_per_min: not a number: [60]"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "explore"])
    def test_bad_inflow_rate_is_an_input_error(
        self, mini, tmp_path, capsys, rate, message, command
    ):
        lane = dict(MINI_SCENARIO["inflow"][0])
        if rate is None:
            del lane["rate_per_min"]
        else:
            lane["rate_per_min"] = rate
        scen_path = tmp_path / "scen.json"
        scen_path.write_text(json.dumps(dict(MINI_SCENARIO, inflow=[lane])))
        argv = [command, "--space", str(mini["space"]), "--scenario", str(scen_path)]
        if command == "explore":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.out + captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                ("space", "modules", 1, "latency_s", "x"),
                "modules[1].latency_s: not a number: 'x'",
                id="latency-not-a-number",
            ),
            pytest.param(
                ("space", "allowed", 0, None, ["origin1.out"]),
                "allowed[0]: must be an [out-port, in-port] pair, got ['origin1.out']",
                id="one-element-pair",
            ),
            pytest.param(
                ("space", None, None, None, [MINI_SPACE]),
                "space: must be a JSON object",
                id="space-is-a-list",
            ),
            pytest.param(
                ("scenario", "inflow", 0, None, 5),
                "inflow[0]: must be a JSON object, got 5",
                id="inflow-entry-not-an-object",
            ),
            pytest.param(
                ("space", "modules", 0, None, "origin1"),
                "modules[0]: must be a JSON object, got 'origin1'",
                id="module-not-an-object",
            ),
            pytest.param(
                ("scenario", None, None, None, []),
                "scenario: must be a JSON object, got []",
                id="scenario-is-a-list",
            ),
            pytest.param(
                ("scenario", "recipes", 0, None, 5),
                "recipes[0]: must be a JSON object, got 5",
                id="recipe-not-an-object",
            ),
            pytest.param(
                ("scenario", "inflow", 0, "weights", 5),
                "inflow[0].weights: must be a JSON object, got 5",
                id="weights-not-an-object",
            ),
            pytest.param(
                ("scenario", "inflow", 0, ("weights", "mean_g"), "x"),
                "inflow[0].weights.mean_g: not a number: 'x'",
                id="mean-not-a-number",
            ),
            pytest.param(
                ("scenario", "recipes", 0, "min_fillet_weight_g", "x"),
                "recipes[0].min_fillet_weight_g: not a number: 'x'",
                id="recipe-weight-not-a-number",
            ),
            pytest.param(
                ("space", "modules", 1, "latency_s", "nan"),
                "modules[1].latency_s: must be finite and non-negative, got nan",
                id="latency-nan",
            ),
            pytest.param(
                ("space", "modules", 1, "latency_s", "inf"),
                "modules[1].latency_s: must be finite and non-negative, got inf",
                id="latency-infinite",
            ),
            pytest.param(
                ("space", "modules", 1, "latency_s", -1),
                "modules[1].latency_s: must be finite and non-negative, got -1.0",
                id="latency-negative",
            ),
            pytest.param(
                ("scenario", "recipes", None, None, 5),
                "mini.recipes: must be a JSON array, got 5",
                id="recipes-not-a-list",
            ),
            pytest.param(
                ("scenario", "inflow", None, None, 5),
                "mini.inflow: must be a JSON array, got 5",
                id="inflow-not-a-list",
            ),
            pytest.param(
                ("scenario", "controller", None, None, 5),
                "mini.controller: must be a JSON object, got 5",
                id="controller-not-an-object",
            ),
            pytest.param(
                ("scenario", "horizon_s", None, None, "x"),
                "mini.horizon_s: not a number: 'x'",
                id="horizon-not-a-number",
            ),
            pytest.param(
                ("scenario", "controller", None, "N", "x"),
                "mini.controller.N: not a number: 'x'",
                id="window-not-a-number",
            ),
            pytest.param(
                ("scenario", "controller", None, "t_s", "nan"),
                "mini.controller.t_s: must be positive and finite, got nan",
                id="interval-nan",
            ),
            pytest.param(
                ("scenario", "controller", None, "warmup_s", "nan"),
                "mini.controller.warmup_s: must be non-negative and finite, got nan",
                id="warmup-nan",
            ),
            pytest.param(
                ("scenario", "controller", None, "bin_width_g", "nan"),
                "mini.controller.bin_width_g: must be positive and finite, got nan",
                id="bin-width-nan",
            ),
            pytest.param(
                ("space", "modules", 4, "required", "false"),
                "modules[4].required: must be true or false, got 'false'",
                id="required-not-a-boolean",
            ),
            pytest.param(
                ("space", "modules", 6, "merge_allowed", 1),
                "modules[6].merge_allowed: must be true or false, got 1",
                id="merge-allowed-not-a-boolean",
            ),
            pytest.param(
                ("space", "allowed", 6, 0, "x.out"),
                "allowed pair references unknown out-port 'x.out'",
                id="pair-names-an-unknown-out-port",
            ),
            pytest.param(
                ("space", "modules", 4, "id", "dist9"),
                "allowed pair references unknown out-port 'dist1.out1'",
                id="module-renamed",
            ),
            pytest.param(
                ("space", "modules", 4, "out_ports", ["out1", "out9"]),
                "allowed pair references unknown out-port 'dist1.out2'",
                id="out-port-renamed",
            ),
            pytest.param(
                ("space", "modules", 4, "out_ports", True),
                "modules[4].out_ports: must be a list of strings, got True",
                id="out-ports-a-boolean",
            ),
            pytest.param(
                ("space", "modules", 1, "in_ports", 5),
                "modules[1].in_ports: must be a list of strings, got 5",
                id="in-ports-a-number",
            ),
            pytest.param(
                ("space", "modules", 1, "id", [1]),
                "modules[1].id: must be a string, got [1]",
                id="module-id-not-a-string",
            ),
            pytest.param(
                ("space", "modules", 5, "destination_tag", [1]),
                "modules[5].destination_tag: must be a string, got [1]",
                id="tag-not-a-string",
            ),
            pytest.param(
                ("space", "modules", None, None, 5),
                "mini.modules: must be a JSON array, got 5",
                id="modules-not-a-list",
            ),
            pytest.param(
                ("space", "allowed", None, None, None),
                "mini.allowed: must be a JSON array, got None",
                id="allowed-not-a-list",
            ),
            pytest.param(
                ("scenario", "inflow", 0, "lane", [1]),
                "inflow[0].lane: must be a string, got [1]",
                id="lane-id-not-a-string",
            ),
            pytest.param(
                ("scenario", "recipes", 0, "destination", [1]),
                "recipes[0].destination: must be a string, got [1]",
                id="recipe-destination-not-a-string",
            ),
            pytest.param(
                ("scenario", "id", None, None, [1]),
                "scenario.id: must be a string, got [1]",
                id="scenario-id-not-a-string",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "explore"])
    def test_malformed_input_names_the_field(self, tmp_path, capsys, edit, message, command):
        write_edited_inputs(tmp_path, edit)
        argv = [command, "--space", str(tmp_path / "space.json"),
                "--scenario", str(tmp_path / "scenario.json")]
        if command == "explore":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.out + captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_non_finite_weight_file_entry_is_refused(self, tmp_path, capsys, token, command):
        (tmp_path / "weights.txt").write_text(f"280\n{token}\n290\n")
        write_edited_inputs(
            tmp_path,
            ("scenario", "inflow", 0, "weights", {"kind": "empirical", "file": "weights.txt"}),
        )
        argv = [command, "--space", str(tmp_path / "space.json"),
                "--scenario", str(tmp_path / "scenario.json")]
        if command == "simulate":
            argv += ["--design", "0"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        message = f"weights.txt, entry 2: weights must be positive and finite, got {token}"
        assert message in captured.out + captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["validate", "simulate", "explore"])
    def test_infinite_horizon_is_refused_not_run(self, tmp_path, command):
        # in a child process with a timeout: a run that never ends fails the test
        write_edited_inputs(tmp_path, ("scenario", "horizon_s", None, None, "inf"))
        argv = [command, "--space", str(tmp_path / "space.json"),
                "--scenario", str(tmp_path / "scenario.json")]
        if command == "simulate":
            argv += ["--design", "0"]
        if command == "explore":
            argv += ["--out", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "flowdse.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )
        assert done.returncode == 1
        assert "mini.horizon_s: must be positive and finite, got inf" in done.stdout + done.stderr
        assert "Traceback" not in done.stderr

    def test_near_empty_truncated_normal_is_refused_not_sampled(self, mini, tmp_path):
        # bounds 380 standard deviations above the mean: sampling would never end
        scen = json.loads(json.dumps(MINI_SCENARIO))
        scen["inflow"][0]["weights"].update(mean_g=220, stddev_g=1, lower_g=600, upper_g=650)
        scen_path = tmp_path / "scen.json"
        scen_path.write_text(json.dumps(scen))
        proc = subprocess.run(
            [sys.executable, "-m", "flowdse.cli", "simulate", "--space", str(mini["space"]),
             "--design", "0", "--scenario", str(scen_path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 1
        assert "inflow[0].weights: bounds [600.0, 650.0]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad", ["-1", "18446744073709551616", "1.5"])
    def test_seed_must_be_a_64_bit_integer(self, bad, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--space", "x", "--design", "0", "--scenario", "y",
                  "--seed", bad])
        capsys.readouterr()

    def test_hex_seed_accepted(self, mini, capsys):
        code = main(
            [
                "simulate",
                "--space", str(mini["space"]),
                "--design", "0",
                "--scenario", str(mini["scenario"]),
                "--seed", "0x10",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 16

    @pytest.mark.parametrize("bad", ["noequals", "=0.5", "s1=high"])
    def test_threshold_syntax_is_checked(self, bad, capsys):
        with pytest.raises(SystemExit):
            main(["explore", "--space", "x", "--scenario", "y", "--out", "z",
                  "--min-attainment", bad])
        capsys.readouterr()

    # a NaN ratio would be "met" by every KPI
    @pytest.mark.parametrize("ratio", ["nan", "-0.5"])
    def test_threshold_range_is_an_input_error(self, mini, tmp_path, capsys, ratio):
        code = main(["explore", "--space", str(mini["space"]), "--scenario",
                     str(mini["scenario"]), "--out", str(tmp_path / "out"),
                     "--stop-first", "--min-attainment", f"mini={ratio}"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: --min-attainment mini={ratio}: ratio must be non-negative" in err
        assert "Traceback" not in err

    def test_console_script_is_installed(self, mini, tmp_path):
        """The declared ``flowdse`` console script runs as its own process.

        The launcher is built here from this checkout's ``[project.scripts]``
        entry, in the same one-line form an installer writes, and run through
        a PATH lookup. Putting the launcher onto PATH is the installer's job
        and is not exercised; a ``flowdse`` already on the ambient PATH is
        never used, since it may belong to another checkout or version.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["flowdse"]
        module, attr = target.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "flowdse"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        exe = shutil.which("flowdse", path=str(bindir))
        assert exe, "console script not on PATH"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [exe, "validate", "--space", str(mini["space"]),
             "--scenario", str(mini["scenario"])],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2 configurations, 2 distinct, 0 violations\n"
