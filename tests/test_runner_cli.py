import csv
import dataclasses
import json
import multiprocessing
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from flowdse import runner
from flowdse.cli import main
from flowdse.designspace import enumerate_configurations
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
    """Write MINI_SPACE and MINI_SCENARIO into root with values replaced.

    edit is (which document, key, index, field, value), or a list of them
    applied in turn; key None replaces the whole document, and the steps key,
    index and field (a name or a tuple of names) that are not None lead to the
    value replaced.
    """
    docs = {"space": json.loads(json.dumps(MINI_SPACE)),
            "scenario": json.loads(json.dumps(MINI_SCENARIO))}
    for which, key, index, field, value in edit if isinstance(edit, list) else [edit]:
        if key is None:
            docs[which] = value
            continue
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


def edited_record(line: bytes, cell=None, kpi=None, row=None) -> bytes:
    """A journal line with its cell, its KPI or its row replaced, newline included."""
    entry = json.loads(line)
    if cell is not None:
        entry["cell"] = cell
    if kpi is not None:
        entry["kpi"] = kpi
    if row is not None:
        entry["row"] = row
    return json.dumps(entry).encode() + b"\n"


# records that parse but that no plan of one scenario and one replication can use
UNUSABLE_RECORDS = [
    pytest.param(lambda line: edited_record(line, kpi="x"), id="string-kpi"),
    pytest.param(lambda line: edited_record(line, kpi=True), id="bool-kpi"),
    pytest.param(lambda line: edited_record(line, cell=[0, 0, 0, 0]), id="four-coordinates"),
    pytest.param(lambda line: edited_record(line, cell=[0, 1, 0]), id="scenario-out-of-range"),
    pytest.param(lambda line: edited_record(line, cell=[0, 0, -1]), id="replication-out-of-range"),
    pytest.param(lambda line: edited_record(line, cell=[0, 0, 0.0]), id="float-coordinate"),
    pytest.param(lambda line: edited_record(line, row=7), id="number-row"),
    pytest.param(
        lambda line: edited_record(line, row=json.loads(line)["row"][:-2]), id="row-without-crlf"
    ),
    # a JSON escape can spell a lone surrogate, which results.csv cannot encode
    pytest.param(lambda line: line.replace(b",mini,", b",\\ud800,"), id="unencodable-scenario"),
]


def mini_designs(space, count, then=None):
    """`count` configurations of the mini space, its two in turn under fresh
    indices 0..count-1; then `then` is raised, if given, after a pause in which
    a pool's task thread takes every batch fed so far and waits for more."""
    real = list(enumerate_configurations(space))
    for index in range(count):
        yield dataclasses.replace(real[index % len(real)], index=index)
    if then is not None:
        time.sleep(0.2)
        raise then


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
        # every journal line, replication 1 included, holds simulate's KPI and row
        report = run_explore(mini, tmp_path / "out", replications=2)
        head, *lines = report.files["journal"].read_text().splitlines()
        row_of = runner.row_formatter(json.loads(head)["columns"])
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
            assert (entry["kpi"], entry["row"]) == (single["kpi"], row_of(single))

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
            *UNUSABLE_RECORDS,
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stop_first_resume_stops_where_a_fresh_run_stops(self, mini, tmp_path, jobs):
        # thresholds are not part of the plan, so a journal written under one
        # threshold resumes under another; design 0 then qualifies from the journal
        strict, loose = (("mini", 0.9),), (("mini", 0.0),)
        run_explore(mini, tmp_path / "resumed", jobs=jobs, stop_first=True, min_attainment=strict)
        resumed = run_explore(
            mini, tmp_path / "resumed", jobs=jobs, stop_first=True, min_attainment=loose
        )
        fresh = run_explore(
            mini, tmp_path / "fresh", jobs=jobs, stop_first=True, min_attainment=loose
        )
        assert (resumed.stopped_at_design, resumed.cells_executed) == (0, 0)
        assert fresh.stopped_at_design == 0
        for name in ("results", "plot", "pareto"):
            assert resumed.files[name].read_bytes() == fresh.files[name].read_bytes(), name

    def test_stop_first_resume_of_a_complete_journal_enumerates_every_design(self, mini, tmp_path):
        # the stop is at design 0, yet the journal's design 1 is one the plan runs
        plain = run_explore(mini, tmp_path / "out")
        resumed = run_explore(
            mini, tmp_path / "out", stop_first=True, min_attainment=(("mini", 0.9),)
        )
        assert (resumed.stopped_at_design, resumed.cells_executed) == (0, 0)
        meta = [json.loads(report.files["meta"].read_text()) for report in (plain, resumed)]
        assert meta[0]["configurations"] == meta[1]["configurations"] == 2

    def test_dedup_stop_first_keeps_the_evaluation_order_prefix(self, tmp_path):
        # the case-study space, deduplicated, under scenario 1 cut to 120 s
        scenario = json.loads((DATA / "scenario1.json").read_text())
        (tmp_path / "scenario.json").write_text(json.dumps(dict(scenario, horizon_s=120)))
        files = {"space": DATA / "case_study_space.json", "scenario": tmp_path / "scenario.json"}
        space = runner.load_design_space(files["space"])
        configs = list(enumerate_configurations(space))
        order = [rep.index for rep, _ in runner.deduplicate(space, configs)]
        assert order[55:57] == [115, 104]  # representatives do not ascend
        # a fresh run, and the resume of a journal that holds every design
        run_explore(files, tmp_path / "resumed", seed=7, dedup=True)
        for out in ("fresh", "resumed"):
            report = run_explore(
                files, tmp_path / out, seed=7, dedup=True, stop_first=True,
                min_attainment=(("scenario1", 0.275),),
            )
            stop = order.index(report.stopped_at_design)
            assert stop > 56
            with open(report.files["results"], newline="") as fh:
                designs = [int(row["design"]) for row in csv.DictReader(fh)]
            assert designs == order[:stop + 1], out

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
        with open(report.files["plot"], newline="") as fh:
            assert [row["multiplicity"] for row in csv.DictReader(fh)] == ["1", "1"]

    def test_parent_memory_per_cell_is_small(self, tmp_path, monkeypatch):
        # the journal holds the rows: the parent keeps a KPI and a line offset per cell
        write_edited_inputs(tmp_path, ("scenario", "horizon_s", None, None, 90))
        files = {"space": tmp_path / "space.json", "scenario": tmp_path / "scenario.json"}
        real = runner.write_results_csv
        held = []

        def measured(path, rows, columns):
            held.append(tracemalloc.get_traced_memory()[0])
            real(path, rows, columns)

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
        # results.csv takes each row from the journal by offset, in any line order
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


class TestUnusableJournalRecords:
    """A resume through the command line refuses a journal record it cannot
    use, before the last line, or of a design the plan does not run: exit 1
    with a message, no traceback, and no output file written."""

    def resume(self, mini, tmp_path, capsys, edit):
        """Write a mini journal with its first record replaced by `edit`,
        resume on it in a fresh directory, and return the exit code, stderr
        and the directory."""
        return self.rewrite_and_resume(
            mini, tmp_path, capsys, lambda head, first, last: head + edit(first) + last
        )

    def rewrite_and_resume(self, mini, tmp_path, capsys, rewrite):
        """Write the mini journal as `rewrite(header, first record, last
        record)` gives it, resume on it in a fresh directory, and return the
        exit code, stderr and the directory."""
        argv = ["explore", "--space", str(mini["space"]), "--scenario", str(mini["scenario"]),
                "--seed", "42", "--out"]
        assert main([*argv, str(tmp_path / "a")]) == 0
        lines = (tmp_path / "a" / "journal.jsonl").read_bytes().splitlines(True)
        out = tmp_path / "b"
        out.mkdir()
        (out / "journal.jsonl").write_bytes(rewrite(*lines))
        capsys.readouterr()
        code = main([*argv, str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize("edit", UNUSABLE_RECORDS)
    def test_unusable_record_before_the_last_exits_1(self, mini, tmp_path, capsys, edit):
        code, err, out = self.resume(mini, tmp_path, capsys, edit)
        assert code == 1
        assert "Traceback" not in err
        assert err == f"error: {out / 'journal.jsonl'} is corrupt (bad line 2)\n"
        assert sorted(path.name for path in out.iterdir()) == ["journal.jsonl"]

    @pytest.mark.parametrize("cell", [[99999, 0, 0], [2, 0, 0], [-1, 0, 0]])
    def test_record_of_a_design_the_plan_does_not_run_exits_1(
        self, mini, tmp_path, capsys, cell
    ):
        code, err, out = self.resume(
            mini, tmp_path, capsys, lambda line: edited_record(line, cell=cell)
        )
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"error: {out / 'journal.jsonl'} records design {cell[0]}, which this plan "
            "does not run; use a fresh --out directory or matching inputs"
        )
        assert sorted(path.name for path in out.iterdir()) == ["journal.jsonl"]

    @pytest.mark.parametrize("journal", ["whole-records", "a-column-short"])
    def test_journal_without_rows_of_the_plans_columns_exits_1(
        self, mini, tmp_path, capsys, journal
    ):
        def rewrite(head, *records):
            head = json.loads(head)
            if journal == "a-column-short":
                head["columns"].remove("seed")
                return json.dumps(head).encode() + b"\n" + b"".join(records)
            # as journals were written before they held rows: the plan alone in
            # the header, and each cell's whole record
            lines = [{"plan": head["plan"]}]
            for record in records:
                d, s, r = json.loads(record)["cell"]
                result, _ = simulate_single(
                    str(mini["space"]), d, str(mini["scenario"]), seed=cell_seed(42, d, s, r)
                )
                lines.append({"cell": [d, s, r], "result": result})
            return "".join(json.dumps(line) + "\n" for line in lines).encode()

        code, err, out = self.rewrite_and_resume(mini, tmp_path, capsys, rewrite)
        assert code == 1
        assert "Traceback" not in err
        assert err == (
            f"error: {out / 'journal.jsonl'} holds no results.csv rows of this plan's columns; "
            "start afresh: use a fresh --out directory or remove the journal\n"
        )
        assert sorted(path.name for path in out.iterdir()) == ["journal.jsonl"]


class PoolRecorder:
    """Stands in for `multiprocessing.Pool`: records the processes asked for
    and runs the cells in this process, so that no worker is started."""

    made: list[int] = []

    def __init__(self, processes, initializer, initargs):
        PoolRecorder.made.append(processes)
        handler = signal.getsignal(signal.SIGINT)
        initializer(*initargs)
        signal.signal(signal.SIGINT, handler)  # a worker's Ctrl-C setting, not this process's

    def imap(self, func, iterable, chunksize=1):
        return map(func, iterable)

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.fixture
def pool_recorder(monkeypatch):
    monkeypatch.setattr(runner, "Pool", PoolRecorder)
    monkeypatch.setattr(PoolRecorder, "made", [])
    return PoolRecorder


class TestPoolSize:
    def test_pool_has_no_more_workers_than_cells(self, mini, tmp_path, pool_recorder):
        report = run_explore(mini, tmp_path / "out", jobs=8)  # 2 designs x 1 scenario
        assert pool_recorder.made == [2]
        assert report.cells_executed == 2

    def test_one_pending_cell_runs_without_a_pool(self, mini, tmp_path, pool_recorder):
        run_explore(mini, tmp_path / "out", jobs=2)
        assert pool_recorder.made == [2]
        journal = tmp_path / "out" / "journal.jsonl"
        head, first, _ = journal.read_text().splitlines()
        journal.write_text(head + "\n" + first + "\n")
        report = run_explore(mini, tmp_path / "out", jobs=2)
        assert (report.cells_resumed, report.cells_executed) == (1, 1)
        assert pool_recorder.made == [2]


class TestOrphanedWorker:
    """A pool worker records its parent, and once it has another (the parent
    died) it exits before its next cell; `--jobs 1` runs the cells in the
    parent itself and never checks."""

    def test_a_worker_whose_parent_is_gone_stops_before_its_cell(self, mini, monkeypatch):
        monkeypatch.setattr(runner, "_WORKER", {})
        handler = signal.getsignal(signal.SIGINT)
        runner._init_pool_worker(str(mini["space"]), (str(mini["scenario"]),), True)
        signal.signal(signal.SIGINT, handler)  # a worker's Ctrl-C setting, not this process's
        assert runner._WORKER["parent"] == os.getppid()
        cell = (next(runner.enumerate_configurations(runner._WORKER["space"])), 0, 0, 42)
        heads, _ = runner._run_cells([cell])
        assert [key for key, _, _ in heads] == [(0, 0, 0)]
        ran = []
        monkeypatch.setattr(runner, "run_cell", lambda *args: ran.append(args))
        runner._WORKER["parent"] = os.getppid() + 1  # as if re-parented
        with pytest.raises(SystemExit):
            runner._run_cells([cell])
        assert not ran

    def test_serial_explore_ignores_a_recorded_parent(self, mini, tmp_path, monkeypatch):
        monkeypatch.setitem(runner._WORKER, "parent", os.getppid() + 1)
        report = run_explore(mini, tmp_path / "out", jobs=1)
        assert report.cells_executed == 2


class TestPipeline:
    """The pool runs batches of cells while the parent enumerates, and each
    batch comes back as its journal lines in one block."""

    LOOKAHEAD = 2 * 4 * 64  # the cells the parent takes before a --jobs 2 pool starts

    @pytest.fixture
    def short(self, tmp_path):
        """The mini inputs at a 90 s horizon, so that many cells run quickly."""
        write_edited_inputs(tmp_path, ("scenario", "horizon_s", None, None, 90))
        return {"space": tmp_path / "space.json", "scenario": tmp_path / "scenario.json"}

    def test_block_is_the_journal_line_of_each_cell(self, mini, monkeypatch):
        monkeypatch.setattr(runner, "_WORKER", {})
        runner._init_worker(str(mini["space"]), (str(mini["scenario"]),), True)
        space, scenario = runner._WORKER["space"], runner._WORKER["scenarios"][0]
        batch = [(config, 0, r, 42)
                 for config in runner.enumerate_configurations(space) for r in range(3)]
        heads, block = runner._run_cells(batch)
        row_of = runner.row_formatter(runner.result_columns([scenario]))
        expected = []
        for config, _, r, seed in batch:
            key = (config.index, 0, r)
            record, _ = runner.run_cell(space, config, scenario, cell_seed(seed, *key), True)
            line = json.dumps({"cell": list(key), "kpi": record["kpi"], "row": row_of(record)})
            expected.append((key, record["kpi"], line + "\n"))
        assert block.splitlines(keepends=True) == [line for *_, line in expected]
        assert block.isascii()  # so a line's length is its size in the journal
        assert heads == [(key, kpi, len(line)) for key, kpi, line in expected]

    def test_cells_run_while_the_parent_enumerates(self, short, tmp_path, monkeypatch):
        # the workers are forked after the patches, so they run the wrapped run_cell
        started = tmp_path / "started"
        real_run_cell = runner.run_cell
        count = self.LOOKAHEAD + 64
        seen = []

        def marked(*args, **kw):
            with open(started, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real_run_cell(*args, **kw)

        def enumerated(space):
            for config in mini_designs(space, count):
                if config.index == count - 1:  # wait for a worker before the last one
                    deadline = time.monotonic() + 10
                    while not started.exists() and time.monotonic() < deadline:
                        time.sleep(0.01)
                    seen.append(started.exists())
                yield config

        monkeypatch.setattr(runner, "run_cell", marked)
        monkeypatch.setattr(runner, "enumerate_configurations", enumerated)
        report = run_explore(short, tmp_path / "out", jobs=2)
        assert seen == [True]
        assert os.getpid() not in {int(pid) for pid in started.read_text().split()}
        assert report.cells_executed == count

    @pytest.mark.parametrize("cut", [70, 300])
    def test_journal_cut_mid_block_resumes_to_the_uninterrupted_outputs(
        self, short, tmp_path, cut
    ):
        # 600 cells: the resume of 530 streams too, that of 300 starts with all
        reference = run_explore(short, tmp_path / "reference", jobs=2, replications=300)
        head, *records = reference.files["journal"].read_bytes().splitlines(keepends=True)
        assert len(records) == 600 > self.LOOKAHEAD
        out = tmp_path / "resumed"
        out.mkdir()
        torn = records[cut][: len(records[cut]) // 2]
        (out / "journal.jsonl").write_bytes(head + b"".join(records[:cut]) + torn)
        resumed = run_explore(short, out, jobs=2, replications=300)
        assert (resumed.cells_resumed, resumed.cells_executed) == (cut, 600 - cut)
        for name in ("results", "plot", "pareto", "journal"):
            assert resumed.files[name].read_bytes() == reference.files[name].read_bytes(), name

    def test_outputs_are_the_same_under_a_20_hz_timer_signal(self, short, tmp_path):
        # the benchmark times explore under SIGALRM every 50 ms, whose handler
        # runs interpreter work in the parent (perfbench/round.py, SpeedProbe)
        # while it writes the journal and copies the rows from it
        ticks = []

        def tick(signum, frame):
            ticks.append(signum)
            table = {}
            for i in range(2000):
                table[i % 97] = table.get(i % 97, 0) + i * i % 7

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
        try:
            probed = run_explore(short, tmp_path / "probed", jobs=2, replications=300)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        plain = run_explore(short, tmp_path / "plain", jobs=2, replications=300)
        assert ticks
        for name in ("results", "plot", "pareto", "journal"):
            assert probed.files[name].read_bytes() == plain.files[name].read_bytes(), name

    @staticmethod
    def within(seconds, call):
        """What `call()` returns or raises, run in a thread given `seconds`."""
        outcome = []

        def target():
            try:
                outcome.append(("returned", call()))
            except BaseException as err:  # handed to the test, not swallowed
                outcome.append(("raised", err))

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(seconds)
        assert not thread.is_alive(), f"still running after {seconds} s"
        return outcome[0]

    def test_failing_enumeration_stops_the_fed_pool(self, short, tmp_path, monkeypatch):
        monkeypatch.setattr(
            runner, "enumerate_configurations",
            lambda space: mini_designs(space, self.LOOKAHEAD + 64, RuntimeError("enumeration broke")),
        )
        how, err = self.within(10, lambda: run_explore(short, tmp_path / "out", jobs=2))
        assert how == "raised" and str(err) == "enumeration broke"
        assert multiprocessing.active_children() == []

    def test_ctrl_c_while_the_parent_feeds_the_pool_exits_130(
        self, short, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            runner, "enumerate_configurations",
            lambda space: mini_designs(space, self.LOOKAHEAD + 64, KeyboardInterrupt()),
        )
        argv = ["explore", "--space", str(short["space"]), "--scenario", str(short["scenario"]),
                "--jobs", "2", "--out", str(tmp_path / "out")]
        assert self.within(10, lambda: main(argv)) == ("returned", 130)
        assert multiprocessing.active_children() == []
        assert capsys.readouterr().err.splitlines()[-1] == (
            "interrupted; the journal keeps the finished cells, and the same command resumes"
        )


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

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_env_var_below_one_is_an_input_error(self, monkeypatch, raw):
        monkeypatch.setenv(JOBS_ENV_VAR, raw)
        with pytest.raises(PlanError, match=f"{JOBS_ENV_VAR} must be at least 1, got {raw}"):
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

    @pytest.mark.parametrize("command", ["validate", "explore"])
    def test_duplicate_scenario_ids_exit_one(self, mini, tmp_path, capsys, command):
        argv = [command, "--space", str(mini["space"]),
                "--scenario", str(mini["scenario"]), str(mini["scenario"])]
        if command == "explore":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "duplicate scenario ids: ['mini', 'mini']" in captured.out + captured.err
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_an_input_error(self, mini, tmp_path, capsys, pool_recorder, jobs):
        code = main(
            [
                "explore",
                "--space", str(mini["space"]),
                "--scenario", str(mini["scenario"]),
                "--jobs", jobs,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: --jobs must be at least 1, got {jobs}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert pool_recorder.made == []

    def test_jobs_env_var_below_one_is_an_input_error(self, mini, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        code = main(
            [
                "explore",
                "--space", str(mini["space"]),
                "--scenario", str(mini["scenario"]),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {JOBS_ENV_VAR} must be at least 1, got 0" in err
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
                ("scenario", "inflow", 0, "rate_per_min", 1e308),
                "mini.inflow[0].rate_per_min: 1e+308 per minute over horizon_s 600 is "
                "inf arrivals, more than 1e+09",
                id="rate-too-large-to-run",
            ),
            pytest.param(
                ("scenario", "horizon_s", None, None, 2**70),
                "mini.inflow[0].rate_per_min: 60 per minute over horizon_s 1.18059e+21 is "
                "1.18e+21 arrivals, more than 1e+09",
                id="horizon-too-long-to-run",
            ),
            pytest.param(
                ("scenario", "controller", None, "t_s", 1e-300),
                "mini.controller.t_s: 1e-300 s over horizon_s 600 is 6e+302 recomputes, "
                "more than 1e+09",
                id="interval-too-short-to-run",
            ),
            pytest.param(
                ("scenario", "controller", None, "N", 2**70),
                "mini.controller.N: must be at most 9223372036854775807, got 1.18e+21",
                id="window-too-large",
            ),
            pytest.param(
                ("scenario", "controller", None, "N", 1e308),
                "mini.controller.N: must be at most 9223372036854775807, got 1e+308",
                id="window-float-too-large",
            ),
            pytest.param(
                [
                    ("scenario", "inflow", 0, ("weights", "upper_g"), 1e308),
                    ("scenario", "recipes", 0, "max_trim_weight_g", 1e308),
                ],
                "mini.inflow[0].weights.upper_g: heaviest weight 1e+308 g is 1e+307 bins "
                "of bin_width_g 10, more than 1e+05",
                id="heaviest-weight-and-trim-allowance-near-1e308",
            ),
            pytest.param(
                [
                    ("scenario", "inflow", 0, ("weights", "upper_g"), 1e308),
                    ("scenario", "recipes", 0, "max_fillet_weight_g", 1e308),
                    ("scenario", "recipes", 0, "target_throughput_per_min", 1e6),
                ],
                "mini.inflow[0].weights.upper_g: heaviest weight 1e+308 g is 1e+307 bins "
                "of bin_width_g 10, more than 1e+05",
                id="heaviest-weight-and-band-near-1e308",
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
            # a JSON escape can spell a lone surrogate, which UTF-8 cannot encode
            pytest.param(
                ("scenario", "id", None, None, "mini\udc80"),
                "scenario.id: holds a lone surrogate, 'mini\\udc80'",
                id="scenario-id-a-lone-surrogate",
            ),
            pytest.param(
                [("space", "modules", 5, "destination_tag", "batching2\ud800"),
                 ("scenario", "recipes", 0, "destination", "batching2\ud800")],
                "modules[5].destination_tag: holds a lone surrogate, 'batching2\\ud800'",
                id="destination-tag-a-lone-surrogate",
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
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("bad", ["-1", "18446744073709551616", "1.5", "abc"])
    def test_seed_must_be_a_64_bit_integer(self, bad, capsys):
        # a bad flag value is an input error: exit 1, as the CLI doc says
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--space", "x", "--design", "0", "--scenario", "y",
                  "--seed", bad])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert "seed must" in err
        assert "_seed" not in err

    @pytest.mark.parametrize("argv", [
        ["explore", "--space", "x", "--scenario", "y", "--out", "z", "--jobs", "two"],
        ["bogus"],
    ])
    def test_bad_command_line_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert "usage: flowdse" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--help"])
        assert exit_info.value.code == 0
        assert "--seed" in capsys.readouterr().out

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
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--space", "x", "--scenario", "y", "--out", "z",
                  "--min-attainment", bad])
        assert exit_info.value.code == 1
        assert "--min-attainment" in capsys.readouterr().err

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


class TestRealInterrupt:
    """A real `explore --jobs 2` process, killed with its workers once its
    journal holds k lines, resumes to the outputs of an uninterrupted run."""

    OUTPUTS = ("results.csv", "plot.csv", "pareto.json", "journal.jsonl")

    def test_killed_batch_resumes_to_the_uninterrupted_outputs(self, tmp_path):
        # the case-study space, deduplicated, under scenario 1 cut to 120 s
        scenario = json.loads((DATA / "scenario1.json").read_text())
        scenario["horizon_s"] = 120
        scenario_path = tmp_path / "scenario1.json"
        scenario_path.write_text(json.dumps(scenario))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def explore_until(out, signum=None, lines=0):
            """Run the batch into `out`; with `signum`, send it to the process
            group once the journal holds `lines` lines. The exit code, stdout
            and stderr."""
            proc = subprocess.Popen(
                [sys.executable, "-m", "flowdse.cli", "explore",
                 "--space", str(DATA / "case_study_space.json"),
                 "--scenario", str(scenario_path), "--dedup", "--jobs", "2", "--out", str(out)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                start_new_session=True,
                # a shell that runs the tests in the background has them ignore
                # SIGINT, and a child would inherit that
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
            journal = out / "journal.jsonl"
            try:
                while signum is not None and proc.poll() is None:
                    if journal.exists() and journal.read_bytes().count(b"\n") >= lines:
                        os.killpg(proc.pid, signum)
                        break
                    time.sleep(0.001)
                stdout, stderr = proc.communicate(timeout=60)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            return proc.returncode, stdout, stderr

        started = time.perf_counter()
        reference = tmp_path / "reference"
        assert explore_until(reference)[0] == 0
        total = (reference / "journal.jsonl").read_bytes().count(b"\n")
        assert total == 289  # the header and 288 cells
        # workers hand back their cells a batch at a time (here up to 36, an
        # eighth of those left), so "all but one" may see all
        cases = [(signal.SIGKILL, 1), (signal.SIGKILL, total // 2),
                 (signal.SIGKILL, total - 1), (signal.SIGINT, total // 2)]
        for signum, lines in cases:
            out = tmp_path / f"{signum.name}-{lines}"
            code, _, stderr = explore_until(out, signum, lines)
            if signum == signal.SIGINT:
                assert code == 130
                assert "Traceback" not in stderr
                assert stderr.splitlines()[-1] == (
                    "interrupted; the journal keeps the finished cells, and the same "
                    "command resumes"
                )
            # every whole line past the header is a cell the resume keeps
            kept = max(0, (out / "journal.jsonl").read_bytes().count(b"\n") - 1)
            code, stdout, _ = explore_until(out)
            assert code == 0
            summary = json.loads(stdout)
            assert (summary["cells_resumed"], summary["cells_executed"]) == (kept, 288 - kept)
            for name in self.OUTPUTS:
                assert (out / name).read_bytes() == (reference / name).read_bytes(), (
                    signum.name, lines, name)
        assert time.perf_counter() - started < 10

    def test_serial_explore_leaves_ctrl_c_to_the_process(self, mini, tmp_path):
        # --jobs 1 runs the cells in this process: only pool workers ignore SIGINT
        handler = signal.getsignal(signal.SIGINT)
        run_explore(mini, tmp_path / "out", jobs=1)
        assert signal.getsignal(signal.SIGINT) is handler

    def test_ctrl_c_outside_explore_names_no_journal(self, monkeypatch, capsys):
        def interrupted(*_args, **_kw):
            raise KeyboardInterrupt

        monkeypatch.setattr("flowdse.cli.simulate_single", interrupted)
        assert main(["simulate", "--space", "x", "--design", "0", "--scenario", "y"]) == 130
        assert capsys.readouterr().err == "interrupted\n"
