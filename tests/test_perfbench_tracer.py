"""The benchmark's traced mode still reads the program it measures.

`perfbench/tracer.py` swaps names that `flowdse.runner` imported (among them
`PlantSimulation` and `score`) for span wrappers, and reads each plant's
`config`, `controller`, `run`, `lane_runtimes`, `routes` and `catalog`. A
refactor of `src/` that moves one of these breaks the benchmark's traced runs
without failing any other test; this one runs explore on the mini space inside
`traced(runner)` and checks the counts against the outputs.
"""

import csv
import importlib
import json
from pathlib import Path

from flowdse import evaluator, plant, runner
from test_runner_cli import MINI_SCENARIO, MINI_SPACE, run_explore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_explore_counts_match_the_outputs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    (tmp_path / "space.json").write_text(json.dumps(MINI_SPACE))
    (tmp_path / "scenario.json").write_text(json.dumps(MINI_SCENARIO))
    files = {"space": tmp_path / "space.json", "scenario": tmp_path / "scenario.json"}

    with tracer_module.traced(runner) as tracer:
        report = run_explore(files, tmp_path / "out", jobs=1, replications=2)

    with open(report.files["results"], newline="") as fh:
        injected = sum(int(row["injected"]) for row in csv.DictReader(fh))
    assert injected > 0
    assert tracer.counts["plant.fillets"] == injected
    assert tracer.counts["kernel.events"] > 0
    assert tracer.counts["controller.recomputes"] > 0
    assert len(tracer.design_keys) == report.designs_evaluated == 2
    assert runner.PlantSimulation is plant.PlantSimulation
    assert runner.score is evaluator.score
