"""`scripts/output_digests.py`: `--compare` on synthetic digest files names
every file whose digest differs or that only one file lists, and exits 1 when
there is any, else 0; within one set of digests, the jobs2 and resumed runs
must match the jobs1 run of their workload and kind; the journal cut of the
resumed runs keeps the header, half of the cell lines and half of the next
line."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)

DIGESTS = {
    "case_study/jobs1/results.csv": "a" * 64,
    "screening/jobs2/journal.jsonl": "b" * 64,
    "simulate/trace_design37_scenario1_seed0.csv": "c" * 64,
}


def compare(tmp_path, capsys, a, b):
    """The exit code of `--compare` on `a` and `b`, and the lines it printed."""
    paths = []
    for name, digests in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(digests), encoding="utf-8")
    code = output_digests.main(["--compare", *map(str, paths)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_digests_exit_0(tmp_path, capsys):
    code, lines = compare(tmp_path, capsys, DIGESTS, dict(DIGESTS))
    assert code == 0
    assert lines == ["0 of 3 files differ"]


def test_every_differing_file_is_named_and_exits_1(tmp_path, capsys):
    changed = dict(DIGESTS)
    changed["case_study/jobs1/results.csv"] = "d" * 64
    del changed["simulate/trace_design37_scenario1_seed0.csv"]
    changed["long_run/jobs1/pareto.json"] = "e" * 64
    code, lines = compare(tmp_path, capsys, DIGESTS, changed)
    assert code == 1
    assert lines == [
        "differs: case_study/jobs1/results.csv",
        "differs: long_run/jobs1/pareto.json",
        "differs: simulate/trace_design37_scenario1_seed0.csv",
        "3 of 4 files differ",
    ]


def runs(**digests):
    """Digests of one file in a workload's six explore runs: `digests` maps a
    run to its digest, and every other run has the digest "a"."""
    names = ("jobs1", "jobs2", "resumed", "stop_first_jobs1", "stop_first_jobs2",
             "stop_first_resumed")
    return {f"screening/{run}/journal.jsonl": digests.get(run, "a") for run in names}


@pytest.mark.parametrize(
    "digests, names",
    [
        ({**runs(), "simulate/trace_design37_scenario1_seed0.csv": "c"}, []),
        # stop-first runs match their own jobs1 run, not the plain one
        (runs(stop_first_jobs1="b", stop_first_jobs2="b", stop_first_resumed="b"), []),
        (runs(jobs2="b"), ["screening/jobs2/journal.jsonl"]),
        (runs(jobs1="b"), ["screening/jobs2/journal.jsonl", "screening/resumed/journal.jsonl"]),
        (runs(stop_first_resumed="b"), ["screening/stop_first_resumed/journal.jsonl"]),
        (runs(stop_first_jobs1="b", jobs2="c"),
         ["screening/jobs2/journal.jsonl", "screening/stop_first_jobs2/journal.jsonl",
          "screening/stop_first_resumed/journal.jsonl"]),
    ],
    ids=["all-match", "stop-first-apart", "jobs2", "jobs1", "stop-first-resumed", "two"],
)
def test_runs_that_differ_from_their_jobs1_run_are_named(digests, names):
    assert output_digests.mismatched(digests) == names


def test_cut_keeps_the_header_half_the_cells_and_half_the_next_line():
    journal = b'{"plan": 1}\n' + b"".join(b"cell %d......\n" % i for i in range(5))
    assert output_digests.cut_journal(journal) == (
        b'{"plan": 1}\ncell 0......\ncell 1......\ncell 2'
    )


@pytest.mark.parametrize(
    "cells, cut",
    [
        (b"", b""),
        (b"abcdef\n", b"abc"),
        (b"ab\ncd\n", b"ab\nc"),
    ],
)
def test_cut_of_short_journals(cells, cut):
    assert output_digests.cut_journal(b"head\n" + cells) == b"head\n" + cut


def write_results(path, rows):
    """A results.csv of (design, scenario, kpi) rows."""
    path.write_text("design,scenario,kpi\n" + "".join(f"{d},{s},{k!r}\n" for d, s, k in rows))
    return path


def test_stop_threshold_is_the_best_mean_of_the_first_scenario(tmp_path):
    # designs 5, 3, 8, 1 in evaluation order, two replications each; design
    # 8's mean is the highest for scenario a, and scenario b is not read
    rows = [(5, "a", 0.5), (5, "a", 0.1), (5, "b", 0.9), (3, "a", 0.2), (3, "a", 0.2),
            (8, "a", 0.7), (8, "a", 0.1), (1, "a", 0.3), (1, "a", 0.3)]
    path = write_results(tmp_path / "results.csv", rows)
    assert output_digests.stop_threshold(path) == f"a={(0.7 + 0.1) / 2!r}"
