"""`scripts/output_digests.py`: `--compare` on synthetic digest files names
every file whose digest differs or that only one file lists, and exits 1 when
there is any, else 0; the journal cut of the resumed runs keeps the header,
half of the cell lines and half of the next line."""

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
