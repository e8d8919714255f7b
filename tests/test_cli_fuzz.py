"""Fuzzing of the command line end to end: `flowdse simulate` and `flowdse
explore` on the runner tests' mini inputs with one field replaced or deleted
must exit 0 or 1, never 2 with a traceback, and never hang."""

import contextlib
import io
import json
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdse import runner
from flowdse.cli import main
from test_input_fuzz import POOL, edited, field_paths
from test_runner_cli import MINI_SCENARIO, MINI_SPACE

SECONDS_PER_EXAMPLE = 10
# short, so that an example that runs costs little; the warm-up still ends before it
SCENARIO = dict(MINI_SCENARIO, horizon_s=120)
DOCS = {"space": MINI_SPACE, "scenario": SCENARIO}
EDITS = [(which, path) for which, doc in DOCS.items() for path in field_paths(doc)]


class Hang(BaseException):
    """Raised by the alarm; a BaseException, so that `main`'s handler of
    run-time failures cannot turn it into an exit code."""


@contextlib.contextmanager
def time_limit(seconds):
    def expired(*_):
        raise Hang(f"the command took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def command(name, root: Path):
    inputs = ["--space", str(root / "space.json"), "--scenario", str(root / "scenario.json")]
    if name == "simulate":
        return ["simulate", *inputs, "--design", "0", "--seed", "3", "--out", str(root)]
    return ["explore", *inputs, "--seed", "3", "--jobs", "1", "--out", str(root / "out")]


@pytest.mark.parametrize("name", ["simulate", "explore"])
def test_one_bad_field_exits_0_or_1(name):
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(edit=st.sampled_from(EDITS), value=st.sampled_from(POOL))
    def one_field(edit, value):
        which, path = edit
        docs = dict(DOCS, **{which: edited(DOCS[which], path, value)})
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for doc_name, doc in docs.items():
                (root / f"{doc_name}.json").write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with time_limit(SECONDS_PER_EXAMPLE), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(command(name, root))
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()

    one_field()


EMPIRICAL_FILE = ("inflow", 0, "weights")


@pytest.mark.parametrize(
    "name, path, value, field",
    [
        ("validate", ("id",), "a\0b", ".id:"),
        ("simulate", ("id",), "a\0b", ".id:"),
        ("simulate", ("id",), "a/b", "scenario id 'a/b'"),
        ("validate", EMPIRICAL_FILE, {"kind": "empirical", "file": "w\0.txt"}, "weights.file"),
        ("simulate", EMPIRICAL_FILE, {"kind": "empirical", "file": "w\0.txt"}, "weights.file"),
    ],
)
def test_a_name_no_file_can_take_exits_1_and_names_the_field(
    name, path, value, field, tmp_path, monkeypatch
):
    # the command refuses the name before it simulates: no cell runs
    ran, run_cell = [], runner.run_cell

    def recorded(*args, **kw):
        ran.append(args)
        return run_cell(*args, **kw)

    monkeypatch.setattr(runner, "run_cell", recorded)
    (tmp_path / "space.json").write_text(json.dumps(MINI_SPACE))
    (tmp_path / "scenario.json").write_text(json.dumps(edited(SCENARIO, path, value)))
    argv = command(name, tmp_path) if name == "simulate" else [
        "validate", "--space", str(tmp_path / "space.json"),
        "--scenario", str(tmp_path / "scenario.json"),
    ]
    if name == "simulate":
        argv.append("--trace")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1, err.getvalue()
    assert field in out.getvalue() + err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not ran
