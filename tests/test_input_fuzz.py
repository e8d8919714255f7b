"""Fuzzing of both input parsers: one field of a bundled document replaced or
deleted must parse, or fail with the parser's own error, never another
exception and never a hang."""

import contextlib
import json
import signal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdse.designspace import DesignSpaceError, parse_design_space
from flowdse.scenario import ScenarioError, parse_scenario

DATA = Path(__file__).resolve().parent.parent / "src" / "flowdse" / "data"

DELETE = object()
# "a\0b" and "a/b" cannot be part of a file name: the scenario id names the
# trace file and `weights.file` names a weight file; UTF-8 cannot encode a lone
# surrogate, which a JSON escape can spell
SURROGATES = ["\ud800", "a\udfffb"]
POOL = [None, True, -1, 1.5, 2**70, 1e308, "", "x", "nan", "a\0b", "a/b", *SURROGATES,
        [], {}, [1], DELETE]
SECONDS_PER_EXAMPLE = 5


def field_paths(doc, prefix=()):
    """The path of every value in a JSON document, the document itself first."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from field_paths(value, prefix + (key,))


def string_paths(doc):
    """The path of every string value in a JSON document that its parser
    reads: a "comment" it skips."""
    return [
        path for path in field_paths(doc)
        if isinstance(value_at(doc, path), str) and path[-1] != "comment"
    ]


def value_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def edited(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted for DELETE."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return {} if value is DELETE else value
    *steps, last = path
    target = doc
    for step in steps:
        target = target[step]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


class Hang(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with Hang, instead of stalling the suite, when the body overruns."""
    def expired(*_):
        raise Hang(f"parsing took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


CASES = {
    "space": (
        json.loads((DATA / "case_study_space.json").read_text()),
        lambda raw: parse_design_space(raw, fallback_id="case_study_space"),
        DesignSpaceError,
    ),
    "scenario": (
        json.loads((DATA / "scenario1.json").read_text()),
        lambda raw: parse_scenario(raw, DATA, fallback_id="scenario1"),
        ScenarioError,
    ),
}


@pytest.mark.parametrize("document", sorted(CASES))
def test_one_bad_field_is_an_input_error(document):
    doc, parse, error = CASES[document]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(path=st.sampled_from(list(field_paths(doc))), value=st.sampled_from(POOL))
    def one_field(path, value):
        with time_limit(SECONDS_PER_EXAMPLE):
            try:
                parse(edited(doc, path, value))
            except error:
                pass

    one_field()


@pytest.mark.parametrize("document", sorted(CASES))
def test_a_lone_surrogate_in_any_string_is_an_input_error(document):
    doc, parse, error = CASES[document]
    paths = string_paths(doc)
    assert paths
    for path in paths:
        for surrogate in SURROGATES:
            with pytest.raises(error):
                parse(edited(doc, path, value_at(doc, path) + surrogate))
