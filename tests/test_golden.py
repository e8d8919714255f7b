"""Golden digests: the exact outputs of a fixed set of cells, pinned by SHA-256.

Each cell is one replication. Three digests are kept per cell: the repr of its
`RunTallies` (every float to the last bit, dicts in insertion order), the JSON
of its scored record (`json.dumps`, each float as its repr), and its trace as
`flowdse simulate --trace` writes the CSV. The cells cover case-study designs
of several behaviour classes under both bundled scenarios, deterministic and
Poisson arrivals, empirical weights, weighs and assigns landing exactly on a
recompute instant, the all-zero-latency trim-before-absorb tie, and a horizon
that cuts fillets between their trim and their absorption.

A change that moves a digest changes an output; it must say which and why.
Regenerate with `PYTHONPATH=src python tests/test_golden.py --write` only then.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from flowdse.controller import ControllerConfig
from flowdse.designspace import enumerate_configurations, load_design_space
from flowdse.evaluator import score
from flowdse.plant import PlantSimulation
from flowdse.scenario import EmpiricalWeights, LaneInflow, load_scenario

sys.path.insert(0, str(Path(__file__).parent))
from test_plant import BAND, STRIPS, make_scenario, narrow, one_lane_space  # noqa: E402

DATA = Path(__file__).parent.parent / "src" / "flowdse" / "data"
GOLDEN = Path(__file__).parent / "golden_digests.json"

# deterministic stand-in for a weight sample file
EMPIRICAL = EmpiricalWeights(
    "inline", tuple(round(120.0 + (i * 7919 % 3301) / 10.0, 1) for i in range(400))
)


def _case(design, scenario_file, horizon, **lanes):
    def build():
        space = load_design_space(DATA / "case_study_space.json")
        scenario = load_scenario(DATA / scenario_file)
        inflow = scenario.inflow
        if lanes:
            inflow = tuple(
                dataclasses.replace(lane, **{k: v[i] for k, v in lanes.items()})
                for i, lane in enumerate(inflow)
            )
        scenario = dataclasses.replace(scenario, horizon_s=horizon, inflow=inflow)
        config = next(c for i, c in enumerate(enumerate_configurations(space)) if i == design)
        return space, config, scenario

    return build


def _case_ties():
    space, config, scenario = _case(37, "scenario1.json", 150.0)()
    rates = (60.0, 120.0, 60.0, 30.0)
    inflow = tuple(
        dataclasses.replace(lane, rate_per_min=rate) for lane, rate in zip(scenario.inflow, rates)
    )
    controller = ControllerConfig(window_size=200, recompute_interval_s=1.0, warmup_s=5.0)
    return space, config, dataclasses.replace(scenario, inflow=inflow, controller=controller)


def _one_lane(horizon, rate=60.0, latency=1.0, weights=None, process="deterministic",
              interval=10.0, warmup=10.0):
    def build():
        space = one_lane_space(latency=latency)
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", rate, weights or narrow(280.0, 40.0), process)],
            horizon=horizon,
            controller=ControllerConfig(recompute_interval_s=interval, warmup_s=warmup),
        )
        return space, next(iter(enumerate_configurations(space))), scenario

    return build


CELLS = {
    # (builder, seed)
    "case_d0_scenario1": (_case(0, "scenario1.json", 300.5), 7),
    "case_d37_scenario1": (_case(37, "scenario1.json", 300.5), 7),
    "case_d37_scenario2": (_case(37, "scenario2.json", 300.5), 8),
    "case_d500_scenario2": (_case(500, "scenario2.json", 300.5), 7),
    "case_d1100_scenario1": (_case(1100, "scenario1.json", 240.0), 9),
    "case_d37_poisson": (_case(37, "scenario1.json", 300.0, process=["poisson"] * 4), 3),
    "case_d500_empirical_poisson": (
        _case(500, "scenario2.json", 300.0, process=["poisson", "deterministic"] * 2,
              weights=[EMPIRICAL] * 4),
        4,
    ),
    "case_d37_tied_lanes": (_case_ties, 5),
    "weigh_on_recompute": (_one_lane(200.0), 1),
    "weigh_on_recompute_1s": (_one_lane(60.0, rate=120.0, interval=1.0, warmup=2.0), 2),
    "empirical_one_lane": (_one_lane(300.0, weights=EMPIRICAL, interval=2.0), 6),
    "zero_latency_trim": (_one_lane(120.0, latency=0.0), 3),
    "zero_latency_poisson": (_one_lane(200.0, latency=0.0, process="poisson", interval=1.0), 4),
    "horizon_mid_trim": (_one_lane(120.5), 5),
}


def digests(name: str, trace: bool = True) -> dict[str, str]:
    """The cell's digests; without `trace`, those of its tallies and record only."""
    build, seed = CELLS[name]
    space, config, scenario = build()
    sim = PlantSimulation(space, config, scenario, seed, trace=trace)
    tallies = sim.run()
    record = score(tallies, scenario, config.index, seed)

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    got = {"tallies": sha(repr(tallies)), "record": sha(json.dumps(record))}
    if trace:
        rows = io.StringIO()
        writer = csv.writer(rows)
        writer.writerow(["time_s", "module", "fillet", "weight_g", "action"])
        writer.writerows(sim.trace_rows)
        got["trace"] = sha(rows.getvalue())
    return got


@pytest.mark.parametrize("name", sorted(CELLS))
def test_outputs_match_the_golden_digests(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(name) == golden[name]
    # untraced, the same sweep with no rows rebuilt after it: the same tallies and record
    untraced = digests(name, trace=False)
    assert untraced == {key: golden[name][key] for key in ("tallies", "record")}


def test_every_golden_cell_is_checked():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CELLS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(
        json.dumps({name: digests(name) for name in sorted(CELLS)}, indent=1) + "\n",
        encoding="utf-8",
    )
