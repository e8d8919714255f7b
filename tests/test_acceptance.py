"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS/FAIL line straight
to the terminal (output capture is bypassed, so the lines show under a plain
pytest -v run). The two full exploration batches are session fixtures shared
across criteria, so the whole gate costs roughly two batch runs plus seconds.
"""

import csv
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from flowdse.designspace import (
    deduplicate,
    enumerate_configurations,
    load_design_space,
    parse_design_space,
)
from flowdse.evaluator import KpiVector, ParetoFront
from flowdse.plant import PlantSimulation
from flowdse.runner import RunPlan, explore, simulate_single
from flowdse.scenario import load_scenario
from pareto_oracle import brute_force_front

DATA = Path(__file__).parent.parent / "src" / "flowdse" / "data"
SPACE_PATH = DATA / "case_study_space.json"
SCENARIO_PATHS = (DATA / "scenario1.json", DATA / "scenario2.json")
BATCH_SEED = 42


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdicts_to_terminal(request):
    # stdout capture would swallow the PASS/FAIL lines on green runs
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    if _CAPTURE is None:
        print(line, flush=True)
    else:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def case_space():
    return load_design_space(SPACE_PATH)


@pytest.fixture(scope="session")
def case_configs(case_space):
    return list(enumerate_configurations(case_space))


def run_batch(tmp_path_factory, jobs: int):
    out = tmp_path_factory.mktemp(f"batch_jobs{jobs}")
    plan = RunPlan(
        space_path=str(SPACE_PATH),
        scenario_paths=tuple(str(p) for p in SCENARIO_PATHS),
        base_seed=BATCH_SEED,
        out_dir=str(out),
        jobs=jobs,
    )
    return explore(plan)


@pytest.fixture(scope="session")
def batch_serial(tmp_path_factory):
    return run_batch(tmp_path_factory, jobs=1)


@pytest.fixture(scope="session")
def batch_parallel(tmp_path_factory):
    return run_batch(tmp_path_factory, jobs=8)


@pytest.fixture(scope="session")
def random_cell_tallies(case_space, case_configs):
    """>= 50 random (design, scenario, seed) cells at the full bundled horizon."""
    scenarios = [load_scenario(p) for p in SCENARIO_PATHS]
    rng = random.Random(0xACCE57)
    outcomes = []
    for _ in range(50):
        design = rng.randrange(len(case_configs))
        scenario = scenarios[rng.randrange(len(scenarios))]
        seed = rng.randrange(2**64)
        tallies = PlantSimulation(
            case_space, case_configs[design], scenario, seed
        ).run()
        outcomes.append((design, scenario, seed, tallies))
    return outcomes


def test_criterion_01_enumeration_exactness(case_space):
    started = time.perf_counter()
    configs = list(enumerate_configurations(case_space))
    elapsed = time.perf_counter() - started

    cells = Counter()
    for c in configs:
        feeders = frozenset(
            out.split(".")[0] for out, inp in c.chosen if inp.startswith("trimmer")
        )
        hosts = frozenset(
            out.split(".")[0] for out, inp in c.chosen if inp.startswith("free_dist")
        )
        cells[(feeders, hosts)] += 1

    ok = (
        len(configs) == 1152
        and len(cells) == 36
        and set(cells.values()) == {32}
        and elapsed < 1.0
    )
    verdict(
        "criterion 1 enumeration exactness",
        ok,
        f"{len(configs)} configurations = {len(cells)} placement cells x "
        f"{min(cells.values())}..{max(cells.values())} wirings in {elapsed:.3f} s",
    )


def test_criterion_02_dedup_exactness(case_space, case_configs):
    distinct = deduplicate(case_space, case_configs)
    total = sum(mult for _, mult in distinct)
    ok = len(distinct) == 288 and total == 1152
    verdict(
        "criterion 2 dedup exactness",
        ok,
        f"{len(distinct)} distinct designs, multiplicities sum to {total}",
    )


SCENARIO1_TABLE = [
    ("batching1", 1, 60.0, 100.0, 200.0, 50.0),
    ("batching2", 2, 60.0, 150.0, 200.0, 100.0),
    ("burger", 3, 30.0, 200.0, 300.0, 100.0),
    ("schnitzel", 4, 30.0, 250.0, 350.0, 50.0),
    ("fillet_strips", None, None, 0.0, 1000.0, 0.0),
]

SCENARIO2_TABLE = [
    ("batching1", 3, 30.0, 100.0, 200.0, 50.0),
    ("batching2", 4, 30.0, 150.0, 200.0, 100.0),
    ("burger", 1, 60.0, 200.0, 300.0, 100.0),
    ("schnitzel", 2, 60.0, 250.0, 350.0, 50.0),
    ("fillet_strips", None, None, 0.0, 1000.0, 0.0),
]


def test_criterion_03_recipe_table_roundtrip():
    mismatches = []
    for path, table in ((SCENARIO_PATHS[0], SCENARIO1_TABLE), (SCENARIO_PATHS[1], SCENARIO2_TABLE)):
        scenario = load_scenario(path)
        got = [
            (r.destination, r.priority, r.target_per_min,
             r.min_weight_g, r.max_weight_g, r.max_trim_g)
            for r in scenario.recipes
        ]
        if got != table:
            mismatches.append(f"{path.name}: {got}")
    verdict(
        "criterion 3 recipe tables",
        not mismatches,
        "all 2x5x6 cells exact" if not mismatches else "; ".join(mismatches),
    )


def test_criterion_04_conservation_suite(random_cell_tallies):
    worst_rel = 0.0
    count_ok = True
    for design, scenario, seed, t in random_cell_tallies:
        if t.injected != sum(t.counts.values()) + t.in_flight:
            count_ok = False
        out_mass = sum(t.masses.values()) + t.trim_mass_g + t.in_flight_mass_g
        rel = abs(t.injected_mass_g - out_mass) / t.injected_mass_g
        worst_rel = max(worst_rel, rel)
    ok = count_ok and worst_rel <= 1e-6
    verdict(
        "criterion 4 conservation",
        ok,
        f"{len(random_cell_tallies)} cells, counts exact: {count_ok}, "
        f"worst mass error {worst_rel:.2e} relative",
    )


def test_criterion_05_band_compliance(random_cell_tallies, batch_serial):
    cell_violations = sum(t.band_violations for *_, t in random_cell_tallies)
    with open(batch_serial.files["results"], newline="") as fh:
        batch_violations = sum(int(r["band_violations"]) for r in csv.DictReader(fh))
    ok = cell_violations == 0 and batch_violations == 0
    verdict(
        "criterion 5 band compliance",
        ok,
        f"0 tolerated; saw {cell_violations} in 50 random cells, "
        f"{batch_violations} across the 2304-run batch",
    )


def test_criterion_06_throughput_oracle(tmp_path):
    # single lane, 60/min, weights uniform over [100, 300): 20 bins of 10 g,
    # so every bin carries 60/20 = 3 fillets/min
    rate = 60.0
    bins_total = 20
    per_bin = rate / bins_total
    target = 20.0
    # whole-bin growth stops at the first bin whose addition reaches the
    # target, hence the ceiling; no trimming is allowed in this setup
    assigned_bins = math.ceil(target / per_bin)
    oracle = assigned_bins * per_bin
    assert oracle == 21.0  # 7 bins of 3/min

    grid = tmp_path / "uniform_grid.txt"
    grid.write_text(
        "\n".join(
            f"{100.0 + b * 10.0 + 0.05 + j * 0.099:.3f}"
            for j in range(100)
            for b in range(bins_total)
        )
    )
    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {
                "id": "oracle_lane",
                "modules": [
                    {"id": "origin1", "kind": "origin", "out_ports": ["out"]},
                    {"id": "weigh1", "kind": "weighing", "in_ports": ["in"], "out_ports": ["out"]},
                    {"id": "assign1", "kind": "assignment", "in_ports": ["in"], "out_ports": ["out"]},
                    {"id": "dist1", "kind": "distribution", "in_ports": ["in"], "out_ports": ["out1", "out2"]},
                    {"id": "dest_a", "kind": "destination", "in_ports": ["in"],
                     "destination_tag": "batching1", "latency_s": 0.0},
                    {"id": "dest_strips", "kind": "destination", "in_ports": ["in"],
                     "destination_tag": "fillet_strips", "latency_s": 0.0},
                ],
                "allowed": [
                    ["origin1.out", "weigh1.in"],
                    ["weigh1.out", "assign1.in"],
                    ["assign1.out", "dist1.in"],
                    ["dist1.out1", "dest_a.in"],
                    ["dist1.out2", "dest_strips.in"],
                ],
            }
        )
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "id": "uniform",
                "recipes": [
                    {"destination": "batching1", "priority": 1,
                     "target_throughput_per_min": target,
                     "min_fillet_weight_g": 100, "max_fillet_weight_g": 200,
                     "max_trim_weight_g": 0},
                    {"destination": "fillet_strips", "priority": "*",
                     "target_throughput_per_min": "*",
                     "min_fillet_weight_g": 0, "max_fillet_weight_g": 1000,
                     "max_trim_weight_g": 0},
                ],
                "inflow": [
                    {"lane": "origin1", "rate_per_min": rate,
                     "weights": {"kind": "empirical", "file": "uniform_grid.txt"}},
                ],
                "horizon_s": 3600,
                "controller": {"N": 1000, "t_s": 10, "bin_width_g": 10, "warmup_s": 60},
            }
        )
    )
    record, _ = simulate_single(str(space), 0, str(scenario), seed=2718)
    achieved = record["achieved_per_min_batching1"]
    rel = abs(achieved - oracle) / oracle
    verdict(
        "criterion 6 throughput oracle",
        rel <= 0.05,
        f"achieved {achieved:.2f}/min vs closed-form {oracle:.2f}/min "
        f"({rel:.1%} off, 5% allowed)",
    )


def test_criterion_07_trimming_lifts_attainment():
    base = {
        "id": "trimlane",
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
    space = parse_design_space(base)
    configs = list(enumerate_configurations(space))
    with_trimmer = next(
        c for c in configs if ("assign1.out", "trimmer1.in") in c.chosen
    )
    without = next(c for c in configs if ("assign1.out", "dist1.in") in c.chosen)

    scenario_doc = {
        "id": "heavy",
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
    from flowdse.evaluator import score
    from flowdse.scenario import parse_scenario

    scenario = parse_scenario(scenario_doc, base_dir=Path("."))
    attainments = {}
    for label, config in (("with", with_trimmer), ("without", without)):
        tallies = PlantSimulation(space, config, scenario, seed=7).run()
        attainments[label] = score(tallies, scenario, config.index, 7)["attainment_batching2"]
    ok = attainments["with"] > 0.9 and attainments["without"] < 0.05
    verdict(
        "criterion 7 trimming lifts attainment",
        ok,
        f"280 g inflow, 150-200 g order: with trimmer {attainments['with']:.3f} "
        f"(> 0.9), without {attainments['without']:.3f} (< 0.05)",
    )


def plot_vectors(report):
    with open(report.files["plot"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    kpi_cols = [c for c in rows[0] if c.startswith("kpi_")]
    vectors = [
        KpiVector(int(r["design"]), tuple(float(r[c]) for c in kpi_cols))
        for r in rows
    ]
    flagged = {int(r["design"]) for r in rows if r["pareto_optimal"] == "1"}
    return vectors, flagged


def test_criterion_08_pareto_correctness(batch_serial):
    vectors, flagged = plot_vectors(batch_serial)
    oracle = brute_force_front(vectors)
    front_ids = batch_serial.front.design_indices()
    full_ok = front_ids == oracle == flagged

    rng = random.Random(0xBEEF)
    random_ok = True
    for _ in range(1000):
        dims = rng.randrange(1, 4)
        vs = [
            KpiVector(i, tuple(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()])
                               for _ in range(dims)))
            for i in range(rng.randrange(1, 30))
        ]
        if ParetoFront.from_vectors(vs).design_indices() != brute_force_front(vs):
            random_ok = False
            break
    ok = full_ok and random_ok
    verdict(
        "criterion 8 pareto correctness",
        ok,
        f"front of {len(front_ids)} equals the pairwise filter on the full batch "
        f"({len(vectors)} designs) and on 1000 random sets",
    )


def test_criterion_09_parallel_equivalence(batch_serial, batch_parallel):
    def rows(report):
        with open(report.files["results"], newline="") as fh:
            return sorted(tuple(sorted(r.items())) for r in csv.DictReader(fh))

    serial, parallel = rows(batch_serial), rows(batch_parallel)
    ok = serial == parallel
    verdict(
        "criterion 9 parallel equivalence",
        ok,
        f"jobs=1 vs jobs=8: row sets of {len(serial)} records "
        f"{'identical' if ok else 'DIFFER'}",
    )


def test_criterion_10_desk_scale_performance(batch_serial):
    budget = 900.0  # 15 minutes, soft
    ok = batch_serial.wall_s <= budget
    verdict(
        "criterion 10 desk-scale performance",
        ok,
        f"full 2304-cell batch in {batch_serial.wall_s:.0f} s "
        f"(budget {budget:.0f} s)",
    )
