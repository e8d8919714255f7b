"""Inputs of the benchmark's workloads, made from a workload seed.

Every input the program sees is written here: the design space, the scenario
files, the empirical weight files and the plan (flags and base seed) that the
rounds run. The same (workload, seed) pair always writes the same files. The
seed varies the base seed and the inflow weights; it never changes the
structure of a space, the number of cells or the number of fillets a
deterministic lane injects, so every seed asks the program for the same amount
of work.

Make a workload's inputs anew with

    python3 perfbench/workloads.py --workload screening --seed 1 --out /tmp/in
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "flowdse" / "data"

WORKLOADS = ("case_study", "screening", "long_run")

# the bundled scenarios' per-lane truncated normals
LANE_MEANS_G = (220.0, 280.0, 340.0, 400.0)
STDDEV_G, LOWER_G, UPPER_G = 45.0, 80.0, 650.0

# >= 1200 s, so the 1000-weight controller windows fill and evict; not 1200 s
# itself, where horizon * 54.2 / 60 is whole and the arrival count sits on a rounding edge
CASE_STUDY_HORIZON_S = 1215.0
CASE_STUDY_CONFIGURATIONS = 1152
CASE_STUDY_DESIGNS = 288

# screening: groups of lanes wired like a small copy of the case study
SCREEN_GROUPS = 3
SCREEN_LANES_PER_GROUP = 2
SCREEN_OUT1_TAGS = ("burger", "schnitzel", "nuggets", "kebab")
SCREEN_OUT2_TAGS = ("batching1", "batching2", "batching3")
SCREEN_WARMUP_S = 6.0
SCREEN_HORIZON_S = 12.0

LONG_RUN_HORIZON_S = 3 * 3600.0
LONG_RUN_REPLICATIONS = 2
LONG_RUN_WEIGHTS_PER_FILE = 2000
LONG_RUN_CONFIGURATIONS = 3  # no trimmer, lane 3 trims, lane 4 trims


def derive(seed: int, *labels) -> int:
    """64-bit value from the run seed and a label path (independent streams)."""
    text = ":".join(["perfbench", str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _module(mid, kind, ins=(), outs=(), latency=1.0, **extra):
    m = {"id": mid, "kind": kind, "latency_s": latency}
    if ins:
        m["in_ports"] = list(ins)
    if outs:
        m["out_ports"] = list(outs)
    m.update(extra)
    return m


def _destination(tag):
    return _module(f"dest_{tag}", "destination", ins=("in",), latency=0.0, destination_tag=tag)


def _lane_modules(i):
    return [
        _module(f"origin{i}", "origin", outs=("out",)),
        _module(f"weigh{i}", "weighing", ins=("in",), outs=("out",)),
        _module(f"assign{i}", "assignment", ins=("in",), outs=("out",)),
        _module(f"dist{i}", "distribution", ins=("in",), outs=("out1", "out2")),
    ]


def _trunk_pairs(i):
    return [[f"origin{i}.out", f"weigh{i}.in"], [f"weigh{i}.out", f"assign{i}.in"]]


def screening_space() -> dict:
    """Groups of lanes, each a small copy of the case-study wiring.

    Group g has its own trimmer and free distributor (both required). A
    group's assignment stages feed the group trimmer or their own
    distributor, the trimmer feeds one of the group's distributors, and a
    distributor's first out-port feeds the group's free distributor or the
    strips. The free distributors share the recipe destinations.
    """
    modules, allowed = [], []
    lanes = SCREEN_GROUPS * SCREEN_LANES_PER_GROUP
    for i in range(1, lanes + 1):
        modules += _lane_modules(i)
        allowed += _trunk_pairs(i)
    for g in range(1, SCREEN_GROUPS + 1):
        modules.append(_module(f"trimmer{g}", "trimming", ins=("in",), outs=("out",), required=True))
        modules.append(
            _module(f"free_dist{g}", "distribution", ins=("in",), outs=("out1", "out2"), required=True)
        )
        members = range((g - 1) * SCREEN_LANES_PER_GROUP + 1, g * SCREEN_LANES_PER_GROUP + 1)
        for i in members:
            allowed += [[f"assign{i}.out", f"trimmer{g}.in"], [f"assign{i}.out", f"dist{i}.in"]]
        for i in members:
            allowed.append([f"trimmer{g}.out", f"dist{i}.in"])
        for i in members:
            allowed += [
                [f"dist{i}.out1", f"free_dist{g}.in"],
                [f"dist{i}.out1", "dest_fillet_strips.in"],
                [f"dist{i}.out2", "dest_fillet_strips.in"],
            ]
        allowed += [[f"free_dist{g}.out1", f"dest_{t}.in"] for t in SCREEN_OUT1_TAGS]
        allowed += [[f"free_dist{g}.out2", f"dest_{t}.in"] for t in SCREEN_OUT2_TAGS]
    modules += [_destination(t) for t in SCREEN_OUT1_TAGS + SCREEN_OUT2_TAGS + ("fillet_strips",)]
    return {"id": "screening", "modules": modules, "allowed": allowed}


def screening_configurations() -> int:
    """Configuration count of screening_space, from how it is built.

    In a group of k lanes exactly one lane passes the trimmer, whose output
    must then feed that lane's distributor (every other one is fed by its own
    lane): k ways. Exactly one of the k distributors feeds the free
    distributor: k ways. The G free distributors take distinct destinations on
    each out-port: perm(|out1 tags|, G) * perm(|out2 tags|, G).
    """
    k, g = SCREEN_LANES_PER_GROUP, SCREEN_GROUPS
    return (k * k) ** g * math.perm(len(SCREEN_OUT1_TAGS), g) * math.perm(len(SCREEN_OUT2_TAGS), g)


def long_run_space() -> dict:
    """The case-study modules with the matrix narrowed to three wirings.

    One optional trimmer serves lane 3 or lane 4, which feed one free
    distributor each; lanes 1 and 2 feed only the strips. The wirings are: no
    trimmer, lane 3 trims, lane 4 trims. Every allowed pair is one of the
    case-study matrix.
    """
    space = json.loads((DATA / "case_study_space.json").read_text(encoding="utf-8"))
    space["modules"] = [m for m in space["modules"] if m["id"] != "trimmer2"]
    for m in space["modules"]:
        if m["id"] == "trimmer1":
            m["required"] = False
    allowed = []
    for i in range(1, 5):
        allowed += _trunk_pairs(i)
    allowed += [
        ["assign1.out", "dist1.in"],
        ["assign2.out", "dist2.in"],
        ["assign3.out", "trimmer1.in"],
        ["assign3.out", "dist3.in"],
        ["assign4.out", "trimmer1.in"],
        ["assign4.out", "dist4.in"],
        ["trimmer1.out", "dist3.in"],
        ["trimmer1.out", "dist4.in"],
        ["dist1.out1", "dest_fillet_strips.in"],
        ["dist2.out1", "dest_fillet_strips.in"],
        ["dist3.out1", "free_dist1.in"],
        ["dist4.out1", "free_dist2.in"],
        ["free_dist1.out1", "dest_burger.in"],
        ["free_dist1.out2", "dest_batching1.in"],
        ["free_dist2.out1", "dest_schnitzel.in"],
        ["free_dist2.out2", "dest_batching2.in"],
    ]
    allowed += [[f"dist{i}.out2", "dest_fillet_strips.in"] for i in range(1, 5)]
    bundled = {tuple(p) for p in space["allowed"]}
    stray = [p for p in allowed if tuple(p) not in bundled]
    if stray:
        raise ValueError(f"long_run pairs outside the case-study matrix: {stray}")
    space["id"] = "long_run"
    space["allowed"] = allowed
    space.pop("comment", None)
    return space


def _jittered_mean(seed: int, workload: str, lane: int, base: float) -> float:
    """Lane mean moved by at most 5 g, so a seed shifts weights but not work."""
    rng = random.Random(derive(seed, workload, "mean", lane))
    return round(base + rng.uniform(-5.0, 5.0), 3)


def _truncated_normal(mean, stddev, lower, upper, count, rng):
    values = []
    while len(values) < count:
        w = rng.gauss(mean, stddev)
        if lower <= w <= upper:
            values.append(w)
    return values


def _bundled(name: str) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _screening_scenario(seed: int) -> dict:
    lanes = SCREEN_GROUPS * SCREEN_LANES_PER_GROUP
    recipes = [
        # light, then heavier bands; targets are per minute over all lanes
        ("batching1", 1, 40, 100, 200, 50),
        ("batching2", 2, 40, 150, 200, 100),
        ("batching3", 3, 30, 180, 260, 60),
        ("burger", 4, 30, 200, 300, 100),
        ("schnitzel", 5, 30, 250, 350, 50),
        ("nuggets", 6, 20, 300, 420, 80),
        ("kebab", 7, 20, 350, 500, 100),
    ]
    doc_recipes = [
        {
            "destination": d,
            "priority": p,
            "target_throughput_per_min": t,
            "min_fillet_weight_g": lo,
            "max_fillet_weight_g": hi,
            "max_trim_weight_g": trim,
        }
        for d, p, t, lo, hi, trim in recipes
    ]
    doc_recipes.append(
        {
            "destination": "fillet_strips",
            "priority": "*",
            "target_throughput_per_min": "*",
            "min_fillet_weight_g": 0,
            "max_fillet_weight_g": 1000,
            "max_trim_weight_g": 0,
        }
    )
    inflow = []
    for i in range(lanes):
        base = LANE_MEANS_G[0] + i * (LANE_MEANS_G[-1] - LANE_MEANS_G[0]) / (lanes - 1)
        inflow.append(
            {
                "lane": f"lane{i + 1}",
                "rate_per_min": 54.2,
                "weights": {
                    "kind": "truncated_normal",
                    "mean_g": _jittered_mean(seed, "screening", i, base),
                    "stddev_g": STDDEV_G,
                    "lower_g": LOWER_G,
                    "upper_g": UPPER_G,
                },
            }
        )
    return {
        "id": "screening",
        "recipes": doc_recipes,
        "inflow": inflow,
        "horizon_s": SCREEN_HORIZON_S,
        "controller": {"N": 1000, "t_s": 10, "bin_width_g": 10, "warmup_s": SCREEN_WARMUP_S},
    }


def _long_run_scenario(seed: int, name: str, out_dir: Path) -> dict:
    doc = _bundled(f"{name}.json")
    doc.pop("comment", None)
    for i, lane in enumerate(doc["inflow"]):
        rng = random.Random(derive(seed, "long_run", name, "weights", i))
        mean = _jittered_mean(seed, f"long_run:{name}", i, LANE_MEANS_G[i])
        values = _truncated_normal(mean, STDDEV_G, LOWER_G, UPPER_G, LONG_RUN_WEIGHTS_PER_FILE, rng)
        weight_file = f"{name}_lane{i + 1}_weights.txt"
        (out_dir / weight_file).write_text("".join(f"{w:.3f}\n" for w in values), encoding="utf-8")
        lane["process"] = "poisson"
        lane["weights"] = {"kind": "empirical", "file": weight_file}
    doc["horizon_s"] = LONG_RUN_HORIZON_S
    doc["controller"] = {"N": 2000, "t_s": 5, "bin_width_g": 10, "warmup_s": 60}
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write one workload's inputs into out_dir; returns (and writes) its plan."""
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = {
        "workload": workload,
        "seed": seed,
        "base_seed": derive(seed, workload, "base"),
        "space": "space.json",
        "replications": 1,
        "dedup": False,
        "jobs": 1,
        "resumes": False,
    }
    if workload == "case_study":
        _write_json(out_dir / "space.json", _bundled("case_study_space.json"))
        names = []
        for name in ("scenario1", "scenario2"):
            doc = _bundled(f"{name}.json")
            doc["horizon_s"] = CASE_STUDY_HORIZON_S
            _write_json(out_dir / f"{name}.json", doc)
            names.append(f"{name}.json")
        plan.update(
            scenarios=names,
            dedup=True,
            resumes=True,
            configurations=CASE_STUDY_CONFIGURATIONS,
            designs=CASE_STUDY_DESIGNS,
        )
    elif workload == "screening":
        _write_json(out_dir / "space.json", screening_space())
        _write_json(out_dir / "screening.json", _screening_scenario(seed))
        n = screening_configurations()
        plan.update(scenarios=["screening.json"], jobs=2, configurations=n, designs=n)
    elif workload == "long_run":
        _write_json(out_dir / "space.json", long_run_space())
        names = []
        for name in ("scenario1", "scenario2"):
            _write_json(out_dir / f"{name}.json", _long_run_scenario(seed, name, out_dir))
            names.append(f"{name}.json")
        plan.update(
            scenarios=names,
            replications=LONG_RUN_REPLICATIONS,
            configurations=LONG_RUN_CONFIGURATIONS,
            designs=LONG_RUN_CONFIGURATIONS,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(out_dir / "plan.json", plan)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, Path(args.out))
    print(f"{args.workload} seed {args.seed} -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
