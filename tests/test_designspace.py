import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdse import designspace
from flowdse.designspace import (
    LANE_CACHE_ENTRIES,
    DesignConfiguration,
    DesignSpaceError,
    ModuleKind,
    PlantBuildError,
    canonical_key,
    compile_design,
    deduplicate,
    enumerate_configurations,
    interchangeable_classes,
    load_design_space,
    parse_design_space,
    space_problems,
)
import route_oracle
from configuration_oracle import connected_modules, validate_configuration

DATA = Path(__file__).parent.parent / "src" / "flowdse" / "data"


@pytest.fixture(scope="module")
def case_space():
    return load_design_space(DATA / "case_study_space.json")


@pytest.fixture(scope="module")
def case_configs(case_space):
    return list(enumerate_configurations(case_space))


def module(mid, kind, **kw):
    d = {"id": mid, "kind": kind}
    shapes = {
        "origin": ([], ["out"]),
        "weighing": (["in"], ["out"]),
        "assignment": (["in"], ["out"]),
        "trimming": (["in"], ["out"]),
        "distribution": (["in"], ["out1", "out2"]),
        "destination": (["in"], []),
    }
    ins, outs = shapes[kind]
    if ins:
        d["in_ports"] = ins
    if outs:
        d["out_ports"] = outs
    d.update(kw)
    return d


def linear_space():
    """origin -> weigh -> assign -> dist -> two destinations, no choices."""
    return parse_design_space(
        {
            "id": "linear",
            "modules": [
                module("o", "origin"),
                module("w", "weighing"),
                module("a", "assignment"),
                module("d", "distribution"),
                module("strips", "destination", destination_tag="fillet_strips"),
                module("x", "destination", destination_tag="burger"),
            ],
            "allowed": [
                ["o.out", "w.in"],
                ["w.out", "a.in"],
                ["a.out", "d.in"],
                ["d.out1", "x.in"],
                ["d.out2", "strips.in"],
            ],
        }
    )


def brute_force_enumerate(space):
    """Independent oracle: filtered cartesian product over out-port rows.

    Every out-port picks an allowed in-port or stays disconnected; a choice
    vector is kept when it describes exactly the configurations the frontier
    rules accept. Exponential, so only for small spaces.
    """
    out_ports = [m.port_key(p) for m in space.modules for p in m.out_ports]
    rows = [list(space.choices[p]) + [None] for p in out_ports]
    owner = space.port_owner
    required = {m.module_id for m in space.modules if m.required}
    origins = {m.module_id for m in space.origins}

    found = []
    for combo in itertools.product(*rows):
        chosen = {
            port: target
            for port, target in zip(out_ports, combo)
            if target is not None
        }
        # connected = origins plus everything reached through chosen edges,
        # computed as a fixpoint from the origins
        connected = set(origins)
        while True:
            grew = False
            for port, target in chosen.items():
                src = owner[port].module_id
                dst = owner[target].module_id
                if src in connected and dst not in connected:
                    connected.add(dst)
                    grew = True
            if not grew:
                break

        ok = True
        # edges may only leave connected modules, and all-or-none per module
        for m in space.modules:
            wired = [p for p in m.out_ports if m.port_key(p) in chosen]
            if m.module_id in connected:
                if len(wired) != len(m.out_ports):
                    ok = False
                    break
            elif wired:
                ok = False
                break
        if not ok:
            continue
        # single feed except merge-capable destinations
        feeds = Counter(
            target
            for port, target in chosen.items()
            if owner[port].module_id in connected
        )
        for in_port, n in feeds.items():
            t = owner[in_port]
            if n > 1 and not (t.kind == ModuleKind.DESTINATION and t.merge_allowed):
                ok = False
                break
        if not ok or not required <= connected:
            continue
        found.append(tuple(sorted((p, chosen[p]) for p in chosen)))
    return found


class TestEnumerationSmall:
    def test_forced_chain_yields_one_configuration(self):
        space = linear_space()
        configs = list(enumerate_configurations(space))
        assert len(configs) == 1
        assert connected_modules(space, configs[0]) == {"o", "w", "a", "d", "strips", "x"}

    def test_two_by_two_unconstrained_choices(self):
        space = parse_design_space(
            {
                "id": "free",
                "modules": [
                    module("o1", "origin"),
                    module("o2", "origin"),
                    module("w1", "weighing"),
                    module("a1", "assignment"),
                    module("w2", "weighing"),
                    module("a2", "assignment"),
                    module("s1", "destination", destination_tag="fillet_strips"),
                    module("s2", "destination", destination_tag="fillet_strips2",
                           merge_allowed=True),
                ],
                "allowed": [
                    ["o1.out", "w1.in"],
                    ["o2.out", "w2.in"],
                    ["w1.out", "a1.in"],
                    ["w2.out", "a2.in"],
                    ["a1.out", "s1.in"],
                    ["a1.out", "s2.in"],
                    ["a2.out", "s1.in"],
                    ["a2.out", "s2.in"],
                ],
            }
        )
        configs = list(enumerate_configurations(space))
        assert len(configs) == 4

    def test_matches_cartesian_oracle_on_optional_trimmer_space(self):
        space = parse_design_space(
            {
                "id": "opt",
                "modules": [
                    module("o", "origin"),
                    module("w", "weighing"),
                    module("a", "assignment"),
                    module("t", "trimming"),
                    module("d", "distribution"),
                    module("burger", "destination", destination_tag="burger"),
                    module("strips", "destination", destination_tag="fillet_strips"),
                ],
                "allowed": [
                    ["o.out", "w.in"],
                    ["w.out", "a.in"],
                    ["a.out", "t.in"],
                    ["a.out", "d.in"],
                    ["t.out", "d.in"],
                    ["d.out1", "burger.in"],
                    ["d.out1", "strips.in"],
                    ["d.out2", "strips.in"],
                ],
            }
        )
        got = sorted(c.chosen for c in enumerate_configurations(space))
        expected = sorted(brute_force_enumerate(space))
        assert got == expected
        assert len(got) == 4  # trimmer in or out, times two dist.out1 targets

    def test_no_duplicate_configurations(self, case_configs):
        seen = {c.chosen for c in case_configs}
        assert len(seen) == len(case_configs)

    def test_indices_are_enumeration_positions(self, case_configs):
        assert [c.index for c in case_configs] == list(range(len(case_configs)))

    def test_dead_end_space_yields_nothing(self):
        # the only target of the origin chain requires a second feed that
        # never exists, so every branch dies on the all-or-none rule
        space = parse_design_space(
            {
                "id": "dead",
                "modules": [
                    module("o", "origin"),
                    module("w", "weighing"),
                    module("a", "assignment"),
                    module("t", "trimming", required=True),
                    module("strips", "destination", destination_tag="fillet_strips"),
                ],
                "allowed": [
                    ["o.out", "w.in"],
                    ["w.out", "a.in"],
                    ["a.out", "strips.in"],
                    ["t.out", "strips.in"],
                ],
            }
        )
        assert list(enumerate_configurations(space)) == []


class TestCaseStudySpace:
    def test_exactly_1152_configurations(self, case_configs):
        assert len(case_configs) == 1152

    def test_configurations_share_their_pairs(self, case_space, case_configs):
        # one pair object per allowed pair, however many configurations hold it
        pairs = {id(p) for c in case_configs for p in c.chosen}
        assert len(pairs) <= len(case_space.allowed)

    def test_decomposes_into_six_by_six_by_thirtytwo(self, case_configs):
        cells = Counter()
        for c in case_configs:
            feeders = frozenset(
                out.split(".")[0] for out, inp in c.chosen if inp.startswith("trimmer")
            )
            hosts = frozenset(
                out.split(".")[0] for out, inp in c.chosen if inp.startswith("free_dist")
            )
            cells[(feeders, hosts)] += 1
        assert len(cells) == 36  # 6 trimmer placements x 6 distributor placements
        assert set(cells.values()) == {32}

    def test_every_configuration_is_valid(self, case_space, case_configs):
        for c in case_configs:
            assert validate_configuration(case_space, c) == []

    def test_all_destinations_served_in_every_configuration(self, case_space, case_configs):
        for c in case_configs[::53]:
            catalog = compile_design(case_space, c).catalog
            served = set().union(*catalog.reachable.values())
            assert served == {"batching1", "batching2", "burger", "schnitzel", "fillet_strips"}

    def test_exactly_two_lanes_trim_in_every_configuration(self, case_space, case_configs):
        for c in case_configs[::53]:
            catalog = compile_design(case_space, c).catalog
            assert sum(catalog.has_trimmer.values()) == 2


class TestDeduplication:
    def test_case_study_collapses_to_288(self, case_space, case_configs):
        distinct = deduplicate(case_space, case_configs)
        assert len(distinct) == 288

    def test_multiplicities_sum_to_raw_count(self, case_space, case_configs):
        distinct = deduplicate(case_space, case_configs)
        assert sum(mult for _, mult in distinct) == 1152
        assert all(mult == 4 for _, mult in distinct)

    def test_interchangeable_classes_are_the_free_modules(self, case_space):
        classes = {frozenset(cls) for cls in interchangeable_classes(case_space)}
        assert classes == {
            frozenset({"trimmer1", "trimmer2"}),
            frozenset({"free_dist1", "free_dist2"}),
        }

    def test_trimmer_swap_shares_a_key(self, case_space, case_configs):
        classes = interchangeable_classes(case_space)
        by_key = {}
        for c in case_configs:
            by_key.setdefault(canonical_key(case_space, c, classes), []).append(c)
        # pick any class and check its members differ exactly by free-module swaps
        members = next(iter(by_key.values()))
        assert len(members) == 4
        swap = {"trimmer1": "trimmer2", "trimmer2": "trimmer1"}
        one = members[0]
        renamed = tuple(
            sorted(
                (
                    ".".join([swap.get(o.split(".")[0], o.split(".")[0]), o.split(".")[1]]),
                    ".".join([swap.get(i.split(".")[0], i.split(".")[0]), i.split(".")[1]]),
                )
                for o, i in one.chosen
            )
        )
        assert renamed in {m.chosen for m in members}

    def test_representative_is_smallest_encoding(self, case_space, case_configs):
        distinct = deduplicate(case_space, case_configs)
        classes = interchangeable_classes(case_space)
        rep_keys = {}
        for c in case_configs:
            key = canonical_key(case_space, c, classes)
            rep_keys.setdefault(key, []).append(c.chosen)
        for rep, _ in distinct[:20]:
            key = canonical_key(case_space, rep, classes)
            assert rep.chosen == min(rep_keys[key])

    def test_single_configuration_space_multiplicity_one(self):
        distinct = deduplicate(linear_space(), enumerate_configurations(linear_space()))
        assert [(c.index, m) for c, m in distinct] == [(0, 1)]

    def test_no_false_merges(self, case_space, case_configs):
        # members of one key class must differ only by the free-module relabeling;
        # representatives of different classes must differ structurally
        classes = interchangeable_classes(case_space)
        keys = {canonical_key(case_space, c, classes) for c in case_configs}
        assert len(keys) == 288


class TestSpaceValidation:
    def test_empty_row_rejected(self):
        with pytest.raises(DesignSpaceError, match="empty row"):
            parse_design_space(
                {
                    "id": "bad",
                    "modules": [
                        module("o", "origin"),
                        module("w", "weighing"),
                        module("strips", "destination", destination_tag="fillet_strips"),
                    ],
                    "allowed": [["o.out", "w.in"]],
                }
            )

    def test_unknown_port_rejected(self):
        with pytest.raises(DesignSpaceError, match="unknown"):
            parse_design_space(
                {
                    "id": "bad",
                    "modules": [
                        module("o", "origin"),
                        module("strips", "destination", destination_tag="fillet_strips"),
                    ],
                    "allowed": [["o.out", "nope.in"]],
                }
            )

    def test_port_shape_mismatch_rejected(self):
        with pytest.raises(DesignSpaceError, match="ports"):
            parse_design_space(
                {
                    "id": "bad",
                    "modules": [
                        {"id": "o", "kind": "origin", "out_ports": ["a", "b"]},
                        module("strips", "destination", destination_tag="fillet_strips"),
                    ],
                    "allowed": [["o.a", "strips.in"], ["o.b", "strips.in"]],
                }
            )

    def test_untagged_destination_rejected(self):
        with pytest.raises(DesignSpaceError, match="tag"):
            parse_design_space(
                {
                    "id": "bad",
                    "modules": [module("o", "origin"), module("d", "destination")],
                    "allowed": [["o.out", "d.in"]],
                }
            )

    def test_duplicate_tag_rejected(self):
        with pytest.raises(DesignSpaceError, match="duplicate destination tag"):
            parse_design_space(
                {
                    "id": "bad",
                    "modules": [
                        module("o", "origin"),
                        module("d1", "destination", destination_tag="burger"),
                        module("d2", "destination", destination_tag="burger"),
                    ],
                    "allowed": [["o.out", "d1.in"], ["o.out", "d2.in"]],
                }
            )

    def test_problem_list_names_every_issue(self):
        space = linear_space()
        assert space_problems(space) == []

    def test_merge_defaults_follow_the_strips_tag(self, case_space):
        strips = case_space.by_id["dest_fillet_strips"]
        burger = case_space.by_id["dest_burger"]
        assert strips.merge_allowed and not burger.merge_allowed


class TestConfigurationAudit:
    def test_foreign_edge_detected(self, case_space, case_configs):
        config = case_configs[0]
        doctored = DesignConfiguration(
            index=-1,
            chosen=tuple(sorted(config.chosen + (("assign1.out", "dist2.in"),))),
        )
        problems = validate_configuration(case_space, doctored)
        assert any("not in the matrix" in p for p in problems)

    def test_double_feed_detected(self):
        # both feeds are individually allowed; taking them together is not
        space = parse_design_space(
            {
                "id": "converge",
                "modules": [
                    module("o1", "origin"),
                    module("o2", "origin"),
                    module("w1", "weighing"),
                    module("w2", "weighing"),
                    module("a1", "assignment"),
                    module("a2", "assignment"),
                    module("x", "destination", destination_tag="burger"),
                ],
                "allowed": [
                    ["o1.out", "w1.in"],
                    ["o2.out", "w2.in"],
                    ["w1.out", "a1.in"],
                    ["w2.out", "a2.in"],
                    ["a1.out", "x.in"],
                    ["a2.out", "x.in"],
                ],
            }
        )
        assert list(enumerate_configurations(space)) == []
        doctored = DesignConfiguration(
            index=-1,
            chosen=tuple(
                sorted(
                    [
                        ("o1.out", "w1.in"),
                        ("o2.out", "w2.in"),
                        ("w1.out", "a1.in"),
                        ("w2.out", "a2.in"),
                        ("a1.out", "x.in"),
                        ("a2.out", "x.in"),
                    ]
                )
            ),
        )
        problems = validate_configuration(space, doctored)
        assert problems == ["in-port x.in fed by 2 connections"]

    def test_missing_required_module_detected(self, case_space, case_configs):
        config = case_configs[0]
        pruned = tuple(
            (o, i) for o, i in config.chosen if "free_dist1" not in o and "free_dist1" not in i
        )
        doctored = DesignConfiguration(
            index=-1,
            chosen=pruned,
        )
        problems = validate_configuration(case_space, doctored)
        assert any("required module free_dist1" in p for p in problems)

    def test_cycle_detected(self):
        space = loopable_space()
        # enumeration refuses the back edge (d1.in already fed)
        for c in enumerate_configurations(space):
            assert ("d2.out1", "d1.in") not in c.chosen
        # a hand-built cyclic wiring is flagged
        problems = validate_configuration(space, LOOPED)
        assert any("cycle" in p for p in problems)
        assert any("fed by 2" in p for p in problems)


class TestRouteDerivation:
    def test_linear_lane_reaches_both_branches(self):
        space = linear_space()
        config = next(iter(enumerate_configurations(space)))
        catalog = compile_design(space, config).catalog
        assert catalog.reachable == {"o": frozenset({"burger", "fillet_strips"})}
        assert catalog.has_trimmer == {"o": False}

    def test_matches_bfs_oracle_on_case_study(self, case_space, case_configs):
        owner = case_space.port_owner
        for config in case_configs[::111]:
            edge_map = config.edge_map
            catalog = compile_design(case_space, config).catalog
            for origin in case_space.origins:
                # plain BFS over module successors, written independently
                seen, frontier, tags = set(), [origin.module_id], set()
                while frontier:
                    mid = frontier.pop()
                    if mid in seen:
                        continue
                    seen.add(mid)
                    m = case_space.by_id[mid]
                    if m.kind == ModuleKind.DESTINATION:
                        tags.add(m.destination_tag)
                        continue
                    for p in m.out_ports:
                        inp = edge_map.get(m.port_key(p))
                        if inp:
                            frontier.append(owner[inp].module_id)
                assert catalog.reachable[origin.module_id] == tags

    def test_trimmer_behind_distributor_does_not_count(self):
        space = parse_design_space(
            {
                "id": "latetrim",
                "modules": [
                    module("o", "origin"),
                    module("w", "weighing"),
                    module("a", "assignment"),
                    module("d", "distribution"),
                    module("t", "trimming"),
                    module("burger", "destination", destination_tag="burger"),
                    module("strips", "destination", destination_tag="fillet_strips"),
                ],
                "allowed": [
                    ["o.out", "w.in"],
                    ["w.out", "a.in"],
                    ["a.out", "d.in"],
                    ["d.out1", "t.in"],
                    ["t.out", "burger.in"],
                    ["d.out2", "strips.in"],
                ],
            }
        )
        config = next(iter(enumerate_configurations(space)))
        catalog = compile_design(space, config).catalog
        # the trimmer only covers one branch, so the lane must not promise trimming
        assert catalog.has_trimmer == {"o": False}
        assert catalog.reachable["o"] == {"burger", "fillet_strips"}


def assert_compile_matches_oracle(space, config):
    """compile_design against the four walks it replaced, field by field."""
    compiled = compile_design(space, config)
    catalog = route_oracle.derive_routes(space, config)
    routes = route_oracle.resolve_routes(space, config, catalog)
    lanes = route_oracle.legacy_lanes(space, config)
    assert list(compiled.lanes) == list(catalog.reachable) == list(lanes)
    for lane, got in compiled.lanes.items():
        assert got.reachable == catalog.reachable[lane]
        assert got.has_trimmer == catalog.has_trimmer[lane]
        assert (
            got.weigh_module, got.weigh_offset_s, got.assign_module, got.assign_offset_s
        ) == lanes[lane]
        assert got.routes.keys() == routes[lane].keys()
        for tag, route in got.routes.items():
            assert dataclasses.asdict(route) == dataclasses.asdict(routes[lane][tag])
    return compiled


def tie_space(out1_trimmer, out2_trimmer):
    """Both distributor ports reach the merge destination through one trimmer."""
    return parse_design_space(
        {
            "id": "tie",
            "modules": [
                module("o", "origin"),
                module("w", "weighing"),
                module("a", "assignment"),
                module("d", "distribution"),
                module(out1_trimmer, "trimming", latency_s=3.0),
                module(out2_trimmer, "trimming", latency_s=5.0),
                module("strips", "destination", destination_tag="fillet_strips"),
            ],
            "allowed": [
                ["o.out", "w.in"],
                ["w.out", "a.in"],
                ["a.out", "d.in"],
                ["d.out1", f"{out1_trimmer}.in"],
                ["d.out2", f"{out2_trimmer}.in"],
                [f"{out1_trimmer}.out", "strips.in"],
                [f"{out2_trimmer}.out", "strips.in"],
            ],
        }
    )


class TestCompileDesign:
    def test_matches_the_legacy_walks_on_every_case_study_configuration(
        self, case_space, case_configs
    ):
        assert len(case_configs) == 1152
        for config in case_configs:
            assert_compile_matches_oracle(case_space, config)

    def test_compiled_configurations_keep_no_edge_map(self, case_space, case_configs):
        # the parent compiles every configuration it runs at --jobs 1; a dict
        # cached on each one would grow with the batch
        for config in case_configs[:50]:
            compile_design(case_space, config)
            assert "edge_map" not in vars(config)
            assert config.edge_map == dict(config.chosen)

    def test_trimmer_behind_a_distributor_is_on_the_route_only(self):
        space = parse_design_space(
            {
                "id": "latetrim",
                "modules": [
                    module("o", "origin"),
                    module("w", "weighing"),
                    module("a", "assignment"),
                    module("d", "distribution", latency_s=2.0),
                    module("t", "trimming"),
                    module("burger", "destination", destination_tag="burger"),
                    module("strips", "destination", destination_tag="fillet_strips"),
                ],
                "allowed": [
                    ["o.out", "w.in"],
                    ["w.out", "a.in"],
                    ["a.out", "d.in"],
                    ["d.out1", "t.in"],
                    ["t.out", "burger.in"],
                    ["d.out2", "strips.in"],
                ],
            }
        )
        config = next(iter(enumerate_configurations(space)))
        lane = assert_compile_matches_oracle(space, config).lanes["o"]
        assert lane.has_trimmer is False
        assert lane.routes["burger"].trimmer_id == "t"
        assert lane.routes["burger"].trim_offset_s == 3.0  # assignment + distributor
        assert lane.routes["fillet_strips"].trimmer_id is None

    def test_the_first_of_two_trunk_trimmers_cuts(self):
        space = parse_design_space(
            {
                "id": "twotrims",
                "modules": [
                    module("o", "origin"),
                    module("w", "weighing", latency_s=2.0),
                    module("a", "assignment"),
                    module("t2", "trimming"),
                    module("t1", "trimming"),
                    module("d", "distribution"),
                    module("burger", "destination", destination_tag="burger"),
                    module("strips", "destination", destination_tag="fillet_strips"),
                ],
                "allowed": [
                    ["o.out", "w.in"],
                    ["w.out", "a.in"],
                    ["a.out", "t2.in"],
                    ["t2.out", "t1.in"],
                    ["t1.out", "d.in"],
                    ["d.out1", "burger.in"],
                    ["d.out2", "strips.in"],
                ],
            }
        )
        config = next(iter(enumerate_configurations(space)))
        lane = assert_compile_matches_oracle(space, config).lanes["o"]
        assert (lane.weigh_module, lane.weigh_offset_s) == ("w", 1.0)
        assert (lane.assign_module, lane.assign_offset_s) == ("a", 2.0)
        assert lane.has_trimmer is True
        for route in lane.routes.values():
            assert (route.trimmer_id, route.trim_offset_s) == ("t2", 1.0)
            assert route.destination_offset_s == 4.0

    @pytest.mark.parametrize("out1, out2", [("tb", "ta"), ("ta", "tb")])
    def test_equal_reach_ties_go_to_the_smaller_module_id(self, out1, out2):
        space = tie_space(out1, out2)
        config = next(iter(enumerate_configurations(space)))
        lane = assert_compile_matches_oracle(space, config).lanes["o"]
        route = lane.routes["fillet_strips"]
        assert route.trimmer_id == "ta"  # whichever port it hangs on
        assert [hop for hop, _ in route.hops] == ["d", "ta", "strips"]
        latency = 3.0 if out1 == "ta" else 5.0
        assert route.destination_offset_s == 1.0 + 1.0 + latency
        assert lane.has_trimmer is False

    def test_lane_without_weighing_cannot_be_compiled(self):
        space = parse_design_space(
            {
                "id": "noweigh",
                "modules": [
                    module("o", "origin"),
                    module("a", "assignment"),
                    module("strips", "destination", destination_tag="fillet_strips"),
                ],
                "allowed": [["o.out", "a.in"], ["a.out", "strips.in"]],
            }
        )
        config = next(iter(enumerate_configurations(space)))
        with pytest.raises(PlantBuildError, match="weighing"):
            compile_design(space, config)



def loopable_space():
    """A space whose matrix allows a loop, d1 -> d2 -> d1."""
    return parse_design_space(
        {
            "id": "loopable",
            "modules": [
                module("o", "origin"),
                module("w", "weighing"),
                module("a", "assignment"),
                module("d1", "distribution"),
                module("d2", "distribution"),
                module("strips", "destination", destination_tag="fillet_strips"),
            ],
            "allowed": [
                ["o.out", "w.in"],
                ["w.out", "a.in"],
                ["a.out", "d1.in"],
                ["d1.out1", "d2.in"],
                ["d1.out2", "strips.in"],
                ["d2.out1", "d1.in"],
                ["d2.out1", "strips.in"],
                ["d2.out2", "strips.in"],
            ],
        }
    )


# a hand-built wiring of `loopable_space` that takes the loop
LOOPED = DesignConfiguration(
    index=-1,
    chosen=tuple(
        sorted(
            [
                ("o.out", "w.in"),
                ("w.out", "a.in"),
                ("a.out", "d1.in"),
                ("d1.out1", "d2.in"),
                ("d1.out2", "strips.in"),
                ("d2.out1", "d1.in"),
                ("d2.out2", "strips.in"),
            ]
        )
    ),
)


def shared_lanes_space(bypass_weighing=False):
    """Two lanes, each with its own distributor, competing for one trimmer and one
    burger line: every lane wiring recurs in many designs. With bypass_weighing,
    lane o2 may also skip its weighing module, which no design can build."""
    allowed = [["o1.out", "w1.in"], ["o2.out", "w2.in"]]
    if bypass_weighing:
        allowed.append(["o2.out", "a2.in"])
    for i in ("1", "2"):
        allowed += [
            [f"w{i}.out", f"a{i}.in"],
            [f"a{i}.out", "t.in"],
            [f"a{i}.out", f"d{i}.in"],
            ["t.out", f"d{i}.in"],
            [f"d{i}.out1", "burger.in"],
            [f"d{i}.out1", "x.in"],
            [f"d{i}.out1", "strips.in"],
            [f"d{i}.out2", "strips.in"],
            [f"d{i}.out2", "x.in"],
        ]
    return parse_design_space(
        {
            "id": "shared",
            "modules": [
                module("o1", "origin"),
                module("o2", "origin"),
                module("w1", "weighing"),
                module("w2", "weighing", latency_s=2.0),
                module("a1", "assignment"),
                module("a2", "assignment", latency_s=0.5),
                module("t", "trimming", latency_s=3.0),
                module("d1", "distribution"),
                module("d2", "distribution", latency_s=1.5),
                module("burger", "destination", destination_tag="burger"),
                module("x", "destination", destination_tag="x"),
                module("strips", "destination", destination_tag="fillet_strips"),
            ],
            "allowed": allowed,
        }
    )


def compile_afresh(space, config):
    """compile_design through a copy of the space whose lane cache is empty."""
    fresh = dataclasses.replace(space)
    assert not fresh.lane_cache
    return compile_design(fresh, config)


def assert_port_keys_interned(space):
    """Every port key names a lane of the space's lane cache, as the object
    kept there, and begins with that lane's origin; there are at most
    LANE_PORT_KEYS of them per lane kept."""
    assert len(space.lane_port_cache) <= designspace.LANE_PORT_KEYS * len(space.lane_cache)
    interned = {id(compiled): key for key, compiled in space.lane_cache.items()}
    for ports, compiled in space.lane_port_cache.items():
        assert id(compiled) in interned
        assert ports[0] == interned[id(compiled)][0]
        assert len(ports) == 1 + len(space.lane_ports[ports[0]])


class TestLaneCache:
    """compile_design through one warm cache equals compiling every design afresh."""

    @pytest.fixture(scope="class")
    def case_afresh(self, case_space, case_configs):
        return [compile_afresh(case_space, config) for config in case_configs]

    @settings(max_examples=10)
    @given(order=st.randoms(use_true_random=False))
    def test_case_study_in_any_order(self, case_space, case_configs, case_afresh, order):
        space = dataclasses.replace(case_space)
        configs = list(case_configs)
        order.shuffle(configs)
        for config in configs:
            assert compile_design(space, config).lanes == case_afresh[config.index].lanes
        assert len(space.lane_cache) == 324  # distinct lane wirings among 4 x 1152 lanes
        assert_port_keys_interned(space)

    @pytest.mark.parametrize("bound", [LANE_CACHE_ENTRIES, 3])
    def test_designs_sharing_lane_wirings(self, monkeypatch, bound):
        monkeypatch.setattr(designspace, "LANE_CACHE_ENTRIES", bound)
        space = shared_lanes_space()
        configs = list(enumerate_configurations(space))
        for config in configs + configs[::-1]:
            got = compile_design(space, config)
            want = compile_afresh(space, config)
            assert list(got.lanes) == list(want.lanes) == ["o1", "o2"]
            for lane, compiled in want.lanes.items():
                assert dataclasses.asdict(got.lanes[lane]) == dataclasses.asdict(compiled)
        # 39 designs x 2 lanes, 20 distinct lane wirings
        assert len(configs) == 39
        assert len(space.lane_cache) == min(bound, 20)
        assert_port_keys_interned(space)

    def test_a_lane_that_cannot_be_built_raises_every_time(self):
        space = shared_lanes_space(bypass_weighing=True)
        configs = list(enumerate_configurations(space))
        bad = [c for c in configs if c.edge_map["o2.out"] == "a2.in"]
        good = [c for c in configs if c.edge_map["o2.out"] == "w2.in"]
        assert bad and good
        for config in bad + bad + good + bad:
            if config in bad:
                with pytest.raises(PlantBuildError, match="lane o2: trunk must pass a weighing"):
                    compile_design(space, config)
            else:
                assert compile_design(space, config).lanes == compile_afresh(space, config).lanes
        # lane o1 of the designs that failed was compiled and kept; o2's bypass never is
        assert {key[1] for key in space.lane_cache if key[0] == "o2"} == {"w2.in"}
        assert any(key[0] == "o1" for key in space.lane_cache)
        assert_port_keys_interned(space)

    def test_a_lane_is_walked_only_when_its_port_key_is_not_kept(self, monkeypatch):
        space = shared_lanes_space()
        walks = []
        lane_key = designspace._lane_key
        monkeypatch.setattr(
            designspace, "_lane_key", lambda *args: walks.append(args[2]) or lane_key(*args)
        )
        configs = list(enumerate_configurations(space))
        for config in configs:
            compile_design(space, config)
        # through the shared trimmer a lane may reach the other lane's
        # distributor, whose wiring its port key then holds: all 78 port keys
        # differ, and 2 per kept lane are kept
        assert len(walks) == 78 and len(space.lane_port_cache) == 2 * len(space.lane_cache) == 40
        walks.clear()
        for config in configs:
            compile_design(space, config)
        assert len(walks) == 78 - 40

    def test_a_space_whose_matrix_loops(self):
        space = loopable_space()
        # each out-port the matrix lets the lane reach, once, though d1 and d2
        # reach each other
        assert space.lane_ports == {
            "o": ("o.out", "w.out", "a.out", "d1.out1", "d1.out2", "d2.out1", "d2.out2")
        }
        configs = list(enumerate_configurations(space))
        for config in configs + configs:
            assert compile_design(space, config).lanes == compile_afresh(space, config).lanes
        assert len(space.lane_cache) == len(space.lane_port_cache) == len(configs) == 1
        assert_port_keys_interned(space)
        # the looped wiring's key ends, with d1 expanded once
        assert designspace._lane_key(space, LOOPED.edge_map, "o") == (
            "o", "w.in", "a.in", "d1.in", "d2.in", "strips.in", "d1.in", "strips.in"
        )

    def test_a_wiring_the_matrix_does_not_allow_is_never_keyed_by_ports(self):
        # o -> w -> a -> strips is not allowed: the walk reads no port of d1,
        # so its port key would miss what the wiring routes; it is keyed by
        # its walk alone, every time
        space = loopable_space()
        allowed = next(iter(enumerate_configurations(space)))
        outside = DesignConfiguration(-1, (("a.out", "strips.in"), ("o.out", "w.in"),
                                           ("w.out", "a.in")))
        for config in (allowed, outside, outside):
            assert compile_design(space, config).lanes == compile_afresh(space, config).lanes
        assert len(space.lane_cache) == 2
        assert list(space.lane_port_cache.values()) == [compile_design(space, allowed).lanes["o"]]
