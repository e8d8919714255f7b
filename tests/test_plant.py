import contextlib
import dataclasses
import functools
import gc
import importlib.util
import json
import math
import random
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from des_oracle import PlantSimulation as CalendarPlant
from flowdse import plant as plant_module
from flowdse.controller import BinAssignment, ControllerConfig, recipe_ladder
from flowdse.designspace import (
    compile_design,
    enumerate_configurations,
    load_design_space,
    parse_design_space,
)
from flowdse.plant import PlantBuildError, PlantSimulation, RoutingFault
from flowdse.scenario import (
    EmpiricalWeights,
    LaneInflow,
    Recipe,
    Scenario,
    TruncatedNormalWeights,
    load_scenario,
)
from strategy_oracle import LegacyStrategies

DATA = Path(__file__).parent.parent / "src" / "flowdse" / "data"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


@pytest.fixture(scope="module")
def case_space():
    return load_design_space(DATA / "case_study_space.json")


@pytest.fixture(scope="module")
def case_configs(case_space):
    return list(enumerate_configurations(case_space))


@pytest.fixture(scope="module")
def scenario1():
    return load_scenario(DATA / "scenario1.json")


def one_lane_space(with_trimmer=True, latency=1.0, with_weighing=True):
    modules = [
        {"id": "origin1", "kind": "origin", "out_ports": ["out"], "latency_s": latency},
        {"id": "assign1", "kind": "assignment", "in_ports": ["in"], "out_ports": ["out"],
         "latency_s": latency},
        {"id": "dist1", "kind": "distribution", "in_ports": ["in"],
         "out_ports": ["out1", "out2"], "latency_s": latency},
        {"id": "dest_a", "kind": "destination", "in_ports": ["in"],
         "destination_tag": "batching2", "latency_s": 0.0},
        {"id": "dest_strips", "kind": "destination", "in_ports": ["in"],
         "destination_tag": "fillet_strips", "latency_s": 0.0},
    ]
    allowed = [
        ["assign1.out", "dist1.in"],
        ["dist1.out1", "dest_a.in"],
        ["dist1.out2", "dest_strips.in"],
    ]
    if with_weighing:
        modules.insert(1, {"id": "weigh1", "kind": "weighing", "in_ports": ["in"],
                           "out_ports": ["out"], "latency_s": latency})
        allowed = [["origin1.out", "weigh1.in"], ["weigh1.out", "assign1.in"]] + allowed
    else:
        allowed = [["origin1.out", "assign1.in"]] + allowed
    if with_trimmer:
        modules.insert(-2, {"id": "trim1", "kind": "trimming", "in_ports": ["in"],
                            "out_ports": ["out"], "latency_s": latency})
        allowed = [
            e for e in allowed if e != ["assign1.out", "dist1.in"]
        ] + [["assign1.out", "trim1.in"], ["trim1.out", "dist1.in"]]
    return parse_design_space({"id": "onelane", "modules": modules, "allowed": allowed})


def only_config(space):
    configs = list(enumerate_configurations(space))
    assert len(configs) == 1
    return configs[0]


def narrow(mean, spread=5.0):
    return TruncatedNormalWeights(mean, spread, mean - 2 * spread, mean + 2 * spread)


def make_scenario(recipes, inflow, horizon=600.0, controller=None):
    return Scenario(
        scenario_id="synthetic",
        recipes=tuple(recipes),
        inflow=tuple(inflow),
        horizon_s=horizon,
        controller=controller or ControllerConfig(),
    )


STRIPS = Recipe("fillet_strips", None, None, 0.0, 10_000.0, 0.0)
BAND = Recipe("batching2", 1, 40.0, 150.0, 200.0, 100.0)


class TestArrivals:
    def test_whole_minute_rate_fills_the_hour_exactly(self):
        space = one_lane_space(with_trimmer=False)
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 54.0, narrow(170.0))],
            horizon=3600.0,
        )
        tallies = PlantSimulation(space, only_config(space), scenario, seed=7).run()
        assert tallies.injected == 3240  # the 3600.0 s arrival lands on the horizon

    def test_bundled_inflow_injects_13008_per_hour(self, case_space, case_configs, scenario1):
        tallies = PlantSimulation(case_space, case_configs[0], scenario1, seed=3).run()
        assert tallies.injected == 4 * 3252

    def test_poisson_arrivals_reproducible_but_irregular(self):
        space = one_lane_space(with_trimmer=False)
        config = only_config(space)
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 54.0, narrow(170.0), process="poisson")],
            horizon=600.0,
        )
        a = PlantSimulation(space, config, scenario, seed=11).run()
        b = PlantSimulation(space, config, scenario, seed=11).run()
        c = PlantSimulation(space, config, scenario, seed=12).run()
        assert a == b
        assert (a.injected, a.injected_mass_g) != (c.injected, c.injected_mass_g)
        # irregular spacing: the count drifts from the deterministic 540
        assert 400 < a.injected < 700

    def test_empirical_weights_draw_from_the_given_values(self):
        space = one_lane_space(with_trimmer=False)
        weights = EmpiricalWeights("inline", tuple(float(g) for g in range(160, 180)))
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 30.0, weights)], horizon=300.0
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=5, trace=True)
        tallies = sim.run()
        weighed = {w for _, _, _, w, action in sim.trace_rows if action == "arrive"}
        assert weighed <= set(weights.values)
        assert tallies.injected == 150


class TestConservation:
    def test_random_cells_conserve_count_and_mass(self, case_space, case_configs, scenario1):
        rng = random.Random(2024)
        short = dataclasses.replace(scenario1, horizon_s=300.0)
        for design in rng.sample(range(len(case_configs)), 12):
            tallies = PlantSimulation(
                case_space, case_configs[design], short, seed=rng.randrange(2**32)
            ).run()
            assert tallies.injected == sum(tallies.counts.values()) + tallies.in_flight
            out_mass = (
                sum(tallies.masses.values())
                + tallies.trim_mass_g
                + tallies.in_flight_mass_g
            )
            assert abs(tallies.injected_mass_g - out_mass) <= 1e-6 * tallies.injected_mass_g
            assert tallies.band_violations == 0
            assert sum(tallies.recipe_counts) + tallies.in_flight == tallies.injected

    def test_nothing_left_in_flight_with_zero_latency(self):
        space = one_lane_space(latency=0.0)
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 60.0, narrow(280.0))], horizon=300.0
        )
        tallies = PlantSimulation(space, only_config(space), scenario, seed=1).run()
        assert tallies.in_flight == 0
        assert tallies.in_flight_mass_g == 0.0


class TestLatencyAndTrace:
    def test_unit_latency_trunk_absorbs_four_seconds_after_arrival(self):
        space = one_lane_space(with_trimmer=False)
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 30.0, narrow(170.0))], horizon=10.0
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=9, trace=True)
        sim.run()
        first = [row for row in sim.trace_rows if row[2] == 1]
        t0 = first[0][0]
        assert [(t - t0, module, action) for t, module, _, _, action in first] == [
            (0.0, "origin1", "arrive"),
            (1.0, "weigh1", "weigh"),
            (2.0, "assign1", "assign"),
            (3.0, "dist1", "enter"),
            (4.0, "dest_strips", "enter"),
            (4.0, "dest_strips", "absorb"),
        ]

    def test_trace_shows_weight_drop_at_the_trimmer(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 60.0, narrow(280.0))],
            horizon=120.0,
            controller=ControllerConfig(warmup_s=10.0),
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=4, trace=True)
        tallies = sim.run()
        assert tallies.trim_mass_g > 0
        trims = [row for row in sim.trace_rows if row[4] == "trim"]
        assert trims, "expected at least one trim row"
        for t, module, fid, post_weight, _ in trims:
            assert module == "trim1"
            pre = [w for tt, _, f, w, a in sim.trace_rows if f == fid and a == "assign"]
            assert pre and post_weight < pre[0]
            assert 150.0 <= post_weight < 200.0

    def test_every_module_passed_has_an_enter_or_a_trim_row(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 60.0, narrow(280.0))],
            horizon=120.0,
            controller=ControllerConfig(warmup_s=10.0),
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=4, trace=True)
        sim.run()
        first = [row for row in sim.trace_rows if row[2] == 1]
        t0 = first[0][0]
        # before warm-up: default destination, passes the trimmer uncut
        assert [(t - t0, module, action) for t, module, _, _, action in first] == [
            (0.0, "origin1", "arrive"),
            (1.0, "weigh1", "weigh"),
            (2.0, "assign1", "assign"),
            (3.0, "trim1", "enter"),
            (4.0, "dist1", "enter"),
            (5.0, "dest_strips", "enter"),
            (5.0, "dest_strips", "absorb"),
        ]
        at_trimmer: dict[int, list[str]] = {}
        for _, module, fid, _, action in sim.trace_rows:
            if module == "trim1":
                at_trimmer.setdefault(fid, []).append(action)
        absorbed = {fid for _, _, fid, _, action in sim.trace_rows if action == "absorb"}
        assert absorbed <= set(at_trimmer)
        assert set(map(tuple, at_trimmer.values())) == {("enter",), ("trim",)}

    def test_trace_rows_sorted_by_time_then_fillet(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 90.0, narrow(280.0))], horizon=60.0
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=2, trace=True)
        sim.run()
        keys = [(t, fid) for t, _, fid, _, _ in sim.trace_rows]
        assert keys == sorted(keys)

    def test_trace_off_by_default(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 30.0, narrow(170.0))], horizon=30.0
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=2)
        sim.run()
        assert sim.trace_rows is None


class TestTrimming:
    def test_heavy_inflow_is_trimmed_into_the_band(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 60.0, narrow(280.0))],
            horizon=600.0,
        )
        tallies = PlantSimulation(space, only_config(space), scenario, seed=21).run()
        assert tallies.band_violations == 0
        assert tallies.counts["batching2"] > 400
        assert tallies.trim_mass_g > 80.0 * tallies.counts["batching2"] * 0.9

    def test_without_trimmer_heavy_inflow_all_defaults(self):
        space = one_lane_space(with_trimmer=False)
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 60.0, narrow(280.0))],
            horizon=600.0,
        )
        tallies = PlantSimulation(space, only_config(space), scenario, seed=21).run()
        assert tallies.trim_mass_g == 0.0
        assert tallies.counts.get("batching2", 0) == 0

    def test_zero_latency_still_trims_before_absorbing(self):
        space = one_lane_space(latency=0.0)
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 60.0, narrow(280.0))],
            horizon=300.0,
            controller=ControllerConfig(warmup_s=10.0),
        )
        tallies = PlantSimulation(space, only_config(space), scenario, seed=6).run()
        assert tallies.trim_mass_g > 0  # would raise RoutingFault on a misordered tie

    def test_huge_trim_allowance_builds_fast_and_changes_nothing(self):
        # the inflow weighs at most 290 g, in bin 29; the ladder's trim bins
        # stop there instead of running on towards 1e9 g (one entry
        # per bin would take about 22 GB; 1e6 g goes first and would fail in
        # seconds if they did not)
        space = one_lane_space()
        results = []
        for allowance in (100.0, 1e6, 1e9):
            band = dataclasses.replace(BAND, max_trim_g=allowance)
            scenario = make_scenario(
                [band, STRIPS], [LaneInflow("lane", 60.0, narrow(280.0))], horizon=300.0
            )
            start = time.perf_counter()
            sim = PlantSimulation(space, only_config(space), scenario, seed=6)
            assert time.perf_counter() - start < 0.5
            results.append(sim.run())
        assert results[0].trim_mass_g > 0
        assert repr(results[0]) == repr(results[1]) == repr(results[2])

    def test_trimmer_only_behind_one_branch_never_trims(self):
        space = parse_design_space(
            {
                "id": "latetrim",
                "modules": [
                    {"id": "o", "kind": "origin", "out_ports": ["out"]},
                    {"id": "w", "kind": "weighing", "in_ports": ["in"], "out_ports": ["out"]},
                    {"id": "a", "kind": "assignment", "in_ports": ["in"], "out_ports": ["out"]},
                    {"id": "d", "kind": "distribution", "in_ports": ["in"],
                     "out_ports": ["out1", "out2"]},
                    {"id": "t", "kind": "trimming", "in_ports": ["in"], "out_ports": ["out"]},
                    {"id": "dest_b", "kind": "destination", "in_ports": ["in"],
                     "destination_tag": "batching2", "latency_s": 0.0},
                    {"id": "dest_s", "kind": "destination", "in_ports": ["in"],
                     "destination_tag": "fillet_strips", "latency_s": 0.0},
                ],
                "allowed": [
                    ["o.out", "w.in"],
                    ["w.out", "a.in"],
                    ["a.out", "d.in"],
                    ["d.out1", "t.in"],
                    ["t.out", "dest_b.in"],
                    ["d.out2", "dest_s.in"],
                ],
            }
        )
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("o", 60.0, narrow(280.0))], horizon=300.0
        )
        tallies = PlantSimulation(space, only_config(space), scenario, seed=8).run()
        # the lane cannot guarantee trimming, so the controller never cuts
        assert tallies.trim_mass_g == 0.0
        assert tallies.counts.get("batching2", 0) == 0


class TestRoutingFaults:
    def _sim(self, assignment, **kw):
        """A plant whose every strategy hands out `assignment`, for any weight."""
        space = one_lane_space(**kw)
        scenario = make_scenario(
            [BAND, STRIPS],
            [LaneInflow("lane", 30.0, narrow(170.0))],
            horizon=30.0,
            controller=ControllerConfig(warmup_s=0.0),
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=13)
        every_bin = dict.fromkeys(range(100), assignment)  # bin width 10 g: up to 1 kg
        sim.controller.compute_strategies = lambda: dict.fromkeys(sim.routes, every_bin)
        return sim

    def test_assignment_to_unreachable_destination(self):
        sim = self._sim(BinAssignment(0, "nowhere", None))
        with pytest.raises(RoutingFault, match="unreachable"):
            sim.run()

    def test_trim_instruction_without_a_trimmer(self):
        sim = self._sim(BinAssignment(0, "batching2", 10.0), with_trimmer=False)
        with pytest.raises(RoutingFault, match="no trimmer"):
            sim.run()

    def test_trim_larger_than_the_fillet(self):
        sim = self._sim(BinAssignment(0, "batching2", 500.0))
        with pytest.raises(RoutingFault, match="trim instruction"):
            sim.run()


class TestBuildErrors:
    def test_inflow_lane_count_must_match_origins(self, case_space, case_configs):
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 30.0, narrow(170.0))]
        )
        with pytest.raises(PlantBuildError, match="inflow lanes"):
            PlantSimulation(case_space, case_configs[0], scenario, seed=1)

    def test_default_destination_must_be_reachable(self):
        space = one_lane_space(with_trimmer=False)
        scenario = make_scenario(
            [Recipe("batching2", None, None, 0.0, 10_000.0, 0.0)],
            [LaneInflow("lane", 30.0, narrow(170.0))],
        )
        # fine: batching2 is reachable here
        PlantSimulation(space, only_config(space), scenario, seed=1)
        missing = make_scenario(
            [Recipe("schnitzel", None, None, 0.0, 10_000.0, 0.0)],
            [LaneInflow("lane", 30.0, narrow(170.0))],
        )
        with pytest.raises(PlantBuildError, match="default destination"):
            PlantSimulation(space, only_config(space), missing, seed=1)

    def test_trunk_without_weighing_is_rejected(self):
        space = one_lane_space(with_trimmer=False, with_weighing=False)
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 30.0, narrow(170.0))]
        )
        with pytest.raises(PlantBuildError, match="weighing"):
            PlantSimulation(space, only_config(space), scenario, seed=1)


class TestDeterminism:
    def test_identical_cell_twice_gives_identical_tallies(self, case_space, case_configs, scenario1):
        short = dataclasses.replace(scenario1, horizon_s=300.0)
        a = PlantSimulation(case_space, case_configs[500], short, seed=99).run()
        b = PlantSimulation(case_space, case_configs[500], short, seed=99).run()
        assert a == b

    def test_traces_are_reproducible(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 60.0, narrow(280.0))], horizon=120.0
        )
        config = only_config(space)
        s1 = PlantSimulation(space, config, scenario, seed=3, trace=True)
        s1.run()
        s2 = PlantSimulation(space, config, scenario, seed=3, trace=True)
        s2.run()
        assert s1.trace_rows == s2.trace_rows

    def test_seed_changes_the_weights_not_the_count(self):
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 60.0, narrow(280.0))], horizon=120.0
        )
        config = only_config(space)
        a = PlantSimulation(space, config, scenario, seed=1).run()
        b = PlantSimulation(space, config, scenario, seed=2).run()
        assert a.injected == b.injected  # deterministic arrival process
        assert a.injected_mass_g != b.injected_mass_g


class TestLifetime:
    def test_finished_plant_is_freed_without_a_garbage_collection(self):
        # fillets still in flight at the horizon leave events on the calendar
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 60.0, narrow(280.0))], horizon=120.0
        )
        sim = PlantSimulation(space, only_config(space), scenario, seed=1)
        tallies = sim.run()
        assert tallies.in_flight > 0
        plant, controller = weakref.ref(sim), weakref.ref(sim.controller)
        gc.disable()
        try:
            del sim
            assert plant() is None
            assert controller() is None
        finally:
            gc.enable()

    def test_memory_does_not_grow_with_the_horizon(self, monkeypatch):
        # warm-up past the horizon: no recompute ever runs, so only the
        # DRAIN_EVERY stops assign. No cell stores its calendar, so each peak
        # is the sweep's own over a streamed calendar, whatever ran before;
        # the memo's cost has its own test (`..._on_a_memo_hit`)
        monkeypatch.setattr(plant_module, "CALENDARS", {})
        monkeypatch.setattr(plant_module, "CALENDAR_MEMO_ARRIVALS", 0)
        space = one_lane_space()
        peaks = []
        for horizon in (600.0, 6000.0):
            scenario = make_scenario(
                [BAND, STRIPS],
                [LaneInflow("lane", 120.0, narrow(280.0))],
                horizon=horizon,
                controller=ControllerConfig(warmup_s=horizon + 1.0),
            )
            sim = PlantSimulation(space, only_config(space), scenario, seed=1)
            tracemalloc.start()
            try:
                sim.run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]

    def test_memory_does_not_grow_with_the_horizon_with_poisson_arrivals(self):
        # a Poisson lane's calendar is computed in each cell, CHUNK arrivals ahead
        peaks = [
            run_peak(one_lane_cell(horizon, horizon + 1.0, process="poisson"))
            for horizon in (600.0, 6000.0)
        ]
        assert peaks[1] < 2 * peaks[0]

    def test_memory_does_not_grow_with_the_horizon_when_recomputes_keep_the_strategy(self):
        # a Poisson lane recomputing every 10 s from 60 s on, against a target
        # no window reaches: after the second walk every recompute keeps the
        # strategy, so the assigns wait for the DRAIN_EVERY stops, not a walk
        space = one_lane_space()
        band = dataclasses.replace(BAND, target_per_min=1e6)
        peaks = []
        for horizon in (600.0, 6000.0):
            scenario = make_scenario(
                [band, STRIPS],
                [LaneInflow("lane", 120.0, narrow(280.0), "poisson")],
                horizon=horizon,
                controller=ControllerConfig(warmup_s=60.0),
            )
            sim = PlantSimulation(space, only_config(space), scenario, seed=1)
            peaks.append(run_peak(sim))
        assert (sim.tallies.recomputes, sim.tallies.walks) == (595, 2)
        assert peaks[1] < 2 * peaks[0]

    def test_memory_does_not_grow_with_the_horizon_on_a_lane_no_recipe_reads(self):
        # only the default recipe: no rung reads the lane, so its window holds
        # nothing and every recompute leaves its strategy empty
        space = one_lane_space()
        peaks = []
        for horizon in (600.0, 6000.0):
            scenario = make_scenario(
                [STRIPS],
                [LaneInflow("lane", 120.0, narrow(280.0), "poisson")],
                horizon=horizon,
                controller=ControllerConfig(warmup_s=60.0),
            )
            sim = PlantSimulation(space, only_config(space), scenario, seed=1)
            peaks.append(run_peak(sim))
        assert sim.controller.read_lanes == frozenset()
        assert sim.tallies.recomputes == 595
        assert peaks[1] < 2 * peaks[0]

    def test_memory_does_not_grow_with_the_horizon_on_a_memo_hit(self, monkeypatch):
        monkeypatch.setattr(plant_module, "CALENDARS", {})
        first, hit, arrivals = [], [], []
        for horizon in (600.0, 60_000.0):
            first.append(run_peak(one_lane_cell(horizon, horizon + 1.0, seed=1)))
            hit.append(run_peak(one_lane_cell(horizon, horizon + 1.0, seed=2)))
            arrivals.append(int(120.0 * horizon / 60.0))
        assert len(plant_module.CALENDARS) == 2
        assert hit[1] < 2 * hit[0]
        # the memo's share: what the first cell adds is the record, 17 bytes an
        # arrival, with the arrays' spare capacity and a few numbers per stop
        assert first[1] - hit[1] < 20 * arrivals[1]

    def test_window_keeps_only_weigh_times_and_bins_alive(self, monkeypatch):
        # a 2000-sample window, full before the first recompute; the first cell
        # fills the calendar memo, so the second's peak is the sweep's own
        monkeypatch.setattr(plant_module, "CALENDARS", {}, raising=False)
        window = 2000
        run_peak(one_lane_cell(3000.0, 1100.0, window=window, seed=1))
        peak = run_peak(one_lane_cell(3000.0, 1100.0, window=window, seed=2))
        # the other columns of fillets already assigned are dropped at the assign cursor
        assert peak / window < 200


def one_lane_cell(horizon, warmup, window=1000, process="deterministic", seed=1):
    """A plant on one lane at 120 fillets/min; with warm-up past the horizon no
    recompute ever runs."""
    space = one_lane_space()
    scenario = make_scenario(
        [BAND, STRIPS],
        [LaneInflow("lane", 120.0, narrow(280.0), process)],
        horizon=horizon,
        controller=ControllerConfig(window_size=window, warmup_s=warmup),
    )
    return PlantSimulation(space, only_config(space), scenario, seed=seed)


def run_peak(sim):
    """The traced memory peak of `sim.run()`, in bytes."""
    tracemalloc.start()
    try:
        sim.run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRouteResolution:
    def test_single_tag_per_destination_offsets(self):
        space = one_lane_space(with_trimmer=False)
        config = only_config(space)
        routes = compile_design(space, config).routes
        lane = routes["origin1"]
        assert set(lane) == {"batching2", "fillet_strips"}
        # assignment latency + distributor latency
        assert lane["batching2"].destination_offset_s == 2.0
        assert lane["batching2"].trim_offset_s is None
        assert lane["batching2"].destination_id == "dest_a"

    def test_trimmer_route_records_the_cut_point(self):
        space = one_lane_space()
        config = only_config(space)
        routes = compile_design(space, config).routes
        lane = routes["origin1"]
        assert lane["batching2"].trimmer_id == "trim1"
        assert lane["batching2"].trim_offset_s == 1.0
        assert lane["batching2"].destination_offset_s == 3.0

    def test_every_case_study_lane_resolves_all_tags(self, case_space, case_configs):
        for config in case_configs[::97]:
            routes = compile_design(case_space, config).routes
            for lane, lane_routes in routes.items():
                for tag, route in lane_routes.items():
                    assert route.hops[-1][0] == route.destination_id
                    assert route.destination_offset_s >= 2.0


class TestControllerInThePlant:
    @pytest.mark.parametrize("scenario_file", ["scenario1.json", "scenario2.json"])
    def test_every_recompute_matches_the_legacy_strategy_build(
        self, case_space, case_configs, scenario_file
    ):
        scenario = dataclasses.replace(load_scenario(DATA / scenario_file), horizon_s=1215.0)
        # design 37: two lanes trim, two cannot, and trim bins get claimed
        config = case_configs[37]
        assert sorted(compile_design(case_space, config).catalog.has_trimmer.values()) == [
            False, False, True, True,
        ]
        sim = PlantSimulation(case_space, config, scenario, seed=11)
        controller = sim.controller
        legacy = LegacyStrategies(controller, sim.catalog, scenario.recipes)
        recompute = controller.recompute
        checked = []

        def checked_recompute(time_s):
            recompute(time_s)
            expected = legacy.compute_strategies()
            got = controller.strategies
            assert [(lane, list(s.items())) for lane, s in got.items()] == [
                (lane, list(s.items())) for lane, s in expected.items()
            ]
            checked.append(
                any(a.trim_g is not None for s in expected.values() for a in s.values())
            )

        controller.recompute = checked_recompute
        sim.run()
        assert len(checked) == controller.recomputes == 116
        assert any(checked)  # the trim phase took part

    @staticmethod
    def scanned_design_half(routes, scenario, windows):
        """`_rungs`, `read_lanes` and `_read` as a scan of every rung against
        every lane builds them, over the ladder built from the scenario's
        recipes: the controller's design half before the ladder kept the
        rungs each set of tags reaches."""
        heaviest_g = max(lane.weights.heaviest_g for lane in scenario.inflow)
        ladder = recipe_ladder(tuple(scenario.recipes), scenario.controller.bin_width_g, heaviest_g)
        names = routes.lanes
        rungs = []
        for rung in ladder.rungs:
            destination = rung.direct_assignment.destination
            lanes = tuple(
                i for i, lane in enumerate(names) if destination in routes.reachable[lane]
            )
            if lanes:
                trim_lanes = tuple(i for i in lanes if routes.has_trimmer[names[i]])
                rungs.append((rung, lanes, trim_lanes))
        read_lanes = frozenset(i for _, lanes, _ in rungs for i in lanes)
        return rungs, read_lanes, [(i, windows[i]) for i in sorted(read_lanes)]

    @pytest.mark.parametrize("workload", ["case_study", "screening"])
    def test_design_half_equals_the_per_rung_scan_for_every_design(self, workload, tmp_path):
        if workload == "case_study":
            space = load_design_space(DATA / "case_study_space.json")
            scenarios = [load_scenario(DATA / f"scenario{i}.json") for i in (1, 2)]
        else:
            spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
            workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(workloads)
            plan = workloads.make_inputs("screening", 1, tmp_path)
            space = load_design_space(tmp_path / plan["space"])
            scenarios = [load_scenario(tmp_path / name) for name in plan["scenarios"]]
        designs = 0
        for config in enumerate_configurations(space):
            designs += 1
            for scenario in scenarios:
                sim = PlantSimulation(space, config, scenario, seed=1)
                controller = sim.controller
                windows = list(controller.windows.values())
                rungs, read_lanes, read = self.scanned_design_half(sim.catalog, scenario, windows)
                assert controller._rungs == rungs
                assert controller.read_lanes == read_lanes
                assert controller._read == read
        assert designs == {"case_study": 1152, "screening": 9216}[workload]


CASE_RAW = json.loads((DATA / "case_study_space.json").read_text(encoding="utf-8"))


def parallel_lanes_space(lanes):
    """Independent lanes, each origin -> weighing -> assignment -> [trimmer] ->
    distributor, all feeding the same two destinations. `lanes` gives per lane
    the five trunk latencies and whether it has a trimmer."""
    modules = [
        {"id": "dest_a", "kind": "destination", "in_ports": ["in"],
         "destination_tag": "batching2", "latency_s": 0.0, "merge_allowed": True},
        {"id": "dest_strips", "kind": "destination", "in_ports": ["in"],
         "destination_tag": "fillet_strips", "latency_s": 0.0},
    ]
    allowed = []
    for i, (latencies, with_trimmer) in enumerate(lanes):
        trunk = [("origin", "origin"), ("weigh", "weighing"), ("assign", "assignment")]
        trunk += [("trim", "trimming")] * with_trimmer + [("dist", "distribution")]
        for (name, kind), latency in zip(trunk, latencies):
            modules.append({"id": f"{name}{i}", "kind": kind, "latency_s": latency,
                            "in_ports": [] if kind == "origin" else ["in"],
                            "out_ports": ["out1", "out2"] if kind == "distribution" else ["out"]})
        for (a, _), (b, _) in zip(trunk, trunk[1:]):
            allowed.append([f"{a}{i}.out", f"{b}{i}.in"])
        allowed += [[f"dist{i}.out1", "dest_a.in"], [f"dist{i}.out2", "dest_strips.in"]]
    # origins in lane order: scenario inflow feeds them positionally
    modules.sort(key=lambda m: m["kind"] != "origin")
    return parse_design_space({"id": "parallel", "modules": modules, "allowed": allowed})


@st.composite
def sweep_cells(draw):
    """A cell built to tie: rates whose arrivals coincide across lanes and with
    recomputes, latencies of 0 and of multiples of the recompute interval,
    warm-up on an arrival, before and after the horizon, bin widths that make
    trim amounts inexact in binary (so the order of a sum shows), and horizons
    that cut fillets anywhere on their route."""
    t_s = draw(st.sampled_from([1.0, 2.0, 10.0, 0.5]))
    # half the cells draw from few values, so that ties pile up
    few = draw(st.booleans())
    latency = st.sampled_from([0.0, 1.0, t_s] if few else [0.0, t_s, 2 * t_s, 1.0, 0.5, 0.3])
    rate = st.sampled_from([60.0, 120.0] if few else [6.0, 30.0, 54.2, 60.0, 120.0])
    process = st.just("deterministic") if few else st.sampled_from(["deterministic", "poisson"])
    horizon = draw(st.sampled_from([30.0, 60.0, 60.5, 100.0, 120.25]))
    controller = ControllerConfig(
        window_size=draw(st.sampled_from([3, 50, 1000])),
        recompute_interval_s=t_s,
        bin_width_g=draw(st.sampled_from([10.0, 7.3, 2.5])),
        warmup_s=draw(st.sampled_from([0.0, t_s, 2 * t_s, 1.0, 60.0, horizon, horizon + 1.0])),
    )

    def inflow(lane):
        mean = draw(st.sampled_from([170.0, 240.0, 280.0, 330.0]))
        weights = draw(
            st.sampled_from(
                [narrow(mean, 20.0), EmpiricalWeights("inline", (mean - 30.0, mean, mean + 41.5))]
            )
        )
        return LaneInflow(lane, draw(rate), weights, draw(process))

    if draw(st.booleans()):
        lanes = draw(st.integers(1, 3))
        all_trim = draw(st.booleans())
        space = parallel_lanes_space(
            [
                ([draw(latency) for _ in range(5)], all_trim or draw(st.booleans()))
                for _ in range(lanes)
            ]
        )
        config = only_config(space)
        band = dataclasses.replace(BAND, max_weight_g=draw(st.sampled_from([200.0, 199.7])))
        scenario = make_scenario(
            [band, STRIPS], [inflow(f"lane{i}") for i in range(lanes)], horizon, controller
        )
    else:
        raw = json.loads(json.dumps(CASE_RAW))
        for module in raw["modules"]:
            module["latency_s"] = draw(latency)
        space = parse_design_space(raw)
        config = case_configs_cached()[draw(st.sampled_from([0, 37, 500, 1100]))]
        scenario_file = draw(st.sampled_from(["scenario1.json", "scenario2.json"]))
        recipes = load_scenario(DATA / scenario_file).recipes
        scenario = make_scenario(
            recipes, [inflow(f"lane{i}") for i in range(1, 5)], horizon, controller
        )
    # small chunks and drains make refills and compaction land on recompute ties
    drain_every = draw(st.sampled_from([1, 7, 1024]))
    chunk = draw(st.sampled_from([1, 2, 7, plant_module.CHUNK]))
    return space, config, scenario, draw(st.integers(0, 2**32)), drain_every, chunk


@functools.cache
def case_configs_cached():
    return list(enumerate_configurations(parse_design_space(CASE_RAW)))


def skewed_lanes_cell(*latencies, warmup=5.0):
    """Two lanes at 60 fillets/min with the given trunk latencies, one recompute
    a second, heavy fillets and trim amounts inexact in binary."""
    space = parallel_lanes_space([(lane, True) for lane in latencies])
    band = dataclasses.replace(BAND, max_weight_g=199.7)
    inflow = [LaneInflow(f"lane{i}", 60.0, narrow(280.0, 20.0)) for i in range(2)]
    controller = ControllerConfig(
        window_size=50, recompute_interval_s=1.0, bin_width_g=7.3, warmup_s=warmup
    )
    scenario = make_scenario([band, STRIPS], inflow, 120.0, controller)
    return space, only_config(space), scenario, 1, 1024, plant_module.CHUNK


class TestSweepMatchesCalendar:
    """The sweep against the event calendar it replaced (`tests/des_oracle.py`)."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_cells())
    # equal assign times with weighs in the opposite order to arrivals: equal-time
    # trims and absorptions sort by weigh time before fillet id
    @example(skewed_lanes_cell([1.0, 0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0, 1.0]))
    # assign on recompute j, weigh on recompute j-1, arrival before recompute j-2
    @example(skewed_lanes_cell(*[[2.0, 1.0, 1.0, 1.0, 1.0]] * 2))
    # recompute 0 at the first arrivals, whose weighs land on recompute 1
    @example(skewed_lanes_cell(*[[1.0, 0.0, 1.0, 1.0, 1.0]] * 2, warmup=1.0))
    def test_same_tallies_and_trace_rows(self, cell):
        space, config, scenario, seed, drain_every, chunk = cell
        calendar = CalendarPlant(space, config, scenario, seed, trace=True)
        expected = calendar.run()
        sweep = PlantSimulation(space, config, scenario, seed, trace=True)
        got = run_sweep(sweep, drain_every, chunk)
        # repr: every float to the bit, dicts in insertion order
        assert repr(got) == repr(expected)
        assert sweep.trace_rows == calendar.trace_rows
        # untraced, the same sweep with no rows rebuilt after it
        untraced = run_sweep(PlantSimulation(space, config, scenario, seed), drain_every, chunk)
        assert repr(untraced) == repr(expected)

    @pytest.mark.parametrize("drain_every", [7, 1024])
    def test_assigns_deferred_over_kept_strategies(self, drain_every):
        # Two lanes at 60 fillets/min, every latency 1 s and a recompute a
        # second: each assign lands on a recompute instant. Bin 15 pools about
        # 40 fillets/min, the target, so the walk claims bin 15 alone or bins
        # 15 and 17 as the windows of 200 drift across it. Most walks rebuild
        # the strategy in force and keep it, for dozens of recomputes at a
        # time; each change replaces it, so the sweep assigns the fillets due
        # meanwhile under the strategy it kept, at that recompute or every 7
        # arrivals.
        space = parallel_lanes_space([([1.0] * 5, True)] * 2)
        band = dataclasses.replace(BAND, target_per_min=40.0)
        weights = EmpiricalWeights("inline", (155.0, 175.0, 240.0))
        inflow = [LaneInflow(f"lane{i}", 60.0, weights) for i in range(2)]
        controller = ControllerConfig(
            window_size=200, recompute_interval_s=1.0, bin_width_g=10.0, warmup_s=5.0
        )
        scenario = make_scenario([band, STRIPS], inflow, 300.0, controller)
        calendar = CalendarPlant(space, only_config(space), scenario, 1, trace=True)
        expected = calendar.run()
        sweep = PlantSimulation(space, only_config(space), scenario, 1, trace=True)
        recompute, kept, changed = sweep.controller.recompute, [], []

        def watched_recompute(time_s):
            strategies = sweep.controller.strategies
            recompute(time_s)
            kept.append(sweep.controller.strategies is strategies)
            changed.append(sweep.controller.strategies != strategies)

        sweep.controller.recompute = watched_recompute
        got = run_sweep(sweep, drain_every, plant_module.CHUNK)
        runs = "".join("k" if k else "w" for k in kept).split("w")
        assert len(kept) == 296 and max(map(len, runs[:-1])) >= 30
        assert kept.count(False) == changed.count(True) <= 40 < got.walks
        assert {row[0] % 1.0 for row in sweep.trace_rows if row[4] == "assign"} == {0.0}
        assert repr(got) == repr(expected)
        assert sweep.trace_rows == calendar.trace_rows


class TestTraceReplay:
    """A traced plant rebuilds its rows after the run, from its pass log, its
    lane streams reseeded and its calendar read again: the rows are the event
    calendar's (`tests/des_oracle.py`) whichever way the calendar is read, and
    the tallies are those of the same cell untraced, which runs the same
    sweep."""

    @staticmethod
    def check(space, config, scenario, seed, calendar):
        sweep = PlantSimulation(space, config, scenario, seed, trace=True)
        got = sweep.run()
        assert sweep.trace_rows == calendar.trace_rows
        untraced = PlantSimulation(space, config, scenario, seed).run()
        assert repr(got) == repr(untraced)
        assert (got.events, got.walks) == (untraced.events, untraced.walks)
        return got

    def test_rows_from_every_source_of_the_calendar(self, monkeypatch):
        space, config, scenario, seed, _, _ = skewed_lanes_cell(*[[1.0, 0.0, 1.0, 1.0, 1.0]] * 2)
        calendar = CalendarPlant(space, config, scenario, seed, trace=True)
        expected = calendar.run()
        # per call of `arrival_calendar`, the sweep's then the replay's: whether
        # it gave the memo's record
        hits, read = [], plant_module.arrival_calendar

        def arrival_calendar(lanes, scenario):
            runs = read(lanes, scenario)
            hits.append(isinstance(runs, tuple))
            return runs

        monkeypatch.setattr(plant_module, "arrival_calendar", arrival_calendar)
        with calendar_settings(plant_module.DRAIN_EVERY, plant_module.CHUNK):
            # the first cell records the calendar, which its replay then reads
            # back; the second reads the record in both
            for stored, sources in ((0, [False, True]), (1, [True, True])):
                assert len(plant_module.CALENDARS) == stored
                hits.clear()
                assert repr(self.check(space, config, scenario, seed, calendar)) == repr(expected)
                assert hits[:2] == sources
        with calendar_settings(plant_module.DRAIN_EVERY, plant_module.CHUNK, memo_arrivals=0):
            hits.clear()
            assert repr(self.check(space, config, scenario, seed, calendar)) == repr(expected)
            assert hits[:2] == [False, False]
            assert not plant_module.CALENDARS

    def test_poisson_rows_with_a_drain_every_7_arrivals(self):
        # the skewed cell's two lanes, Poisson: the replay draws the arrivals
        # again from the reseeded streams; the trimmer cuts some fillets
        space, config, scenario, seed, _, _ = skewed_lanes_cell(*[[1.0, 0.0, 1.0, 1.0, 1.0]] * 2)
        inflow = tuple(dataclasses.replace(lane, process="poisson") for lane in scenario.inflow)
        scenario = dataclasses.replace(scenario, inflow=inflow)
        calendar = CalendarPlant(space, config, scenario, seed, trace=True)
        expected = calendar.run()
        with calendar_settings(7, plant_module.CHUNK):
            got = self.check(space, config, scenario, seed, calendar)
        assert repr(got) == repr(expected)
        assert got.walks > 1 and got.trim_mass_g > 0


class TestWindowsMatchCalendar:
    """The sweep's windows, views into its lane lists, against the calendar's
    reference windows (`tests/des_oracle.py`) as each recompute reads them.
    Only the lanes some rung reads (`read_lanes`) keep their windows in the
    sweep; on the others every strategy stays empty, in both plants."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_cells())
    # windows of 50 over 240 fillets, their lists' prefix dropped every 7
    @example((*skewed_lanes_cell(*[[1.0, 1.0, 1.0, 1.0, 1.0]] * 2)[:4], 7, plant_module.CHUNK))
    def test_same_counts_and_span_at_every_recompute(self, cell):
        space, config, scenario, seed, drain_every, chunk = cell
        calendar = CalendarPlant(space, config, scenario, seed)
        sweep = PlantSimulation(space, config, scenario, seed)
        seen = {}
        for plant in (calendar, sweep):
            controller = plant.controller
            seen[plant] = windows = []

            def recorded(time_s, controller=controller, recompute=controller.recompute,
                         windows=windows):
                lanes = list(controller.windows.items())
                read = [lanes[i] for i in sorted(controller.read_lanes)]
                windows.append([(lane, dict(w.counts), w.span_s()) for lane, w in read])
                recompute(time_s)
                unread = {lane for lane, _ in lanes} - {lane for lane, _ in read}
                assert not any(controller.strategies.get(lane) for lane in unread)

            controller.recompute = recorded
        calendar.run()
        run_sweep(sweep, drain_every, chunk)
        assert len(seen[sweep]) == calendar.controller.recomputes
        assert seen[sweep] == seen[calendar]


class TestCertificateInThePlant:
    """Recomputes that keep the strategy (`controller` module doc) against a
    fresh walk, over the sweep's windows."""

    @settings(max_examples=100, deadline=None)
    @given(sweep_cells())
    def test_kept_strategies_equal_a_walk_at_every_recompute(self, cell):
        space, config, scenario, seed, drain_every, chunk = cell
        sim = PlantSimulation(space, config, scenario, seed)
        controller = sim.controller
        recompute = controller.recompute

        def checked_recompute(time_s):
            before = controller.strategies
            recompute(time_s)
            walked = controller.compute_strategies()
            assert [(lane, list(s.items())) for lane, s in controller.strategies.items()] == [
                (lane, list(s.items())) for lane, s in walked.items()
            ]
            # the object is replaced exactly when its content changes
            assert (controller.strategies is before) == (
                [(lane, list(s.items())) for lane, s in controller.strategies.items()]
                == [(lane, list(s.items())) for lane, s in before.items()]
            )

        controller.recompute = checked_recompute
        tallies = run_sweep(sim, drain_every, chunk)
        assert tallies.walks == controller.walks <= tallies.recomputes

    def test_poisson_scenario_skips_most_recomputes(self, case_space, case_configs):
        # scenario1 with Poisson lanes, windows of 2000 and a recompute every
        # 5 s; design 0 reads lanes 3 and 4, like the benchmark's long run
        base = load_scenario(DATA / "scenario1.json")
        scenario = dataclasses.replace(
            base,
            inflow=tuple(dataclasses.replace(lane, process="poisson") for lane in base.inflow),
            horizon_s=1800.0,
            controller=dataclasses.replace(
                base.controller, window_size=2000, recompute_interval_s=5.0
            ),
        )
        tallies = PlantSimulation(case_space, case_configs[0], scenario, seed=1).run()
        assert tallies.recomputes == 349
        assert tallies.walks <= 0.2 * tallies.recomputes


def run_sweep(sweep, drain_every, chunk):
    """`sweep.run()` with the module's DRAIN_EVERY and CHUNK set as given."""
    saved = plant_module.DRAIN_EVERY, plant_module.CHUNK
    plant_module.DRAIN_EVERY, plant_module.CHUNK = drain_every, chunk
    try:
        return sweep.run()
    finally:
        plant_module.DRAIN_EVERY, plant_module.CHUNK = saved


@contextlib.contextmanager
def calendar_settings(drain_every, chunk, memo_arrivals=plant_module.CALENDAR_MEMO_ARRIVALS):
    """An empty calendar memo of the given cap, with DRAIN_EVERY and CHUNK set."""
    names = ("CALENDARS", "DRAIN_EVERY", "CHUNK", "CALENDAR_MEMO_ARRIVALS")
    saved = [getattr(plant_module, name) for name in names]
    for name, value in zip(names, ({}, drain_every, chunk, memo_arrivals)):
        setattr(plant_module, name, value)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(plant_module, name, value)


def calendar_facts(runs):
    """A calendar's stops, runs and arrivals as plain lists, for comparing: per
    run, its last stop's fillet count and per lane the lane position after it."""
    stops, ends, arrivals = [], [], []
    position = None  # per lane, the lane position of its next arrival
    for run in runs:
        position = position or [0] * len(run.ids)
        run_stops = [(fid, now, bool(recompute)) for fid, now, recompute in zip(
            run.fids, run.at, run.recomputes
        )]
        stops += run_stops
        start = list(position)
        for lane in run.order:
            k = position[lane] - start[lane]
            arrivals.append((run.ids[lane][k], lane, run.times[lane][k]))
            position[lane] += 1
        # each lane's part of the run is its arrivals in the order, all of them
        assert [len(ids) for ids in run.ids] == [b - a for a, b in zip(start, position)]
        assert [len(times) for times in run.times] == [len(ids) for ids in run.ids]
        ends.append((run_stops[-1][0], list(position)))
    return stops, ends, arrivals


def deterministic(scenario):
    return dataclasses.replace(
        scenario,
        inflow=tuple(dataclasses.replace(lane, process="deterministic") for lane in scenario.inflow),
    )


class TestArrivalCalendar:
    """The memo of deterministic calendars against the calendar each cell computes."""

    def check_memo_replays_the_stream(self, space, config, scenario, drain_every, chunk):
        lanes = list(PlantSimulation(space, config, scenario, 1).lane_runtimes.values())
        controller = scenario.controller
        streamed = calendar_facts(plant_module.calendar_runs(
            lanes, scenario.horizon_s, controller.warmup_s, controller.recompute_interval_s,
            drain_every, chunk,
        ))
        with calendar_settings(drain_every, chunk):
            recorded = calendar_facts(plant_module.arrival_calendar(lanes, scenario))
            assert len(plant_module.CALENDARS) == 1
            replayed = calendar_facts(plant_module.arrival_calendar(lanes, scenario))
        assert recorded == streamed
        assert replayed == streamed
        stops, runs, arrivals = streamed
        # fillets numbered in calendar order; the last stop is the end, after them all
        assert [fid for fid, _, _ in arrivals] == list(range(1, len(arrivals) + 1))
        assert stops[-1] == (len(arrivals), math.inf, False)
        assert [fid for fid, _, _ in stops] == sorted(fid for fid, _, _ in stops)
        # every run but the last ends at least `chunk` arrivals a lane after the one before
        assert all(
            b - a >= chunk * len(lanes) for (a, _), (b, _) in zip([(0, None)] + runs, runs[:-1])
        )

    @settings(max_examples=100, deadline=None)
    @given(sweep_cells())
    def test_memo_replays_the_streamed_stops(self, cell):
        space, config, scenario, _, drain_every, chunk = cell
        self.check_memo_replays_the_stream(
            space, config, deterministic(scenario), drain_every, chunk
        )

    @pytest.mark.parametrize("name", ["scenario1.json", "scenario2.json"])
    def test_bundled_scenarios(self, case_space, case_configs, name):
        self.check_memo_replays_the_stream(
            case_space, case_configs[0], load_scenario(DATA / name),
            plant_module.DRAIN_EVERY, plant_module.CHUNK,
        )

    def test_cells_of_a_scenario_share_one_entry(self, case_space, case_configs, scenario1):
        scenario = dataclasses.replace(scenario1, horizon_s=300.0)
        poisson = dataclasses.replace(
            scenario,
            inflow=tuple(dataclasses.replace(lane, process="poisson") for lane in scenario.inflow),
        )
        with calendar_settings(plant_module.DRAIN_EVERY, plant_module.CHUNK):
            memo = plant_module.CALENDARS
            PlantSimulation(case_space, case_configs[0], scenario, seed=1).run()
            (entry,) = memo.values()
            hit = PlantSimulation(case_space, case_configs[37], scenario, seed=2).run()
            assert list(memo.values()) == [entry]
            PlantSimulation(case_space, case_configs[37], poisson, seed=2).run()
            assert list(memo.values()) == [entry]
            plant_module.DRAIN_EVERY = 7
            PlantSimulation(case_space, case_configs[37], scenario, seed=2).run()
            assert len(memo) == 2
        # a memo hit gives what the calendar computed in the cell gives
        with calendar_settings(plant_module.DRAIN_EVERY, plant_module.CHUNK, memo_arrivals=0):
            streamed = PlantSimulation(case_space, case_configs[37], scenario, seed=2).run()
            assert not plant_module.CALENDARS
        assert repr(hit) == repr(streamed)

    def test_calendar_over_the_cap_is_not_stored(self):
        space, config, scenario, seed, _, _ = skewed_lanes_cell(*[[1.0, 0.0, 1.0, 1.0, 1.0]] * 2)
        calendar = CalendarPlant(space, config, scenario, seed, trace=True)
        expected = calendar.run()
        # two lanes at 60 fillets/min for 120 s: 240 arrivals; a recompute a
        # second, so the cap counts 120 + 240 / 1024 + 1 stops, 361.2 in all
        with calendar_settings(plant_module.DRAIN_EVERY, plant_module.CHUNK, memo_arrivals=361):
            for _ in range(2):
                sweep = PlantSimulation(space, config, scenario, seed, trace=True)
                assert repr(sweep.run()) == repr(expected)
                assert sweep.trace_rows == calendar.trace_rows
                assert not plant_module.CALENDARS
        with calendar_settings(plant_module.DRAIN_EVERY, plant_module.CHUNK, memo_arrivals=362):
            # the first cell records the calendar, the second replays the record
            for stored in (0, 1):
                assert len(plant_module.CALENDARS) == stored
                sweep = PlantSimulation(space, config, scenario, seed, trace=True)
                assert repr(sweep.run()) == repr(expected)
                assert sweep.trace_rows == calendar.trace_rows
            assert len(plant_module.CALENDARS) == 1

    def test_cap_counts_stops_as_well_as_arrivals(self):
        # one lane at 6 fillets/min for 36000 s and a recompute every 0.5 s from
        # 0 s on: 3600 arrivals, and 36000 / 0.5 + 3600 / 1024 + 1 stops, 75604.5
        # in all; a stop takes as many bytes in the memo as an arrival
        space = one_lane_space()
        scenario = make_scenario(
            [BAND, STRIPS], [LaneInflow("lane", 6.0, narrow(280.0))], horizon=36000.0,
            controller=ControllerConfig(recompute_interval_s=0.5, warmup_s=0.0),
        )
        lanes = list(PlantSimulation(space, only_config(space), scenario, 1).lane_runtimes.values())
        for cap, stored in ((10 * 3600, 0), (75604, 0), (75605, 1)):
            with calendar_settings(1024, plant_module.CHUNK, cap):
                stops, _, arrivals = calendar_facts(plant_module.arrival_calendar(lanes, scenario))
                assert (len(arrivals), len(stops)) == (3600, 72005)
                assert len(plant_module.CALENDARS) == stored
