import math
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from des_oracle import LaneWindow, ReferenceController
from flowdse.controller import (
    BinAssignment,
    ControllerConfig,
    ProductionController,
    RouteCatalog,
    recipe_ladder,
)
from flowdse.plant import WindowView
from flowdse.scenario import Recipe
from strategy_oracle import LegacyStrategies


def recipe(dest, prio, target, lo, hi, trim):
    return Recipe(dest, prio, float(target), float(lo), float(hi), float(trim))


DEFAULT = Recipe("strips", None, None, 0.0, 10_000.0, 0.0)


def make_controller(
    samples_by_lane,
    recipes,
    reachable=None,
    has_trimmer=None,
    binw=10.0,
    t_s=10.0,
    window=1000,
    heaviest_g=math.inf,
):
    lanes = list(samples_by_lane)
    tags = frozenset(r.destination for r in recipes)
    routes = RouteCatalog(
        reachable={
            lane: frozenset((reachable or {}).get(lane, tags)) for lane in lanes
        },
        has_trimmer={lane: (has_trimmer or {}).get(lane, True) for lane in lanes},
    )
    config = ControllerConfig(
        window_size=window, recompute_interval_s=t_s, bin_width_g=binw, warmup_s=0.0
    )
    ctrl = ReferenceController(config, routes, recipes, heaviest_g)
    for lane, samples in samples_by_lane.items():
        for t, w in samples:
            ctrl.record_weight(lane, w, t)
    return ctrl


def legacy_of(ctrl):
    """The legacy strategy build on a reference controller's windows."""
    return LegacyStrategies(ctrl, ctrl.routes, ctrl.recipes)


def uniform_lane(lo_bin, n_bins, per_bin, span_s, binw=10.0):
    """per_bin samples in each of n_bins consecutive bins, spread over span_s.

    First and last sample pin the window span exactly; they sit in a far-away
    bin so they never interfere with the band under test.
    """
    total = n_bins * per_bin
    samples = [(0.0, 9000.0)]
    for i in range(total):
        b = lo_bin + (i % n_bins)
        t = span_s * (i + 1) / (total + 1)
        samples.append((t, b * binw + binw / 2))
    samples.append((span_s, 9000.0))
    return samples


def flat(strategies):
    return {
        lane: {b: (a.recipe_index, a.destination, a.trim_g) for b, a in by_bin.items()}
        for lane, by_bin in strategies.items()
    }


class TestLaneWindow:
    def test_bin_of_uses_floor_division(self):
        w = LaneWindow("l", 10, 10.0)
        assert w.bin_of(280.0) == 28
        assert w.bin_of(289.999) == 28
        assert w.bin_of(290.0) == 29
        assert w.bin_of(0.0) == 0

    def test_eviction_is_fifo(self):
        w = LaneWindow("l", 3, 10.0)
        for t, g in [(0.0, 105.0), (1.0, 115.0), (2.0, 125.0)]:
            w.record(g, t)
        w.record(135.0, 3.0)
        assert [g for _, g in w.samples] == [115.0, 125.0, 135.0]
        assert w.counts == {11: 1, 12: 1, 13: 1}
        assert w.span_s() == 2.0

    def test_eviction_keeps_shared_bin_counts(self):
        w = LaneWindow("l", 2, 10.0)
        w.record(101.0, 0.0)
        w.record(102.0, 1.0)
        w.record(103.0, 2.0)
        # two of the three lived in bin 10; one was evicted
        assert w.counts == {10: 2}

    def test_span_needs_two_samples(self):
        w = LaneWindow("l", 5, 10.0)
        assert w.span_s() == 0.0
        w.record(200.0, 7.0)
        assert w.span_s() == 0.0

    @given(
        weights=st.lists(st.floats(1.0, 900.0, allow_nan=False), max_size=60),
        window=st.integers(1, 12),
    )
    def test_histogram_always_matches_retained_samples(self, weights, window):
        w = LaneWindow("l", window, 10.0)
        for i, g in enumerate(weights):
            w.record(g, float(i))
        kept = weights[-window:]
        assert len(w.samples) == len(kept)
        assert dict(w.counts) == dict(Counter(int(g // 10.0) for g in kept))
        assert sum(w.counts.values()) == len(kept)


class TestPrediction:
    """The per-bin rate of the pre-ladder build, which the ladder walk must match."""

    def test_rate_from_span_and_bin_counts(self):
        # span pinned to 600 s, 60 fillets in bin 20
        samples = [(0.0, 905.0)] + [(float(i), 205.0) for i in range(1, 61)]
        samples.append((600.0, 905.0))
        ctrl = make_controller({"l": samples}, [recipe("d", 1, 10, 100, 200, 0), DEFAULT])
        legacy = legacy_of(ctrl)
        assert legacy.predict_throughput("l", (20,)) == 6.0
        assert legacy.predict_throughput("l", (20, 90)) == 6.2

    def test_burst_is_clamped_by_recompute_interval(self):
        # all samples share one timestamp; the raw span would divide by zero
        samples = [(5.0, 155.0)] * 50
        ctrl = make_controller({"l": samples}, [recipe("d", 1, 10, 100, 200, 0), DEFAULT])
        assert legacy_of(ctrl).predict_throughput("l", (15,)) == 50 / (10.0 / 60.0)

    def test_empty_window_predicts_zero(self):
        ctrl = make_controller({"l": []}, [recipe("d", 1, 10, 100, 200, 0), DEFAULT])
        assert legacy_of(ctrl).predict_throughput("l", (15,)) == 0.0


class TestStrategyShape:
    def test_direct_range_grows_until_target_met(self):
        # 3 fillets/min/bin on bins 10..19; target 20 needs seven whole bins
        samples = uniform_lane(10, 20, per_bin=10, span_s=200.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 20, 100, 200, 0), DEFAULT]
        )
        got = ctrl.compute_strategies()["l"]
        assert {b for b, a in got.items() if a.recipe_index == 0} == set(range(10, 17))
        assert all(a.trim_g is None for a in got.values())

    def test_no_demand_no_assignment(self):
        samples = uniform_lane(10, 20, per_bin=10, span_s=200.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 0, 100, 200, 0), DEFAULT]
        )
        assert ctrl.compute_strategies() == {"l": {}}

    def test_trim_range_climbs_from_upper_limit(self):
        # inflow sits far above the band; only trimming can serve the recipe
        samples = uniform_lane(27, 3, per_bin=20, span_s=300.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 60, 150, 200, 100), DEFAULT]
        )
        got = ctrl.compute_strategies()["l"]
        assert {b: a.trim_g for b, a in got.items()} == {
            27: 80.0,
            28: 90.0,
            29: 100.0,
        }

    def test_trim_stops_at_budget(self):
        samples = uniform_lane(20, 15, per_bin=10, span_s=300.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 1000, 150, 200, 50), DEFAULT]
        )
        got = ctrl.compute_strategies()["l"]
        trimmed = {b: a.trim_g for b, a in got.items() if a.trim_g is not None}
        # (b+1)*10 - 200 <= 50 holds for bins 20..24 only
        assert trimmed == {20: 10.0, 21: 20.0, 22: 30.0, 23: 40.0, 24: 50.0}

    def test_upper_limit_off_the_grid_trims_the_straddling_bin(self):
        samples = uniform_lane(15, 10, per_bin=10, span_s=100.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 1000, 150, 195, 30), DEFAULT]
        )
        got = ctrl.compute_strategies()["l"]
        # direct bins must lie wholly inside [150, 195]
        assert {b for b, a in got.items() if a.trim_g is None} == {15, 16, 17, 18}
        # bin [190, 200) straddles the limit: a 5 g cut lands it at [185, 195)
        assert got[19].trim_g == 5.0
        assert got[20].trim_g == 15.0
        assert got[21].trim_g == 25.0
        assert 22 not in got

    def test_narrow_band_never_trims(self):
        # post-trim weights land in [max - bin width, max); with max - bin
        # width below min every cut would undershoot, so none may be issued
        samples = uniform_lane(9, 12, per_bin=10, span_s=100.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 1000, 100, 105, 80), DEFAULT]
        )
        got = ctrl.compute_strategies()["l"]
        assert got == {}

    def test_zero_trim_budget_means_no_trim_bins(self):
        samples = uniform_lane(10, 20, per_bin=10, span_s=100.0)
        ctrl = make_controller(
            {"l": samples}, [recipe("d", 1, 1000, 100, 200, 0), DEFAULT]
        )
        got = ctrl.compute_strategies()["l"]
        assert {b for b in got} == set(range(10, 20))
        assert all(a.trim_g is None for a in got.values())

    def test_lane_without_trimmer_gets_no_trim_bins(self):
        samples = uniform_lane(20, 10, per_bin=10, span_s=100.0)
        ctrl = make_controller(
            {"l": samples},
            [recipe("d", 1, 1000, 150, 200, 100), DEFAULT],
            has_trimmer={"l": False},
        )
        got = ctrl.compute_strategies()["l"]
        assert all(a.trim_g is None for a in got.values())

    def test_unservable_recipe_is_skipped(self):
        samples = uniform_lane(10, 10, per_bin=10, span_s=100.0)
        ctrl = make_controller(
            {"l": samples},
            [recipe("far", 1, 50, 100, 200, 0), recipe("d", 2, 50, 100, 200, 0), DEFAULT],
            reachable={"l": {"d", "strips"}},
        )
        got = ctrl.compute_strategies()["l"]
        assert all(a.destination == "d" for a in got.values())


class TestPriorities:
    def test_higher_priority_claims_bins_first(self):
        samples = uniform_lane(10, 20, per_bin=10, span_s=200.0)
        ctrl = make_controller(
            {"l": samples},
            [
                recipe("a", 1, 20, 100, 200, 0),
                recipe("b", 2, 3, 100, 200, 0),
                DEFAULT,
            ],
        )
        got = ctrl.compute_strategies()["l"]
        assert {b for b, x in got.items() if x.destination == "a"} == set(range(10, 17))
        # b walks the same band from the bottom; taken bins predict zero, so
        # its range keeps growing until the first free bin satisfies it
        assert {b for b, x in got.items() if x.destination == "b"} == {17}
        assert 18 not in got and 19 not in got

    def test_equal_priority_breaks_ties_by_declaration_order(self):
        samples = uniform_lane(10, 10, per_bin=10, span_s=100.0)
        first = make_controller(
            {"l": samples},
            [recipe("a", 1, 6, 100, 200, 0), recipe("b", 1, 6, 100, 200, 0), DEFAULT],
        ).compute_strategies()["l"]
        assert first[10].destination == "a"
        flipped = make_controller(
            {"l": samples},
            [recipe("b", 1, 6, 100, 200, 0), recipe("a", 1, 6, 100, 200, 0), DEFAULT],
        ).compute_strategies()["l"]
        assert flipped[10].destination == "b"

    def test_priority_numbers_beat_declaration_order(self):
        samples = uniform_lane(10, 10, per_bin=10, span_s=100.0)
        got = make_controller(
            {"l": samples},
            [recipe("late", 5, 6, 100, 200, 0), recipe("urgent", 1, 6, 100, 200, 0), DEFAULT],
        ).compute_strategies()["l"]
        assert got[10].destination == "urgent"


class TestLookup:
    def test_before_first_recompute_everything_defaults(self):
        ctrl = make_controller(
            {"l": uniform_lane(10, 10, per_bin=10, span_s=100.0)},
            [recipe("d", 1, 50, 100, 200, 0), DEFAULT],
        )
        hit = ctrl.lookup("l", 155.0)
        assert hit == BinAssignment(1, "strips", None)

    def test_after_recompute_band_hits_and_default_fallback(self):
        ctrl = make_controller(
            {"l": uniform_lane(10, 10, per_bin=10, span_s=100.0)},
            [recipe("d", 1, 50, 100, 200, 0), DEFAULT],
        )
        ctrl.recompute(60.0)
        assert ctrl.lookup("l", 155.0).destination == "d"
        assert ctrl.lookup("l", 555.0).destination == "strips"
        assert ctrl.recomputes == 1

    def test_default_recipe_must_be_unique(self):
        routes = RouteCatalog(
            reachable={"l": frozenset({"strips"})},
            has_trimmer={"l": False},
        )
        with pytest.raises(ValueError, match="default"):
            ReferenceController(ControllerConfig(), routes, [DEFAULT, DEFAULT])
        with pytest.raises(ValueError, match="default"):
            ReferenceController(
                ControllerConfig(), routes, [recipe("d", 1, 10, 100, 200, 0)]
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"window_size": 0},
            {"recompute_interval_s": 0.0},
            {"bin_width_g": -1.0},
            {"warmup_s": -0.1},
        ],
    )
    def test_rejects_degenerate_settings(self, kw):
        with pytest.raises(ValueError):
            ControllerConfig(**kw)


# -- reference oracle --------------------------------------------------------
#
# A deliberately dumb restatement of the strategy build, used to cross-check
# the incremental implementation on randomly generated small instances.


def reference_strategies(lanes, kept, reachable, has_trimmer, recipes, binw, t_s):
    hist = {ln: Counter(int(w // binw) for _, w in kept[ln]) for ln in lanes}
    spans = {
        ln: (kept[ln][-1][0] - kept[ln][0][0]) if len(kept[ln]) >= 2 else 0.0
        for ln in lanes
    }

    def rate(ln, b):
        return hist[ln][b] / (max(spans[ln], t_s) / 60.0)

    order = sorted(
        (i for i, r in enumerate(recipes) if not r.is_default),
        key=lambda i: (recipes[i].priority, i),
    )
    taken = set()
    out = {ln: {} for ln in lanes}
    for idx in order:
        r = recipes[idx]
        serving = [ln for ln in lanes if r.destination in reachable[ln]]
        if not serving:
            continue
        cutters = [ln for ln in serving if has_trimmer[ln]]
        predicted, direct, trims = 0.0, [], []
        b = math.ceil(r.min_weight_g / binw)
        while (b + 1) * binw <= r.max_weight_g and predicted < r.target_per_min:
            predicted += sum(
                rate(ln, b) for ln in serving if b in hist[ln] and (ln, b) not in taken
            )
            direct.append(b)
            b += 1
        if (
            predicted < r.target_per_min
            and cutters
            and r.max_weight_g - binw >= r.min_weight_g
        ):
            b = int(r.max_weight_g // binw)
            while predicted < r.target_per_min:
                cut = (b + 1) * binw - r.max_weight_g
                if cut > r.max_trim_g:
                    break
                predicted += sum(
                    rate(ln, b)
                    for ln in cutters
                    if b in hist[ln] and (ln, b) not in taken
                )
                trims.append((b, cut))
                b += 1
        for b in direct:
            for ln in serving:
                if b in hist[ln] and (ln, b) not in taken:
                    taken.add((ln, b))
                    out[ln][b] = (idx, r.destination, None)
        for b, cut in trims:
            for ln in cutters:
                if b in hist[ln] and (ln, b) not in taken:
                    taken.add((ln, b))
                    out[ln][b] = (idx, r.destination, cut)
    return out


TAGS = ("d0", "d1", "d2")


@st.composite
def control_instances(draw):
    binw = draw(st.sampled_from([5.0, 10.0, 25.0]))
    t_s = draw(st.sampled_from([5.0, 10.0]))
    window = draw(st.integers(20, 200))
    lanes = [f"l{i}" for i in range(draw(st.integers(1, 3)))]

    recipes = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(
            st.sampled_from([100.0, 150.0, 200.0, 250.0])
            | st.floats(60.0, 400.0, allow_nan=False)
        )
        width = draw(
            st.sampled_from([50.0, 100.0]) | st.floats(5.0, 200.0, allow_nan=False)
        )
        recipes.append(
            recipe(
                TAGS[draw(st.integers(0, 2))],
                draw(st.integers(1, 3)),
                draw(st.integers(0, 100)),
                lo,
                lo + width,
                draw(st.sampled_from([0.0, 15.0, 60.0, 120.0])),
            )
        )
    recipes.insert(draw(st.integers(0, len(recipes))), DEFAULT)

    reachable = {
        ln: {"strips"} | {t for t in TAGS if draw(st.booleans())} for ln in lanes
    }
    has_trimmer = {ln: draw(st.booleans()) for ln in lanes}
    samples = {}
    for ln in lanes:
        weights = draw(st.lists(st.floats(40.0, 640.0, allow_nan=False), max_size=220))
        span = draw(st.floats(1.0, 600.0, allow_nan=False))
        n = len(weights)
        samples[ln] = [
            (span * i / max(n - 1, 1), w) for i, w in enumerate(weights)
        ]
    return lanes, samples, reachable, has_trimmer, recipes, binw, t_s, window


def build_from_instance(instance):
    lanes, samples, reachable, has_trimmer, recipes, binw, t_s, window = instance
    ctrl = make_controller(
        samples,
        recipes,
        reachable=reachable,
        has_trimmer=has_trimmer,
        binw=binw,
        t_s=t_s,
        window=window,
    )
    kept = {ln: samples[ln][-window:] for ln in lanes}
    return ctrl, kept


class TestAgainstReference:
    @given(control_instances())
    def test_matches_reference_strategies(self, instance):
        lanes, samples, reachable, has_trimmer, recipes, binw, t_s, window = instance
        ctrl, kept = build_from_instance(instance)
        expected = reference_strategies(
            lanes, kept, reachable, has_trimmer, recipes, binw, t_s
        )
        assert flat(ctrl.compute_strategies()) == expected

    @given(control_instances())
    def test_assignments_are_feasible(self, instance):
        *_, recipes, binw, _, _ = instance
        ctrl, _ = build_from_instance(instance)
        for lane, by_bin in ctrl.compute_strategies().items():
            for b, a in by_bin.items():
                r = recipes[a.recipe_index]
                if a.trim_g is None:
                    assert b * binw >= r.min_weight_g - 1e-9
                    assert (b + 1) * binw <= r.max_weight_g + 1e-9
                else:
                    assert ctrl.routes.has_trimmer[lane]
                    assert 0.0 < a.trim_g <= r.max_trim_g + 1e-9
                    assert b * binw - a.trim_g >= r.min_weight_g - 1e-9
                    assert (b + 1) * binw - a.trim_g <= r.max_weight_g + 1e-9

    @given(control_instances())
    def test_only_observed_bins_are_assigned(self, instance):
        lanes, *_ = instance
        ctrl, kept = build_from_instance(instance)
        binw = ctrl.config.bin_width_g
        for lane, by_bin in ctrl.compute_strategies().items():
            observed = {int(w // binw) for _, w in kept[lane]}
            assert set(by_bin) <= observed

    @settings(max_examples=60)
    @given(control_instances())
    def test_dropping_the_weakest_recipe_preserves_the_rest(self, instance):
        lanes, samples, reachable, has_trimmer, recipes, binw, t_s, window = instance
        order = sorted(
            (i for i, r in enumerate(recipes) if not r.is_default),
            key=lambda i: (recipes[i].priority, i),
        )
        full = flat(build_from_instance(instance)[0].compute_strategies())
        weakest = order[-1]
        reduced = [r for i, r in enumerate(recipes) if i != weakest]
        slim_instance = (
            lanes, samples, reachable, has_trimmer, reduced, binw, t_s, window,
        )
        slim = flat(build_from_instance(slim_instance)[0].compute_strategies())

        def renumber(idx):
            return idx - 1 if idx > weakest else idx

        for lane in lanes:
            surviving = {
                b: (renumber(i), dest, trim)
                for b, (i, dest, trim) in full[lane].items()
                if i != weakest
            }
            for b, entry in surviving.items():
                assert slim[lane][b] == entry


# -- differential test against the strategy build the ladder replaced ---------

def in_order(strategies):
    """Strategies with their insertion order, which the ladder must also keep."""
    return [(lane, list(by_bin.items())) for lane, by_bin in strategies.items()]


@st.composite
def ladder_instances(draw):
    """Small random controllers aimed at the ladder's edges.

    Bin widths include 0.1 g, where a limit that is a multiple of the width
    can put one bin on both the direct and the trim side. In exact mode every
    window lies within one recompute interval, so each rate is count / 0.5,
    count / 1 or count / 2 and targets are halves: `predicted == target` ties
    are common. Windows may be empty, hold one sample, or evict.
    """
    binw = draw(st.sampled_from([0.1, 2.5, 7.3, 10.0]))
    exact = draw(st.booleans())
    if exact:
        t_s = draw(st.sampled_from([30.0, 60.0, 120.0]))
        horizon = t_s
    else:
        t_s = draw(st.floats(0.1, 100.0))
        horizon = draw(st.floats(0.0, 1000.0))
    # a position on the weight axis, in bins: whole (a limit on a bin edge) or not
    position = st.integers(0, 12).map(float) | st.floats(0.0, 12.0)

    recipes = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(position)
        hi = lo + draw(st.integers(1, 6).map(float) | st.floats(0.05, 6.0))
        if exact:
            target = draw(st.integers(1, 16)) / 2
        else:
            target = draw(st.floats(0.01, 300.0))
        recipes.append(
            recipe(
                draw(st.sampled_from(TAGS)),
                draw(st.integers(1, 3)),
                target,
                lo * binw,
                hi * binw,
                draw(st.just(0.0) | position.map(lambda k: k / 4)) * binw,
            )
        )
    recipes.insert(draw(st.integers(0, len(recipes))), DEFAULT)

    lanes = [f"l{i}" for i in range(draw(st.integers(1, 4)))]
    reachable = {
        ln: {"strips"} | {t for t in TAGS if draw(st.booleans())} for ln in lanes
    }
    has_trimmer = {ln: draw(st.booleans()) for ln in lanes}
    weight = (st.integers(0, 15).map(float) | st.floats(0.0, 16.0)).map(lambda k: k * binw)
    sample = st.tuples(st.floats(0.0, horizon), weight)
    batches = [
        {ln: sorted(draw(st.lists(sample, max_size=40))) for ln in lanes}
        for _ in range(2)
    ]
    window = draw(st.integers(1, 40))
    return binw, t_s, window, recipes, reachable, has_trimmer, batches


class TestLadderMatchesLegacy:
    @given(ladder_instances(), st.booleans())
    def test_same_strategies_as_the_legacy_build(self, instance, bounded):
        binw, t_s, window, recipes, reachable, has_trimmer, batches = instance
        first, second = batches
        # bounded: the ladder's trim bins end at the heaviest weight recorded
        heaviest = math.inf
        if bounded:
            heaviest = max(
                (w for batch in batches for samples in batch.values() for _, w in samples),
                default=0.0,
            )
        ctrl = make_controller(
            first,
            recipes,
            reachable=reachable,
            has_trimmer=has_trimmer,
            binw=binw,
            t_s=t_s,
            window=window,
            heaviest_g=heaviest,
        )
        legacy = legacy_of(ctrl)
        assert in_order(ctrl.compute_strategies()) == in_order(legacy.compute_strategies())
        # a second recompute on moved windows: nothing may carry over
        for lane, samples in second.items():
            for t, w in samples:
                ctrl.record_weight(lane, w, t + 1000.0)
        assert in_order(ctrl.compute_strategies()) == in_order(legacy.compute_strategies())

    def test_tie_at_the_target_stops_the_walk(self):
        # two lanes, 5 per minute each in bins 10 and 11: bin 10 alone meets 10/min
        lane = [(0.0, 105.0)] * 5 + [(0.0, 115.0)] * 5 + [(60.0, 9000.0)]
        ctrl = make_controller(
            {"a": lane, "b": lane}, [recipe("d0", 1, 10, 100, 200, 0), DEFAULT]
        )
        strategies = ctrl.compute_strategies()
        assert in_order(strategies) == in_order(legacy_of(ctrl).compute_strategies())
        assert set(strategies["a"]) == set(strategies["b"]) == {10}

    def test_bin_on_both_sides_of_the_upper_limit(self):
        # at 0.1 g bins a 0.5 g upper limit makes bin 4 the last direct bin
        # (5 * 0.1 == 0.5) and the first trim bin, with a 0.0 g cut. Its rate
        # counts twice towards the target and the direct claim wins: bins
        # 2, 3, 4 give 3/min, then trim bins 4 and 5 reach 5 >= 4.5/min.
        weights = [0.25, 0.35, 0.45, 0.55, 0.65]
        lane = [(0.0, w) for w in weights] + [(60.0, 9.05)]
        recipes = [recipe("d0", 1, 4.5, 0.2, 0.5, 0.3), DEFAULT]
        ctrl = make_controller({"a": lane}, recipes, binw=0.1, t_s=60.0)
        strategies = ctrl.compute_strategies()
        assert in_order(strategies) == in_order(legacy_of(ctrl).compute_strategies())
        assert [(b, a.trim_g) for b, a in strategies["a"].items()] == [
            (2, None), (3, None), (4, None), (5, pytest.approx(0.1)),
        ]

    def test_direct_bins_stop_at_the_heaviest_weight(self):
        # an upper limit of 1e308 g: a walk that misses its target would step
        # through 1e307 empty bins
        band = recipe("d0", 1, 1000, 100, 1e308, 0)
        assert recipe_ladder((band, DEFAULT), 10.0, 655.0).rungs[0].direct == range(10, 66)
        lane = [(0.0, 105.0), (60.0, 305.0)]
        start = time.perf_counter()
        ctrl = make_controller({"a": lane}, [band, DEFAULT], heaviest_g=655.0)
        assert set(ctrl.compute_strategies()["a"]) == {10, 30}
        assert time.perf_counter() - start < 0.1

    def test_trim_bins_stop_at_the_heaviest_weight(self):
        band = recipe("d0", 1, 10, 100, 200, 1e6)
        start = time.perf_counter()
        ladder = recipe_ladder((band, DEFAULT), 10.0, 655.0)
        assert time.perf_counter() - start < 0.1
        assert [b for b, _ in ladder.rungs[0].trim] == list(range(20, 66))
        assert ladder.rungs[0].trim[-1][1].trim_g == 460.0
        # a trim allowance of 1e9 g: one entry per bin would take about 22 GB
        start = time.perf_counter()
        huge = recipe_ladder((recipe("d0", 1, 10, 100, 200, 1e9), DEFAULT), 10.0, 655.0)
        assert time.perf_counter() - start < 0.1
        assert len(huge.rungs[0].trim) == 46


# -- the certificate: a kept strategy against a fresh walk ---------------------


class PlantWindows:
    """Plant windows (`plant.WindowView`) over growing per-lane lists, each moved
    by `WindowView.slide`, the plant's weigh step."""

    def __init__(self, n_lanes, size):
        self.size = size
        self.windows = [WindowView([]) for _ in range(n_lanes)]
        self.bins = [[] for _ in range(n_lanes)]

    def weigh(self, batch, watched):
        """Weigh each lane's (gap in seconds after its last weigh, bin) samples."""
        for window, bins, samples in zip(self.windows, self.bins, batch):
            times = window.weigh_times
            for gap, b in samples:
                times.append((times[-1] if times else 0.0) + gap)
                bins.append(b)
            if samples:
                window.slide(bins, len(bins), self.size, watched)


def prefix_sums(rung, windows, t_s):
    """A walk's prediction after each bin of `rung`, from 0.0, over every lane."""
    divisors = [max(w.span_s(), t_s) / 60.0 for w in windows]
    predicted, sums = 0.0, [0.0]
    for b in [*rung.direct, *(b for b, _ in rung.trim)]:
        rate = 0.0
        for window, divisor in zip(windows, divisors):
            count = window.counts.get(b)
            if count:
                rate += count / divisor
        predicted += rate
        sums.append(predicted)
    return sums


@st.composite
def certificate_runs(draw):
    """Windows moving through weighs, evictions and span changes (gaps of 0 s
    give equal times), and recipes whose bands sit on or off bin edges. Each
    recipe's target is picked (`picks`) as an exact prefix sum of a walk's
    prediction at some epoch, so that `predicted == target` ties occur."""
    binw = draw(st.sampled_from([0.1, 2.5, 10.0]))
    t_s = draw(st.sampled_from([0.5, 5.0, 60.0]))
    size = draw(st.integers(1, 12))
    n_lanes = draw(st.integers(1, 3))
    reach = [sorted(draw(st.sets(st.sampled_from(TAGS)))) for _ in range(n_lanes)]
    trims = [draw(st.booleans()) for _ in range(n_lanes)]
    position = st.integers(0, 10).map(float) | st.floats(0.0, 10.0)
    bands = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(position)
        hi = lo + draw(st.integers(1, 5).map(float) | st.floats(0.05, 5.0))
        trim = draw(st.just(0.0) | st.integers(1, 4).map(float) | st.floats(0.0, 4.0))
        bands.append((draw(st.sampled_from(TAGS)), draw(st.integers(1, 3)), lo, hi, trim))
    sample = st.tuples(st.sampled_from([0.0, 0.25, 1.0, 7.0, 60.0]), st.integers(0, 12))
    epochs = draw(
        st.lists(
            st.lists(st.lists(sample, max_size=4), min_size=n_lanes, max_size=n_lanes),
            min_size=1,
            max_size=30,
        )
    )
    picks = [(draw(st.integers(0, len(epochs) - 1)), draw(st.integers(0, 30))) for _ in bands]
    return binw, t_s, size, reach, trims, bands, epochs, picks


def certificate_controller(run, windows=None):
    """A controller for `run` over `windows`, fresh plant windows by default,
    and those windows. Each recipe's target is the prefix sum its pick names
    (`certificate_runs`)."""
    binw, t_s, size, reach, trims, bands, epochs, picks = run
    lanes = [f"l{i}" for i in range(len(reach))]
    routes = RouteCatalog(
        reachable={ln: frozenset(["strips", *tags]) for ln, tags in zip(lanes, reach)},
        has_trimmer=dict(zip(lanes, trims)),
    )
    config = ControllerConfig(
        window_size=size, recompute_interval_s=t_s, bin_width_g=binw, warmup_s=0.0
    )

    def recipes_with(targets):
        return [
            recipe(tag, priority, target, lo * binw, hi * binw, trim * binw)
            for (tag, priority, lo, hi, trim), target in zip(bands, targets)
        ] + [DEFAULT]

    rungs = recipe_ladder(tuple(recipes_with([1.0] * len(bands))), binw).rungs
    # the ladder lists rungs in priority order, `bands` in declaration order
    order = sorted(range(len(bands)), key=lambda i: (bands[i][1], i))
    sums = {}
    probe = PlantWindows(len(lanes), size)
    for epoch, batch in enumerate(epochs):
        probe.weigh(batch, range(0))
        for i, rung in zip(order, rungs):
            sums[epoch, i] = prefix_sums(rung, probe.windows, t_s)
    targets = []
    for i, (epoch, k) in enumerate(picks):
        options = sums[epoch, i]
        targets.append(options[k % len(options)])
    windows = windows or PlantWindows(len(lanes), size)
    ladder = recipe_ladder(tuple(recipes_with(targets)), binw)
    controller = ProductionController(config, routes, ladder, windows.windows)
    return controller, windows


class TestCertificate:
    @settings(max_examples=300, deadline=None)
    @given(certificate_runs())
    # the band ends on a bin edge at 0.1 g bins (max 0.5 g), so bin 4 is both
    # its last direct bin and its first trim bin, and a walk counts it twice:
    # one more fillet in bin 4 adds 2/min, and the walk that stopped after bin
    # 5 (at 7/min against 6/min) now stops before it
    @example((0.1, 60.0, 12, [["d0"]], [True], [("d0", 1, 2.0, 5.0, 3.0)],
              [[[(0.0, 2), (0.0, 3), (0.0, 4), (0.0, 5), (0.0, 5), (0.0, 5)]], [[]],
               [[(0.0, 4)]]],
              [(2, 4)]))
    # no fillet enters a band bin, but the span grows from 1 to 10 min: bin 1
    # falls from 2/min to 0.2/min, below the target of 0.3/min, and bin 2 joins
    @example((10.0, 0.5, 12, [["d0"]], [False], [("d0", 1, 1.0, 4.0, 0.0)],
              [[[(0.0, 1), (60.0, 1), (0.0, 2)]], [[(0.0, 12)]], [[(540.0, 12)]]],
              [(2, 2)]))
    def test_kept_strategies_equal_a_walk_at_every_epoch(self, run):
        controller, windows = certificate_controller(run)
        epochs = run[6]
        for batch in epochs:
            windows.weigh(batch, controller.watched)
            controller.recompute(0.0)
            assert in_order(controller.strategies) == in_order(controller.compute_strategies())
        assert controller.recomputes == len(epochs)

    @settings(max_examples=300, deadline=None)
    @given(certificate_runs())
    # bin 0 fills at epoch 4, where only the first controller recomputes: the
    # second, whose certificate is from epoch 3, must still see the flip at 6
    @example((0.1, 0.5, 1, [["d0"]], [False], [("d0", 1, 0.0, 1.0, 0.0)],
              [[[]], [[]], [[]], [[]], [[(0.0, 0)]], [[]], [[]]], [(4, 1)]))
    def test_controllers_sharing_windows_each_keep_a_walk(self, run):
        # one window per lane serves two controllers; the second recomputes at
        # every third epoch only, so its certificate outlives the first's walks
        controller, windows = certificate_controller(run)
        other, _ = certificate_controller(run, windows)
        for epoch, batch in enumerate(run[6]):
            windows.weigh(batch, controller.watched)
            for ctrl in (controller, other) if epoch % 3 == 0 else (controller,):
                ctrl.recompute(0.0)
                assert in_order(ctrl.strategies) == in_order(ctrl.compute_strategies())
        assert other.recomputes == (len(run[6]) + 2) // 3

    def test_unmoved_plant_windows_keep_the_strategy(self):
        # bin 10 alone predicts 4/min against a target of 3/min. The first walk
        # leaves no certificate, the second does, and nothing moves after it.
        windows = PlantWindows(1, 100)
        controller = ProductionController(
            ControllerConfig(window_size=100, bin_width_g=10.0, warmup_s=0.0),
            RouteCatalog({"a": frozenset({"d0", "strips"})}, {"a": True}),
            recipe_ladder((recipe("d0", 1, 3, 100, 200, 0), DEFAULT), 10.0),
            windows.windows,
        )
        windows.weigh([[(0.0, 10), (0.0, 11), (30.0, 10)]], controller.watched)
        window = windows.windows[0]
        tallies = (window.added, window.evicted, window.flips)
        for _ in range(5):
            controller.recompute(0.0)
            # only the plant writes the tallies
            assert (window.added, window.evicted, window.flips) == tallies
        assert list(controller.strategies["a"]) == [10]
        assert (controller.recomputes, controller.walks) == (5, 2)

    def test_reference_windows_walk_at_every_recompute(self):
        # the reference windows (`des_oracle.LaneWindow`) keep no tallies, so
        # no walk over them leaves a certificate
        lane = [(0.0, 105.0), (0.0, 115.0), (30.0, 105.0)]
        ctrl = make_controller({"a": lane}, [recipe("d0", 1, 3, 100, 200, 0), DEFAULT])
        for _ in range(5):
            ctrl.recompute(0.0)
        assert list(ctrl.strategies["a"]) == [10]
        assert (ctrl.recomputes, ctrl.walks) == (5, 5)

    def test_walk_that_rebuilds_the_strategy_keeps_the_object(self):
        # over the reference windows every recompute walks; with the windows
        # unchanged each walk rebuilds the strategy in force, which stays
        lane = [(0.0, 105.0), (0.0, 115.0), (30.0, 105.0)]
        ctrl = make_controller({"a": lane}, [recipe("d0", 1, 3, 100, 200, 0), DEFAULT])
        seen = []
        for _ in range(5):
            ctrl.recompute(0.0)
            seen.append(ctrl.strategies)
        assert (ctrl.recomputes, ctrl.walks) == (5, 5)
        assert all(strategies is seen[0] for strategies in seen)
        assert list(seen[0]["a"]) == [10]
