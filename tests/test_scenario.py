import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from des_oracle import accepts, sample
from flowdse.kernel import derive_seed
from flowdse.scenario import (
    MAX_WEIGHT_BINS,
    EmpiricalWeights,
    Recipe,
    ScenarioError,
    TruncatedNormalWeights,
    compatibility_issues,
    load_scenario,
    load_weight_samples,
    parse_scenario,
)

DATA = Path(__file__).parent.parent / "src" / "flowdse" / "data"


def minimal_raw(**overrides):
    raw = {
        "id": "t",
        "recipes": [
            {
                "destination": "a",
                "priority": 1,
                "target_throughput_per_min": 10,
                "min_fillet_weight_g": 100,
                "max_fillet_weight_g": 200,
                "max_trim_weight_g": 50,
            },
            {
                "destination": "rest",
                "priority": "*",
                "target_throughput_per_min": "*",
                "min_fillet_weight_g": 0,
                "max_fillet_weight_g": 1000,
                "max_trim_weight_g": 0,
            },
        ],
        "inflow": [
            {
                "lane": "lane1",
                "rate_per_min": 60,
                "weights": {
                    "kind": "truncated_normal",
                    "mean_g": 200,
                    "stddev_g": 40,
                    "lower_g": 50,
                    "upper_g": 500,
                },
            }
        ],
        "horizon_s": 600,
    }
    raw.update(overrides)
    return raw


class TestBundledScenarios:
    """The two shipped scenario files, cell by cell."""

    # (destination, priority, target/min, min g, max g, max trim g)
    SCENARIO1 = [
        ("batching1", 1, 60, 100, 200, 50),
        ("batching2", 2, 60, 150, 200, 100),
        ("burger", 3, 30, 200, 300, 100),
        ("schnitzel", 4, 30, 250, 350, 50),
        ("fillet_strips", None, None, 0, 1000, 0),
    ]
    SCENARIO2 = [
        ("batching1", 3, 30, 100, 200, 50),
        ("batching2", 4, 30, 150, 200, 100),
        ("burger", 1, 60, 200, 300, 100),
        ("schnitzel", 2, 60, 250, 350, 50),
        ("fillet_strips", None, None, 0, 1000, 0),
    ]

    @pytest.mark.parametrize(
        "filename,table",
        [("scenario1.json", SCENARIO1), ("scenario2.json", SCENARIO2)],
        ids=["scenario1", "scenario2"],
    )
    def test_recipe_tables(self, filename, table):
        scenario = load_scenario(DATA / filename)
        assert len(scenario.recipes) == len(table)
        for recipe, row in zip(scenario.recipes, table):
            assert recipe.destination == row[0]
            assert recipe.priority == row[1]
            assert recipe.target_per_min == row[2]
            assert recipe.min_weight_g == row[3]
            assert recipe.max_weight_g == row[4]
            assert recipe.max_trim_g == row[5]

    def test_scenarios_differ_only_in_priorities_and_targets(self):
        s1 = load_scenario(DATA / "scenario1.json")
        s2 = load_scenario(DATA / "scenario2.json")
        for r1, r2 in zip(s1.recipes, s2.recipes):
            assert r1.destination == r2.destination
            assert r1.min_weight_g == r2.min_weight_g
            assert r1.max_weight_g == r2.max_weight_g
            assert r1.max_trim_g == r2.max_trim_g
        assert s1.inflow == s2.inflow
        assert s1.horizon_s == s2.horizon_s == 3600
        assert [r.priority for r in s1.recipes[:4]] == [1, 2, 3, 4]
        assert [r.priority for r in s2.recipes[:4]] == [3, 4, 1, 2]
        assert [r.target_per_min for r in s2.recipes[:4]] == [30, 30, 60, 60]

    def test_controller_defaults(self):
        c = load_scenario(DATA / "scenario1.json").controller
        assert c.window_size == 1000
        assert c.recompute_interval_s == 10
        assert c.bin_width_g == 10
        assert c.warmup_s == 60

    def test_four_lanes_at_case_study_rate(self):
        s1 = load_scenario(DATA / "scenario1.json")
        assert len(s1.inflow) == 4
        total_per_hour = sum(lane.rate_per_min for lane in s1.inflow) * 60
        assert total_per_hour == pytest.approx(13008)


class TestValidation:
    def test_empty_recipe_list_rejected(self):
        with pytest.raises(ScenarioError, match="empty"):
            parse_scenario(minimal_raw(recipes=[]), base_dir=Path("."))

    def test_missing_default_recipe_rejected(self):
        raw = minimal_raw()
        raw["recipes"] = raw["recipes"][:1]
        with pytest.raises(ScenarioError, match="default"):
            parse_scenario(raw, base_dir=Path("."))

    def test_two_default_recipes_rejected(self):
        raw = minimal_raw()
        raw["recipes"].append(dict(raw["recipes"][1], destination="other"))
        with pytest.raises(ScenarioError, match="default"):
            parse_scenario(raw, base_dir=Path("."))

    def test_default_with_trim_rejected(self):
        raw = minimal_raw()
        raw["recipes"][1]["max_trim_weight_g"] = 10
        with pytest.raises(ScenarioError, match="trim"):
            parse_scenario(raw, base_dir=Path("."))

    def test_min_not_below_max_rejected(self):
        raw = minimal_raw()
        raw["recipes"][0]["min_fillet_weight_g"] = 200
        with pytest.raises(ScenarioError, match="min < max"):
            parse_scenario(raw, base_dir=Path("."))

    def test_negative_trim_rejected(self):
        raw = minimal_raw()
        raw["recipes"][0]["max_trim_weight_g"] = -1
        with pytest.raises(ScenarioError):
            parse_scenario(raw, base_dir=Path("."))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_fillet_weight_g", float("inf"), "min < max < inf"),
            ("max_trim_weight_g", float("inf"), "max trim weight"),
            ("max_trim_weight_g", float("nan"), "max trim weight"),
        ],
    )
    def test_non_finite_weight_limits_rejected(self, field, value, message):
        # an unbounded band or trim allowance has no last bin for the controller
        raw = minimal_raw()
        raw["recipes"][0][field] = value
        with pytest.raises(ScenarioError, match=f"recipes\\[0\\]: .*{message}"):
            parse_scenario(raw, base_dir=Path("."))

    def test_zero_target_rejected(self):
        raw = minimal_raw()
        raw["recipes"][0]["target_throughput_per_min"] = 0
        with pytest.raises(ScenarioError, match="positive"):
            parse_scenario(raw, base_dir=Path("."))

    def test_non_default_star_target_rejected(self):
        raw = minimal_raw()
        raw["recipes"][0]["target_throughput_per_min"] = "*"
        with pytest.raises(ScenarioError):
            parse_scenario(raw, base_dir=Path("."))

    def test_duplicate_priorities_warn_but_load(self, caplog):
        raw = minimal_raw()
        raw["recipes"].insert(
            1, dict(raw["recipes"][0], destination="b")
        )
        with caplog.at_level("WARNING"):
            scenario = parse_scenario(raw, base_dir=Path("."))
        assert "duplicate recipe priorities" in caplog.text
        assert len(scenario.recipes) == 3

    def test_missing_horizon_rejected(self):
        raw = minimal_raw()
        del raw["horizon_s"]
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(raw, base_dir=Path("."))

    def test_duplicate_lane_rejected(self):
        raw = minimal_raw()
        raw["inflow"].append(dict(raw["inflow"][0]))
        with pytest.raises(ScenarioError, match="duplicate lane"):
            parse_scenario(raw, base_dir=Path("."))

    def test_unknown_weight_kind_rejected(self):
        raw = minimal_raw()
        raw["inflow"][0]["weights"] = {"kind": "lognormal"}
        with pytest.raises(ScenarioError, match="weight source"):
            parse_scenario(raw, base_dir=Path("."))

    def test_bad_controller_block_rejected(self):
        raw = minimal_raw(controller={"N": 0})
        with pytest.raises(ScenarioError, match="controller"):
            parse_scenario(raw, base_dir=Path("."))

    def test_not_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(bad)


class TestWeightSamples:
    def test_loads_one_value_per_line(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("120\n130.5\n\n140\n")
        assert load_weight_samples(f) == (120.0, 130.5, 140.0)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("")
        with pytest.raises(ScenarioError, match="empty"):
            load_weight_samples(f)

    def test_non_numeric_rejected(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("120\nabc\n")
        with pytest.raises(ScenarioError, match="entry 2"):
            load_weight_samples(f)

    def test_non_positive_rejected(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("120\n0\n")
        with pytest.raises(ScenarioError, match="positive"):
            load_weight_samples(f)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, token):
        f = tmp_path / "w.txt"
        f.write_text(f"120\n{token}\n")
        with pytest.raises(ScenarioError, match="entry 2: weights must be positive and finite"):
            load_weight_samples(f)

    @pytest.mark.parametrize("kind", ["truncated_normal", "empirical"])
    def test_heaviest_weight_may_span_at_most_max_weight_bins(self, tmp_path, kind):
        # 10 g bins: 1e6 g spans exactly MAX_WEIGHT_BINS of them
        assert MAX_WEIGHT_BINS == 1e5
        key = {"truncated_normal": "upper_g", "empirical": "file"}[kind]
        for heaviest, refused in ((1e6, False), (2e6, True)):
            raw = minimal_raw(controller={"bin_width_g": 10})
            if kind == "empirical":
                (tmp_path / "weights.txt").write_text(f"100\n{heaviest!r}\n")
                raw["inflow"][0]["weights"] = {"kind": "empirical", "file": "weights.txt"}
            else:
                raw["inflow"][0]["weights"]["upper_g"] = heaviest
            if not refused:
                assert parse_scenario(raw, base_dir=tmp_path).heaviest_g == heaviest
                continue
            with pytest.raises(ScenarioError) as err:
                parse_scenario(raw, base_dir=tmp_path)
            assert str(err.value) == (
                f"t.inflow[0].weights.{key}: heaviest weight 2e+06 g is 2e+05 bins "
                "of bin_width_g 10, more than 1e+05"
            )

    def test_empirical_draws_only_listed_values(self, tmp_path):
        (tmp_path / "weights.txt").write_text("100\n150.5\n200\n")
        raw = minimal_raw()
        raw["inflow"][0]["weights"] = {"kind": "empirical", "file": "weights.txt"}
        source = parse_scenario(raw, base_dir=tmp_path).inflow[0].weights
        assert source.values == (100.0, 150.5, 200.0)
        rng = random.Random(derive_seed(1, "w"))
        draws = {sample(source, rng) for _ in range(200)}
        assert draws == {100.0, 150.5, 200.0}


class TestTruncatedNormal:
    @given(st.integers(min_value=0, max_value=2**32))
    def test_samples_respect_bounds(self, seed):
        source = TruncatedNormalWeights(300, 60, 50, 400)
        rng = random.Random(derive_seed(seed, "w"))
        for _ in range(50):
            assert 50 <= sample(source, rng) <= 400

    def test_sampling_is_reproducible(self):
        source = TruncatedNormalWeights(300, 60, 50, 400)
        a = [sample(source, random.Random(derive_seed(5, "w"))) for _ in range(1)]
        b = [sample(source, random.Random(derive_seed(5, "w"))) for _ in range(1)]
        assert a == b

    def test_mean_roughly_matches_for_wide_bounds(self):
        source = TruncatedNormalWeights(300, 30, 50, 550)
        rng = random.Random(derive_seed(11, "w"))
        draws = [sample(source, rng) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert math.isclose(mean, 300, rel_tol=0.01)


    @pytest.mark.parametrize(
        "lower_z, upper_z, accepted",
        [(2.9, 10.0, True), (3.3, 10.0, False), (380.0, 430.0, False), (-430.0, -380.0, False)],
    )
    def test_bounds_must_hold_a_thousandth_of_the_mass(self, lower_z, upper_z, accepted):
        # mass of [2.9, 10] sd is 1.9e-3, of [3.3, 10] sd 4.8e-4, far tails 0
        raw = minimal_raw()
        raw["inflow"][0]["weights"].update(
            mean_g=500.0, stddev_g=1.0, lower_g=500.0 + lower_z, upper_g=500.0 + upper_z
        )
        if accepted:
            parse_scenario(raw, base_dir=Path("."))
        else:
            with pytest.raises(ScenarioError, match=r"inflow\[0\]\.weights: bounds"):
                parse_scenario(raw, base_dir=Path("."))


class TestCompatibility:
    def test_unknown_destination_reported(self):
        scenario = parse_scenario(minimal_raw(), base_dir=Path("."))
        issues = compatibility_issues(scenario, {"rest"}, ["o1"])
        assert len(issues) == 1
        assert "'a'" in issues[0]

    def test_lane_count_mismatch_reported(self):
        scenario = parse_scenario(minimal_raw(), base_dir=Path("."))
        issues = compatibility_issues(scenario, {"a", "rest"}, ["o1", "o2"])
        assert len(issues) == 1
        assert "origin" in issues[0]

    def test_clean_pairing_has_no_issues(self):
        scenario = parse_scenario(minimal_raw(), base_dir=Path("."))
        assert compatibility_issues(scenario, {"a", "rest"}, ["o1"]) == []


class TestRecipe:
    def test_accepts_is_inclusive_on_both_ends(self):
        r = Recipe("a", 1, 10, 100, 200, 0)
        assert accepts(r, 100) and accepts(r, 200)
        assert not accepts(r, 99.999) and not accepts(r, 200.001)

    def test_default_marker(self):
        assert Recipe("x", None, None, 0, 1000, 0).is_default
        assert not Recipe("x", 1, 5, 0, 1000, 0).is_default


class TestDraw:
    """`draw(rng, n)`, which the plant fills its lanes with, against n calls of
    `des_oracle.sample(source, rng)` on a twin generator: the same values, in
    the same order, and the generator left in the same state, however the n
    draws are split."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        source=st.one_of(
            st.builds(
                TruncatedNormalWeights,
                mean_g=st.just(300.0),
                stddev_g=st.sampled_from([1.0, 30.0, 60.0]),
                lower_g=st.sampled_from([50.0, 280.0, 300.0]),
                upper_g=st.sampled_from([310.0, 400.0, 1e9]),
            ),
            # bounds 2.9 to 3.2 sd above the mean: hundreds of rejections a draw
            st.just(TruncatedNormalWeights(500.0, 1.0, 502.9, 503.2)),
            st.builds(
                EmpiricalWeights,
                source_file=st.just("inline"),
                values=st.lists(st.floats(1.0, 900.0), min_size=1, max_size=40).map(tuple),
            ),
        ),
        seed=st.integers(0, 2**32),
        splits=st.lists(st.integers(0, 9), max_size=6),
    )
    def test_split_draws_equal_single_samples(self, source, seed, splits):
        drawn_rng = random.Random(derive_seed(seed, "w"))
        sampled_rng = random.Random(derive_seed(seed, "w"))
        drawn = []
        for n in splits:
            drawn += source.draw(drawn_rng, n)
        sampled = [sample(source, sampled_rng) for _ in range(sum(splits))]
        assert drawn == sampled
        # a following sample sees the same generator state
        assert sample(source, drawn_rng) == sample(source, sampled_rng)
