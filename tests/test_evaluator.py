import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowdse.controller import ControllerConfig
from flowdse.evaluator import (
    KpiVector,
    ParetoFront,
    dominates,
    result_columns,
    row_formatter,
    score,
    write_pareto_json,
    write_plot_csv,
    write_results_csv,
)
from flowdse.plant import RunTallies
from flowdse.scenario import LaneInflow, Recipe, Scenario, TruncatedNormalWeights, load_scenario
from pareto_oracle import brute_force_front

DATA = Path(__file__).parent.parent / "src" / "flowdse" / "data"


def two_recipe_scenario(horizon=3600.0):
    return Scenario(
        scenario_id="t",
        recipes=(
            Recipe("burger", 1, 60.0, 200.0, 300.0, 100.0),
            Recipe("schnitzel", 2, 30.0, 250.0, 350.0, 50.0),
            Recipe("fillet_strips", None, None, 0.0, 10_000.0, 0.0),
        ),
        inflow=(
            LaneInflow("lane", 54.0, TruncatedNormalWeights(280.0, 45.0, 80.0, 650.0)),
        ),
        horizon_s=horizon,
        controller=ControllerConfig(),
    )


def tallies_with(recipe_counts, injected=None):
    absorbed = sum(recipe_counts)
    return RunTallies(
        injected=injected if injected is not None else absorbed,
        injected_mass_g=absorbed * 250.0,
        counts={"burger": recipe_counts[0], "schnitzel": recipe_counts[1],
                "fillet_strips": recipe_counts[2]},
        masses={"burger": recipe_counts[0] * 250.0,
                "schnitzel": recipe_counts[1] * 300.0,
                "fillet_strips": recipe_counts[2] * 200.0},
        recipe_counts=list(recipe_counts),
    )


class TestScore:
    def test_attainment_is_achieved_over_target(self):
        record = score(tallies_with([1800, 900, 100]), two_recipe_scenario(), 0, 1)
        assert record["achieved_per_min_burger"] == 30.0
        assert record["attainment_burger"] == 0.5
        assert record["achieved_per_min_schnitzel"] == 15.0
        assert record["attainment_schnitzel"] == 0.5
        assert "attainment_fillet_strips" not in record
        assert record["kpi"] == 0.5

    def test_overshoot_clamps_to_one(self):
        record = score(tallies_with([5400, 0, 0]), two_recipe_scenario(), 0, 1)
        assert record["attainment_burger"] == 1.0
        assert record["kpi"] == 0.5

    def test_clamp_can_be_disabled(self):
        record = score(
            tallies_with([5400, 0, 0]), two_recipe_scenario(), 0, 1, clamp=False
        )
        assert record["attainment_burger"] == 1.5
        assert record["kpi"] == 0.75

    def test_nothing_absorbed_scores_zero(self):
        record = score(tallies_with([0, 0, 0]), two_recipe_scenario(), 0, 1)
        assert record["kpi"] == 0.0

    def test_kpi_averages_only_order_recipes(self):
        # default volume is irrelevant to the KPI
        a = score(tallies_with([1800, 900, 0]), two_recipe_scenario(), 0, 1)
        b = score(tallies_with([1800, 900, 9000]), two_recipe_scenario(), 0, 1)
        assert a["kpi"] == b["kpi"] == 0.5

    @given(
        counts=st.tuples(
            st.integers(0, 20000), st.integers(0, 20000), st.integers(0, 20000)
        )
    )
    def test_clamped_kpi_stays_in_the_unit_interval(self, counts):
        record = score(tallies_with(list(counts)), two_recipe_scenario(), 0, 1)
        assert 0.0 <= record["kpi"] <= 1.0

    def test_record_omits_attainment_for_the_default(self):
        record = score(tallies_with([1800, 900, 100]), two_recipe_scenario(), 7, 42)
        assert record["design"] == 7
        assert record["seed"] == 42
        assert record["attainment_burger"] == 0.5
        assert "attainment_fillet_strips" not in record
        assert record["count_burger"] == 1800
        assert record["mass_burger_g"] == 1800 * 250.0


class TestDominance:
    def test_strictly_better_everywhere(self):
        assert dominates((1.0, 1.0), (0.5, 0.5))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((0.5, 0.5), (0.5, 0.5))

    def test_trade_offs_are_incomparable(self):
        assert not dominates((1.0, 0.0), (0.0, 1.0))
        assert not dominates((0.0, 1.0), (1.0, 0.0))

    def test_better_in_one_equal_elsewhere(self):
        assert dominates((0.5, 0.6), (0.5, 0.5))


def vec(i, *values):
    return KpiVector(i, tuple(float(v) for v in values))


class TestParetoFront:
    def test_trade_off_triangle_all_kept(self):
        front = ParetoFront.from_vectors([vec(0, 1, 0), vec(1, 0, 1), vec(2, 0.5, 0.5)])
        assert front.design_indices() == {0, 1, 2}

    def test_dominated_vector_rejected(self):
        front = ParetoFront.from_vectors([vec(0, 1, 1), vec(1, 0.5, 0.5)])
        assert front.design_indices() == {0}

    def test_later_dominator_evicts_earlier_members(self):
        front = ParetoFront()
        assert front.add(vec(0, 0.5, 0.5))
        assert front.add(vec(1, 1, 1))
        assert front.design_indices() == {1}

    def test_adding_a_dominated_vector_changes_nothing(self):
        front = ParetoFront.from_vectors([vec(0, 1, 0), vec(1, 0, 1)])
        before = list(front.members)
        assert not front.add(vec(2, 0.0, 0.5))
        assert front.members == before

    def test_exact_ties_are_all_kept(self):
        front = ParetoFront.from_vectors([vec(0, 0.7, 0.7), vec(1, 0.7, 0.7)])
        assert front.design_indices() == {0, 1}

    def test_single_objective_keeps_the_max(self):
        front = ParetoFront.from_vectors([vec(i, i / 10) for i in range(10)])
        assert front.design_indices() == {9}

    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1, allow_nan=False),
                min_size=2,
                max_size=3,
            ),
            max_size=40,
        ).filter(lambda rows: len({len(r) for r in rows}) <= 1)
    )
    def test_incremental_front_equals_pairwise_filter(self, rows):
        vectors = [KpiVector(i, tuple(r)) for i, r in enumerate(rows)]
        front = ParetoFront.from_vectors(vectors)
        assert front.design_indices() == brute_force_front(vectors)

    def test_thousand_fixed_random_sets_match_the_filter(self):
        import random

        rng = random.Random(0xF00D)
        for _ in range(1000):
            n = rng.randrange(1, 30)
            dims = rng.randrange(1, 4)
            vectors = [
                KpiVector(i, tuple(rng.choice([0.0, 0.2, 0.5, 0.8, 1.0, rng.random()])
                                   for _ in range(dims)))
                for i in range(n)
            ]
            front = ParetoFront.from_vectors(vectors)
            assert front.design_indices() == brute_force_front(vectors)


class TestWriters:
    def test_bundled_scenarios_produce_a_stable_header(self):
        scenarios = [load_scenario(DATA / "scenario1.json"), load_scenario(DATA / "scenario2.json")]
        columns = result_columns(scenarios)
        assert columns[:4] == ["design", "scenario", "seed", "kpi"]
        assert "attainment_burger" in columns
        assert "attainment_fillet_strips" not in columns
        assert "count_fillet_strips" in columns
        assert len(columns) == len(set(columns))

    @staticmethod
    def results_csv(path, records, columns):
        """results.csv of `records`, each formatted by `row_formatter`."""
        row = row_formatter(columns)
        write_results_csv(path, [row(record).encode() for record in records], columns)

    def test_results_csv_blank_fills_missing_columns(self, tmp_path):
        path = tmp_path / "results.csv"
        self.results_csv(
            path,
            [{"design": 0, "scenario": "s", "kpi": 0.5}],
            ["design", "scenario", "kpi", "count_burger"],
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"design": "0", "scenario": "s", "kpi": "0.5", "count_burger": ""}]

    def test_results_csv_ignores_stray_keys(self, tmp_path):
        path = tmp_path / "results.csv"
        self.results_csv(path, [{"design": 0, "mystery": 9}], ["design"])
        with open(path, newline="") as fh:
            assert list(csv.DictReader(fh)) == [{"design": "0"}]

    @given(
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=8, unique=True),
        st.lists(
            st.dictionaries(
                st.text(max_size=8),
                st.one_of(st.integers(), st.floats(), st.text(), st.none()),
                max_size=10,
            ),
            max_size=4,
        ),
    )
    def test_row_formatter_writes_what_dict_writer_writes(self, columns, records):
        # the oracle: the writer results.csv was written with before the formatter
        row = row_formatter(columns)
        for record in records:
            # some of the columns as well as stray keys
            record = {**{c: record.get(c, 1.5) for c in columns[::2]}, **record}
            expected = io.StringIO()
            csv.DictWriter(expected, columns, restval="", extrasaction="ignore").writerow(record)
            assert row(record) == expected.getvalue()

    def test_row_formatter_quotes_a_scenario_id_with_a_comma_and_a_quote(self, tmp_path):
        columns = ["design", "scenario", "kpi", "count_burger"]
        record = {"design": 3, "scenario": 'north, "wet"', "kpi": 0.25, "mystery": 9}
        assert row_formatter(columns)(record) == '3,"north, ""wet""",0.25,\r\n'
        path = tmp_path / "results.csv"
        self.results_csv(path, [record], columns)
        with open(path, newline="") as fh:
            assert list(csv.DictReader(fh)) == [
                {"design": "3", "scenario": 'north, "wet"', "kpi": "0.25", "count_burger": ""}
            ]

    def test_plot_csv_marks_front_membership(self, tmp_path):
        vectors = [vec(0, 1, 0), vec(1, 0.2, 0.2), vec(2, 0.5, 0.5)]
        front = ParetoFront.from_vectors(vectors)
        path = tmp_path / "plot.csv"
        write_plot_csv(path, vectors, ["s1", "s2"], front)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["pareto_optimal"] for r in rows] == ["1", "0", "1"]
        assert rows[0]["kpi_s1"] == "1.0"
        assert [r["multiplicity"] for r in rows] == ["1", "1", "1"]

    def test_pareto_json_sorted_best_first(self, tmp_path):
        front = ParetoFront.from_vectors(
            [vec(3, 0.2, 0.9), vec(1, 0.9, 0.2), vec(2, 0.5, 0.5)]
        )
        path = tmp_path / "pareto.json"
        wiring = {1: (("a.out", "b.in"),), 2: (("a.out", "c.in"),), 3: (("a.out", "d.in"),)}
        write_pareto_json(path, front, ["s1", "s2"], wiring)
        doc = json.loads(path.read_text())
        assert doc["front_size"] == 3
        assert doc["distinct_designs"] == 3
        assert [m["design"] for m in doc["members"]] == [1, 2, 3]
        assert doc["members"][0]["kpi"] == {"s1": 0.9, "s2": 0.2}
        assert doc["members"][0]["wiring"] == [["a.out", "b.in"]]
