"""Seeded streams, the float fold, and the event calendar kept as the plant's test oracle.

`flowdse.kernel` keeps seed derivation and `left_sum`; the plant seeds each stream as
`random.Random(derive_seed(seed, label))`. The calendar tests check
`tests/des_oracle.py`'s `Kernel`, the engine the plant's sweep is held
against, so the reference itself stays checked.
"""

import random

import pytest
from hypothesis import given, strategies as st

from des_oracle import Kernel, ScheduleInPastError
from flowdse.kernel import derive_seed, left_sum


def record(log):
    def action(payload):
        log.append(payload)

    return action


class TestCalendarOrdering:
    def test_events_run_in_time_order(self):
        k = Kernel(horizon=100.0)
        log = []
        act = record(log)
        k.schedule(5.0, act, "b")
        k.schedule(1.0, act, "a")
        k.schedule(9.0, act, "c")
        assert k.run() == 3
        assert log == ["a", "b", "c"]

    def test_equal_times_run_in_insertion_order(self):
        k = Kernel(horizon=10.0)
        log = []
        act = record(log)
        for tag in "abcde":
            k.schedule(3.0, act, tag)
        k.run()
        assert log == list("abcde")

    def test_callables_never_compared(self):
        # lambdas are unorderable; the sequence number must break all ties
        k = Kernel(horizon=10.0)
        log = []
        k.schedule(1.0, lambda p: log.append("x"), None)
        k.schedule(1.0, lambda p: log.append("y"), None)
        k.run()
        assert log == ["x", "y"]

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=60,
        )
    )
    def test_matches_stable_sort_oracle(self, times):
        k = Kernel(horizon=2e6)
        log = []
        act = record(log)
        for idx, t in enumerate(times):
            k.schedule(t, act, (t, idx))
        k.run()
        assert log == sorted((t, i) for i, t in enumerate(times))
        assert [t for t, _ in log] == sorted(times)

    def test_actions_may_schedule_followups(self):
        k = Kernel(horizon=50.0)
        log = []

        def chain(n):
            log.append((k.now, n))
            if n < 4:
                k.schedule(k.now + 2.0, chain, n + 1)

        k.schedule(1.0, chain, 0)
        assert k.run() == 5
        assert log == [(1.0, 0), (3.0, 1), (5.0, 2), (7.0, 3), (9.0, 4)]


class TestClock:
    def test_clock_starts_at_zero(self):
        assert Kernel(horizon=1.0).now == 0.0

    def test_clock_advances_to_event_time(self):
        k = Kernel(horizon=10.0)
        k.schedule(4.5, lambda p: None)
        k.run()
        assert k.now == 4.5

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_clock_never_goes_backwards(self, times):
        k = Kernel(horizon=2e4)
        seen = []
        for t in times:
            k.schedule(t, lambda p: seen.append(k.now))
        k.run()
        assert seen == sorted(seen)

    def test_schedule_in_past_fails_loudly(self):
        k = Kernel(horizon=10.0)
        k.schedule(5.0, lambda p: None)
        k.run()
        with pytest.raises(ScheduleInPastError):
            k.schedule(4.9, lambda p: None)

    def test_schedule_at_now_is_allowed(self):
        k = Kernel(horizon=10.0)
        log = []
        k.schedule(5.0, lambda p: k.schedule(5.0, record(log), "same-instant"))
        k.run()
        assert log == ["same-instant"]


class TestHorizon:
    def test_events_past_horizon_stay_pending(self):
        k = Kernel(horizon=10.0)
        log = []
        act = record(log)
        k.schedule(9.0, act, "in")
        k.schedule(10.0, act, "edge")
        k.schedule(10.0001, act, "out")
        assert k.run() == 2
        assert log == ["in", "edge"]
        assert k.pending() == 1

    def test_discard_pending_empties_the_calendar(self):
        k = Kernel(horizon=10.0)
        log = []
        k.schedule(10.0001, record(log), "out")
        k.run()
        k.discard_pending()
        assert k.pending() == 0
        assert log == []

    def test_run_until_partial_then_resume(self):
        k = Kernel(horizon=100.0)
        log = []
        act = record(log)
        for t in (1.0, 2.0, 3.0, 4.0):
            k.schedule(t, act, t)
        assert k.run(until=2.5) == 2
        assert log == [1.0, 2.0]
        assert k.run() == 2
        assert log == [1.0, 2.0, 3.0, 4.0]

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            Kernel(horizon=-1.0)

    def test_entity_ids_are_unique_and_ordered(self):
        k = Kernel(horizon=1.0)
        ids = [k.next_entity_id() for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]


class TestSeeding:
    def test_derive_seed_is_pure(self):
        assert derive_seed(42, "lane", 1) == derive_seed(42, "lane", 1)

    def test_derive_seed_fits_64_bits(self):
        for base in (0, 1, 2**64 - 1):
            s = derive_seed(base, "x")
            assert 0 <= s < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
    def test_distinct_labels_give_distinct_seeds(self, base, label):
        assert derive_seed(base, label, "a") != derive_seed(base, label, "b")

    def test_known_value_frozen(self):
        # regression pin: derivation must never change between releases,
        # or archived runs stop being reproducible
        assert derive_seed(42, "weights", 0) == 0x5C16E49A802FC003

    def test_streams_reproduce(self):
        a = random.Random(derive_seed(123, "weights:lane1"))
        b = random.Random(derive_seed(123, "weights:lane1"))
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_independent(self):
        a = random.Random(derive_seed(123, "weights:lane1"))
        b = random.Random(derive_seed(123, "weights:lane2"))
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


class TestLeftSum:
    def test_adds_left_to_right_without_compensation(self):
        # a compensated sum (Python 3.12's sum()) gives 2.0 here
        assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3

    def test_empty_total_is_zero_as_sum_gives_it(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int
