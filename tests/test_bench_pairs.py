"""`scripts/bench_pairs.py`'s summary on synthetic pairs: each metric is
flagged when the change's median is worse than the parent's by more than the
metric's bound, a gain is shown only when the change wins 9 of 10 pairs and
the medians differ by more than the parent's quartile spread, and failed
operations are shown out of those attempted."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "explore_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "fillets_per_s", "unit": "fillets/s", "better": "higher", "bound": 0.2},
]
STATES = {side: {"path": side, "head": "0" * 40, "dirty": False} for side in bench_pairs.SIDES}


def run(explore_s, fillets_per_s, failed=0):
    metrics = {"explore_s": explore_s, "fillets_per_s": fillets_per_s}
    return {
        "metrics": {name: {"value": value} for name, value in metrics.items()},
        "failed": failed,
        "attempted": 9,
    }


def summary(capsys, parent, change):
    pairs = [{"seed": seed, "parent": parent, "change": change} for seed in (1, 2, 3)]
    bench_pairs.summarise("w", pairs, STATES, [1, 2, 3], METRICS)
    return capsys.readouterr().out


def test_a_change_within_every_bound_is_not_flagged(capsys):
    # 15 % slower and 15 % fewer fillets: worse, but within the 20 % bounds
    out = summary(capsys, run(10.0, 100.0), run(11.5, 85.0))
    assert out.count("within its bound") == 2
    assert "PAST" not in out
    assert "+15.00% worse" in out
    assert "failed operations: parent 0/27, change 0/27" in out


def test_a_change_past_a_bound_is_flagged(capsys):
    # 25 % slower, and 10 % more fillets; one failed operation in each change run
    out = summary(capsys, run(10.0, 100.0), run(12.5, 110.0, failed=1))
    lines = out.splitlines()
    flags = [line for line in lines if "its bound" in line]
    assert flags[0].strip().startswith("PAST its bound") and "+25.00% worse" in flags[0]
    assert flags[1].strip().startswith("within its bound") and "-10.00% worse" in flags[1]
    assert "failed operations: parent 0/27, change 3/27" in out


def gain_line(capsys, parent_rates, change_rates):
    """The `fillets_per_s` gain line of a summary of the pairs given."""
    pairs = [
        {"seed": seed, "parent": run(10.0, p), "change": run(10.0, c)}
        for seed, (p, c) in enumerate(zip(parent_rates, change_rates))
    ]
    bench_pairs.summarise("w", pairs, STATES, list(range(len(pairs))), METRICS)
    lines = capsys.readouterr().out.splitlines()
    rate = next(i for i, line in enumerate(lines) if line.strip().startswith("fillets_per_s"))
    return lines[rate + 2].strip()


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_nine_wins_and_medians_far_apart_show_a_gain(capsys):
    # quartile spread 4.5; medians 104.5 and 124.5; the change loses pair 0
    change = [99.0] + [p + 20.0 for p in PARENT[1:]]
    line = gain_line(capsys, PARENT, change)
    assert line.startswith("gain shown: change better in 9/10")


def test_eight_wins_show_no_gain(capsys):
    change = [99.0, 100.0] + [p + 20.0 for p in PARENT[2:]]
    line = gain_line(capsys, PARENT, change)
    assert line.startswith("gain not shown: change better in 8/10")


def test_medians_inside_the_parent_spread_show_no_gain(capsys):
    # every pair won by 1, but the medians differ by 1 against a spread of 4.5
    line = gain_line(capsys, PARENT, [p + 1.0 for p in PARENT])
    assert line.startswith("gain not shown: change better in 10/10")
    assert "better by 1 " in line and "more than 4.5" in line
