"""`scripts/bench_pairs.py`'s summary on synthetic pairs: each metric is
flagged when the change's median is worse than the parent's by more than the
metric's bound, and failed operations are shown out of those attempted."""

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
