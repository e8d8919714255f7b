"""The Pareto filter that `flowdse.evaluator.ParetoFront` must agree with."""

from __future__ import annotations

from flowdse.evaluator import dominates


def brute_force_front(vectors) -> set[int]:
    """O(n^2) pairwise dominance filter; the reference the fast path must equal."""
    vectors = list(vectors)
    kept = set()
    for v in vectors:
        if not any(dominates(w.values, v.values) for w in vectors):
            kept.add(v.design_index)
    return kept
