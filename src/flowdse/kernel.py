"""Seed derivation for reproducible replications.

Every seed is derived from a 64-bit base seed and a label path via SHA-256:
a cell's seed from the batch seed and the cell's coordinates, and each of its
random streams (`random.Random(derive_seed(seed, label))`, one per lane's
weights and one per lane's Poisson arrivals) from the cell seed and the
stream's purpose. Identical (seed, label) pairs reproduce the same draw
sequence in any process, and adding a new stream never perturbs existing ones.

Float totals that reach an output go through `left_sum`, so that they do not
depend on the Python version either.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable


def derive_seed(base_seed: int, *labels: Any) -> int:
    """Pure 64-bit seed derivation from a base seed and a label path.

    Stable across processes and platforms (no reliance on hash()).
    """
    text = ":".join([str(base_seed), *(str(part) for part in labels)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def left_sum(values: Iterable[float]) -> float:
    """Add floats left to right, as `sum()` did up to Python 3.11.

    From 3.12 on, `sum()` of floats is compensated, which can change a
    total's last bits and so the outputs. Like `sum()`, the fold starts from
    the integer 0, so an empty total is still `0`.
    """
    total = 0
    for value in values:
        total += value
    return total
