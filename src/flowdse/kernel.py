"""Seeded random streams for reproducible replications.

Random streams are derived from a 64-bit base seed and a purpose label via
SHA-256, so identical (seed, label) pairs reproduce the same draw sequence in
any process, and adding a new stream never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any


def derive_seed(base_seed: int, *labels: Any) -> int:
    """Pure 64-bit seed derivation from a base seed and a label path.

    Stable across processes and platforms (no reliance on hash()).
    """
    text = ":".join([str(base_seed), *(str(part) for part in labels)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream(random.Random):
    """Seeded pseudo-random stream tagged with its purpose.

    Identical (base_seed, stream_id) pairs yield identical draw sequences, so
    each stochastic source (one per origin lane's weights, one per lane's
    arrivals) can be perturbed independently of all others.
    """

    def __new__(cls, base_seed: int, stream_id: str) -> "RandomStream":
        # random.Random.__new__ rejects a second positional argument
        return super().__new__(cls)

    def __init__(self, base_seed: int, stream_id: str) -> None:
        self.base_seed = base_seed
        self.stream_id = stream_id
        super().__init__(derive_seed(base_seed, stream_id))
