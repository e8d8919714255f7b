"""Deterministic discrete-event core: virtual clock, event calendar, seeded streams.

A :class:`Kernel` owns one replication. It keeps a priority calendar ordered by
(time, insertion sequence), so events scheduled at the same instant execute in
the order they were scheduled. Time is real-valued seconds.

Random streams are derived from a 64-bit base seed and a purpose label via
SHA-256, so identical (seed, label) pairs reproduce the same draw sequence in
any process, and adding a new stream never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Any, Callable


class ScheduleInPastError(RuntimeError):
    """Raised when an event is scheduled before the current clock time."""


class Kernel:
    """Virtual clock plus time-ordered event calendar for one replication."""

    __slots__ = ("now", "horizon", "executed", "_heap", "_seq", "_ids")

    def __init__(self, horizon: float) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        self.now = 0.0
        self.horizon = float(horizon)
        self.executed = 0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._ids = 0

    def schedule(self, time: float, action: Callable[[Any], None], payload: Any = None) -> None:
        """Insert an event; equal-time events run in insertion order."""
        if time < self.now:
            raise ScheduleInPastError(
                f"cannot schedule at t={time} when clock is at t={self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, action, payload))
        self._seq += 1

    def next_entity_id(self) -> int:
        self._ids += 1
        return self._ids

    def run(self, until: float | None = None) -> int:
        """Execute all events with time <= until; returns the number executed.

        Events beyond the cut-off stay in the calendar, so the clock never
        passes `until` (and never passes the horizon).
        """
        cutoff = self.horizon if until is None else min(until, self.horizon)
        heap = self._heap
        count = 0
        while heap and heap[0][0] <= cutoff:
            time, _seq, action, payload = heapq.heappop(heap)
            self.now = time
            action(payload)
            count += 1
        self.executed += count
        return count

    def pending(self) -> int:
        return len(self._heap)

    def discard_pending(self) -> None:
        """Drop every event still on the calendar; they will never run."""
        self._heap.clear()


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
