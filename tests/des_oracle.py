"""The plant engine as it ran before the streaming sweep, kept as a test oracle.

`Kernel` is the generic event calendar (virtual clock plus a heap ordered by
time and insertion sequence) and `PlantSimulation` the calendar-driven plant:
one event per fillet per arrival, weigh, assign, trim and absorb, and one per
recompute. Both are copied unchanged from `flowdse.kernel` and `flowdse.plant`
as they stood before `PlantSimulation.run` became a sweep; only the imports,
the seeding of the random streams (`random.Random(derive_seed(...))`, the
same draws), the controller, the band test (`accepts`, once a `Recipe`
method) and the weight draw (`sample`, once a method of each weight source)
differ. Tests run the same cell through both
and require identical tallies and trace rows.

The controller is a `ReferenceController`: the strategy builder of
`flowdse.controller` over reference windows (`LaneWindow`), with the weigh
and assign steps the sweep does inline, `record_weight` and `lookup`, as the
controller had them before its windows became views into the sweep's lists.
The controller tests run on it too.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from flowdse.controller import BinAssignment, ProductionController, recipe_ladder
from flowdse.designspace import (
    DesignConfiguration,
    DesignSpace,
    PlantBuildError,
    compile_design,
)
from flowdse.kernel import derive_seed, left_sum
from flowdse.plant import LaneRuntime, RoutingFault, RunTallies
from flowdse.scenario import EmpiricalWeights, Scenario


def sample(source, rng) -> float:
    """One weight from a scenario's weight source, as the engine drew one per
    arrival before it drew them a batch at a time (`draw`)."""
    if isinstance(source, EmpiricalWeights):
        return source.values[rng.randrange(len(source.values))]
    while True:
        w = rng.gauss(source.mean_g, source.stddev_g)
        if source.lower_g <= w <= source.upper_g:
            return w


def accepts(recipe, post_trim_weight_g: float) -> bool:
    """Whether a recipe's band, both ends included, holds a fillet's final weight."""
    return recipe.min_weight_g <= post_trim_weight_g <= recipe.max_weight_g


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


@dataclass
class LaneWindow:
    """Sliding window of the most recent weights on one lane, plus its histogram.

    `times`, `weights` and `bins` hold the retained samples, oldest first, and
    `counts` the number of them per bin.
    """

    lane: str
    window_size: int
    bin_width_g: float
    times: deque = field(init=False)
    weights: deque = field(init=False)
    bins: deque = field(init=False)
    counts: dict[int, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.times = deque(maxlen=self.window_size)
        self.weights = deque(maxlen=self.window_size)
        self.bins = deque(maxlen=self.window_size)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """The retained (time_s, weight_g) pairs, oldest first (a copy)."""
        return list(zip(self.times, self.weights))

    def bin_of(self, weight_g: float) -> int:
        return int(weight_g // self.bin_width_g)

    def record(self, weight_g: float, time_s: float) -> None:
        bins = self.bins
        if len(bins) == self.window_size:
            old_bin = bins[0]
            remaining = self.counts[old_bin] - 1
            if remaining:
                self.counts[old_bin] = remaining
            else:
                del self.counts[old_bin]
        new_bin = self.bin_of(weight_g)
        bins.append(new_bin)
        self.times.append(time_s)
        self.weights.append(weight_g)
        self.counts[new_bin] = self.counts.get(new_bin, 0) + 1

    def span_s(self) -> float:
        times = self.times
        if len(times) < 2:
            return 0.0
        return times[-1] - times[0]


class ReferenceController(ProductionController):
    """The strategy builder over one `LaneWindow` per lane, with the reference
    weigh (`record_weight`) and assign (`lookup`) steps. It keeps the routes
    and recipes it was built from, for the legacy strategy build to read."""

    def __init__(self, config, routes, recipes, heaviest_g=math.inf) -> None:
        windows = [
            LaneWindow(lane, config.window_size, config.bin_width_g) for lane in routes.lanes
        ]
        ladder = recipe_ladder(tuple(recipes), config.bin_width_g, heaviest_g)
        super().__init__(config, routes, ladder, windows)
        self.routes = routes
        self.recipes = list(recipes)

    def record_weight(self, lane: str, weight_g: float, time_s: float) -> None:
        self.windows[lane].record(weight_g, time_s)

    def lookup(self, lane: str, weight_g: float) -> BinAssignment:
        """Bin lookup for one fillet; unassigned bins fall to the default recipe."""
        strategy = self.strategies.get(lane)
        if strategy:
            hit = strategy.get(int(weight_g // self.config.bin_width_g))
            if hit is not None:
                return hit
        return self.default_assignment


@dataclass(slots=True)
class Fillet:
    fillet_id: int
    lane: str
    weight_g: float
    arrived_at: float
    assigned_tag: str | None = None
    recipe_index: int | None = None
    pending_trim_g: float | None = None
    trimmed_g: float = 0.0


class PlantSimulation:
    """One replication: kernel + controller + resolved routes + tallies."""

    def __init__(
        self,
        space: DesignSpace,
        config: DesignConfiguration,
        scenario: Scenario,
        seed: int,
        trace: bool = False,
    ) -> None:
        if len(scenario.inflow) != len(space.origins):
            raise PlantBuildError(
                f"scenario has {len(scenario.inflow)} inflow lanes, "
                f"space has {len(space.origins)} origins"
            )
        self.space = space
        self.config = config
        self.scenario = scenario
        self.seed = seed
        self.kernel = Kernel(horizon=scenario.horizon_s)
        design = compile_design(space, config)
        self.catalog = design.catalog
        self.controller = ReferenceController(
            scenario.controller, self.catalog, scenario.recipes
        )
        self.routes = design.routes
        self.default_tag = scenario.default_recipe.destination
        for lane, lane_routes in self.routes.items():
            if self.default_tag not in lane_routes:
                raise PlantBuildError(
                    f"lane {lane} cannot reach the default destination {self.default_tag!r}"
                )

        self.tallies = RunTallies(recipe_counts=[0] * len(scenario.recipes))
        self.live: dict[int, float] = {}  # fillet id -> current weight
        self.trace_rows: list[tuple] | None = [] if trace else None

        # scenario inflow entries feed origins positionally
        self.lane_runtimes: dict[str, LaneRuntime] = {}
        for (lane, compiled), inflow in zip(design.lanes.items(), scenario.inflow):
            runtime = LaneRuntime(
                lane=lane,
                rate_per_min=inflow.rate_per_min,
                sampler=inflow.weights,
                weights_rng=random.Random(derive_seed(seed, f"weights:{lane}")),
                arrivals_rng=(
                    random.Random(derive_seed(seed, f"arrivals:{lane}"))
                    if inflow.process == "poisson"
                    else None
                ),
                weigh_offset_s=compiled.weigh_offset_s,
                assign_offset_s=compiled.assign_offset_s,
                weigh_module=compiled.weigh_module,
                assign_module=compiled.assign_module,
            )
            self.lane_runtimes[lane] = runtime
            if runtime.arrivals_rng is None:
                first = 60.0 / runtime.rate_per_min
            else:
                first = runtime.arrivals_rng.expovariate(runtime.rate_per_min / 60.0)
            if first <= scenario.horizon_s:
                self.kernel.schedule(first, self._arrive, (runtime, 1))

        if scenario.controller.warmup_s <= scenario.horizon_s:
            self.kernel.schedule(scenario.controller.warmup_s, self._recompute)

    # -- fillet lifecycle ---------------------------------------------------

    def _arrive(self, payload) -> None:
        runtime, k = payload
        now = self.kernel.now
        fillet = Fillet(
            fillet_id=self.kernel.next_entity_id(),
            lane=runtime.lane,
            weight_g=sample(runtime.sampler, runtime.weights_rng),
            arrived_at=now,
        )
        t = self.tallies
        t.injected += 1
        t.injected_mass_g += fillet.weight_g
        self.live[fillet.fillet_id] = fillet.weight_g
        if self.trace_rows is not None:
            self._trace(now, runtime.lane, fillet, "arrive")
        self.kernel.schedule(now + runtime.weigh_offset_s, self._weigh, fillet)

        if runtime.arrivals_rng is None:
            nxt = (k + 1) * 60.0 / runtime.rate_per_min
        else:
            nxt = now + runtime.arrivals_rng.expovariate(runtime.rate_per_min / 60.0)
        if nxt <= self.kernel.horizon:
            self.kernel.schedule(nxt, self._arrive, (runtime, k + 1))

    def _weigh(self, fillet: Fillet) -> None:
        now = self.kernel.now
        self.controller.record_weight(fillet.lane, fillet.weight_g, now)
        runtime = self.lane_runtimes[fillet.lane]
        if self.trace_rows is not None:
            self._trace(now, runtime.weigh_module, fillet, "weigh")
        self.kernel.schedule(now + runtime.assign_offset_s, self._assign, fillet)

    def _assign(self, fillet: Fillet) -> None:
        now = self.kernel.now
        assignment = self.controller.lookup(fillet.lane, fillet.weight_g)
        fillet.assigned_tag = assignment.destination
        fillet.recipe_index = assignment.recipe_index
        route = self.routes[fillet.lane].get(assignment.destination)
        if route is None:
            raise RoutingFault(
                f"lane {fillet.lane} was assigned unreachable destination "
                f"{assignment.destination!r}"
            )
        if assignment.trim_g is not None:
            if route.trim_offset_s is None:
                raise RoutingFault(
                    f"trim instruction on lane {fillet.lane} but no trimmer on the "
                    f"route to {assignment.destination!r}"
                )
            fillet.pending_trim_g = assignment.trim_g
            # scheduled before the absorb event so an all-zero-latency tail
            # still trims first (insertion order breaks the time tie)
            self.kernel.schedule(now + route.trim_offset_s, self._trim, (fillet, route))
        if self.trace_rows is not None:
            self._trace(now, self.lane_runtimes[fillet.lane].assign_module, fillet, "assign")
            # a fillet cut at the trimmer gets a trim row there instead of an enter row
            cut_at = route.trimmer_id if assignment.trim_g is not None else None
            for module_id, offset in route.hops:
                if module_id != cut_at:
                    self._trace(now + offset, module_id, fillet, "enter")
        self.kernel.schedule(now + route.destination_offset_s, self._absorb, (fillet, route))

    def _trim(self, payload) -> None:
        fillet, route = payload
        instruction = fillet.pending_trim_g
        if instruction >= fillet.weight_g:
            raise RoutingFault(
                f"trim instruction {instruction} g >= fillet weight {fillet.weight_g} g"
            )
        fillet.weight_g -= instruction
        fillet.trimmed_g = instruction
        fillet.pending_trim_g = None
        self.tallies.trim_mass_g += instruction
        self.live[fillet.fillet_id] = fillet.weight_g
        if self.trace_rows is not None:
            self._trace(self.kernel.now, route.trimmer_id, fillet, "trim")

    def _absorb(self, payload) -> None:
        fillet, route = payload
        if fillet.pending_trim_g is not None:
            raise RoutingFault(
                f"fillet {fillet.fillet_id} reached {route.destination_id} with an "
                f"unexecuted trim instruction"
            )
        t = self.tallies
        tag = fillet.assigned_tag
        t.counts[tag] = t.counts.get(tag, 0) + 1
        t.masses[tag] = t.masses.get(tag, 0.0) + fillet.weight_g
        t.recipe_counts[fillet.recipe_index] += 1
        recipe = self.scenario.recipes[fillet.recipe_index]
        if not recipe.is_default:
            if not accepts(recipe, fillet.weight_g) or fillet.trimmed_g > recipe.max_trim_g:
                t.band_violations += 1
        del self.live[fillet.fillet_id]
        if self.trace_rows is not None:
            self._trace(self.kernel.now, route.destination_id, fillet, "absorb")

    # -- control loop -------------------------------------------------------

    def _recompute(self, payload=None) -> None:
        now = self.kernel.now
        self.controller.recompute(now)
        nxt = now + self.scenario.controller.recompute_interval_s
        if nxt <= self.kernel.horizon:
            self.kernel.schedule(nxt, self._recompute)

    # -- results ------------------------------------------------------------

    def _trace(self, time_s: float, module_id: str, fillet: Fillet, action: str) -> None:
        self.trace_rows.append(
            (round(time_s, 9), module_id, fillet.fillet_id, round(fillet.weight_g, 6), action)
        )

    def run(self) -> RunTallies:
        self.kernel.run()
        # What is left on the calendar belongs to fillets still in flight at the
        # horizon (tallied from `live`) and never runs. Those events hold this
        # plant's bound handlers, a reference cycle that would keep a finished
        # plant and its controller's windows alive until the next full garbage
        # collection; dropping them lets the caller free it at once.
        self.kernel.discard_pending()
        t = self.tallies
        t.in_flight = len(self.live)
        t.in_flight_mass_g = left_sum(self.live.values())
        t.events = self.kernel.executed
        t.recomputes = self.controller.recomputes
        t.walks = self.controller.walks
        if self.trace_rows is not None:
            self.trace_rows.sort(key=lambda row: (row[0], row[2]))
        return t
