"""Executable plant model: one design configuration run under one scenario.

Construction compiles the configuration once (`designspace.compile_design`):
per lane, the weighing and assignment modules with their offsets on the
trunk, and per reachable destination tag a route from the assignment module
with its cumulative latency, the first trimmer it passes and the hops. The
controller reads the same result as its route catalog.

Modules never block (in-line conveyors, unbounded occupancy) and destinations
absorb on arrival, so a fillet's times are fixed when it arrives: weigh at
arrival + weigh offset, assign at weigh + assign offset, trim and absorb at
assign + the route's offsets. Its fate depends only on its weight and on the
strategy in force at its assignment. `run` is therefore no event calendar but
a streaming sweep that reproduces one bit for bit: a calendar that runs
events by time, then in the order they were scheduled. Only arrivals (one
chain per lane) and recomputes schedule their own successors, so a heap of at
most lanes + 1 chain heads, keyed (time, rank of the scheduling event), gives
them in calendar order; that order numbers the fillets. Before recompute j at
e_j, each lane weighs, then assigns, the fillets whose weigh or assign comes
first, and the trims and absorptions timed before e_j are applied, sorted by
(time, assign time, weigh time, fillet id), their calendar order. At e_j
itself, a weigh comes first iff its fillet arrived before recompute j-1 ran
(recompute 0 is scheduled at construction, after every first arrival); an
assign iff its weigh ran before recompute j-1. Working memory is bounded by
the fillets in flight. Trace mode writes each fillet's rows as it goes,
including an `enter` row per hop, so the fused conveyor hops stay observable.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field

from flowdse.controller import ProductionController
from flowdse.designspace import (
    DesignConfiguration,
    DesignSpace,
    PlantBuildError,
    compile_design,
)
from flowdse.kernel import derive_seed
from flowdse.scenario import Scenario

# a sweep weighs and assigns what it can at least this often, in arrivals, so
# fillets do not pile up when recomputes are rare or absent
DRAIN_EVERY = 1024


class RoutingFault(RuntimeError):
    """An impossible routing or trim came out of the control layer (run-time bug)."""


@dataclass(slots=True)
class LaneRuntime:
    """Per-lane constants resolved at build time, consulted for every fillet."""

    lane: str
    rate_per_min: float
    sampler: object  # weight source with .sample(rng)
    weights_rng: random.Random
    arrivals_rng: random.Random | None  # None = deterministic arrivals
    weigh_offset_s: float  # origin arrival -> weighing arrival
    assign_offset_s: float  # weighing arrival -> assignment arrival
    weigh_module: str
    assign_module: str


@dataclass
class RunTallies:
    """Raw outcome of one replication, before scoring."""

    injected: int = 0
    injected_mass_g: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    masses: dict[str, float] = field(default_factory=dict)
    trim_mass_g: float = 0.0
    recipe_counts: list[int] = field(default_factory=list)
    band_violations: int = 0
    in_flight: int = 0
    in_flight_mass_g: float = 0.0
    events: int = 0
    recomputes: int = 0


class PlantSimulation:
    """One replication: controller + resolved routes + tallies."""

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
        design = compile_design(space, config)
        self.catalog = design.catalog
        self.controller = ProductionController(
            scenario.controller, self.catalog, scenario.recipes, scenario.heaviest_g
        )
        self.routes = design.routes
        self.default_tag = scenario.default_recipe.destination
        for lane, lane_routes in self.routes.items():
            if self.default_tag not in lane_routes:
                raise PlantBuildError(
                    f"lane {lane} cannot reach the default destination {self.default_tag!r}"
                )

        self.tallies = RunTallies(recipe_counts=[0] * len(scenario.recipes))
        self.trace_rows: list[tuple] | None = [] if trace else None

        # scenario inflow entries feed origins positionally
        self.lane_runtimes: dict[str, LaneRuntime] = {}
        for (lane, compiled), inflow in zip(design.lanes.items(), scenario.inflow):
            self.lane_runtimes[lane] = LaneRuntime(
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

    def run(self) -> RunTallies:
        horizon = self.scenario.horizon_s
        recipes = self.scenario.recipes
        lookup = self.controller.lookup
        record_weight = self.controller.record_weight
        trace = self.trace_rows
        t = self.tallies
        lanes = list(self.lane_runtimes.values())
        arrived = [deque() for _ in lanes]  # (id, weight, weigh time, assign time)
        weighed = [deque() for _ in lanes]
        trims: list[tuple] = []  # (time, assign time, weigh time, id, ...): calendar order
        absorbs: list[tuple] = []
        flushed = 0  # trims and absorptions applied

        def drain(e: float, a1: float, e1: float, a2: float) -> None:
            """Weigh, then assign, every fillet whose weigh or assign comes before
            recompute j, due at `e`. Ties at `e` (module doc) need a1 and a2, the
            fillets arrived when recomputes j-1 and j-2 ran, and e1, j-1's time."""
            for lane, waiting, ready in zip(lanes, arrived, weighed):
                lane_id = lane.lane
                while waiting:
                    fid, weight, w, _ = waiting[0]
                    if not (w < e or (w == e and fid <= a1)):
                        break
                    ready.append(waiting.popleft())
                    record_weight(lane_id, weight, w)
                    if trace is not None:
                        trace.append(
                            (round(w, 9), lane.weigh_module, fid, round(weight, 6), "weigh")
                        )
                routes = self.routes[lane_id]
                while ready:
                    fid, weight, w, s = ready[0]
                    if not (s < e or (s == e and (w < e1 or (w == e1 and fid <= a2)))):
                        break
                    ready.popleft()
                    assignment = lookup(lane_id, weight)
                    cut, tag = assignment.trim_g, assignment.destination
                    route = routes.get(tag)
                    if route is None:
                        raise RoutingFault(
                            f"lane {lane_id} was assigned unreachable destination {tag!r}"
                        )
                    final, trim_at = weight, math.inf
                    if cut is not None:
                        if route.trim_offset_s is None:
                            raise RoutingFault(
                                f"trim instruction on lane {lane_id} but no trimmer on the "
                                f"route to {tag!r}"
                            )
                        trim_at = s + route.trim_offset_s
                        if cut >= weight and trim_at <= horizon:
                            raise RoutingFault(
                                f"trim instruction {cut} g >= fillet weight {weight} g"
                            )
                        final = weight - cut
                        trims.append((trim_at, s, w, fid, cut, final, route.trimmer_id))
                    absorbs.append((s + route.destination_offset_s, s, w, fid,
                                    weight, final, trim_at, assignment, route))
                    if trace is not None:
                        trace.append(
                            (round(s, 9), lane.assign_module, fid, round(weight, 6), "assign")
                        )
                        # a fillet cut at the trimmer gets a trim row there instead of an enter row
                        cut_at = route.trimmer_id if cut is not None else None
                        trace.extend(
                            (round(s + offset, 9), module_id, fid, round(weight, 6), "enter")
                            for module_id, offset in route.hops
                            if module_id != cut_at
                        )

        def flush(bound: float) -> None:
            """Apply, in calendar order, the trims and absorptions timed before
            `bound`. Callers first assign every fillet that could add one."""
            nonlocal flushed
            trims.sort()
            n = 0
            for at, _, _, fid, cut, final, trimmer_id in trims:
                if not at < bound:
                    break
                n += 1
                t.trim_mass_g += cut
                if trace is not None:
                    trace.append((round(at, 9), trimmer_id, fid, round(final, 6), "trim"))
            del trims[:n]
            flushed += n
            absorbs.sort()
            n = 0
            for at, _, _, fid, _, final, _, assignment, route in absorbs:
                if not at < bound:
                    break
                n += 1
                tag = assignment.destination
                t.counts[tag] = t.counts.get(tag, 0) + 1
                t.masses[tag] = t.masses.get(tag, 0.0) + final
                t.recipe_counts[assignment.recipe_index] += 1
                recipe = recipes[assignment.recipe_index]
                if not recipe.is_default:
                    trimmed = assignment.trim_g or 0.0
                    if not recipe.accepts(final) or trimmed > recipe.max_trim_g:
                        t.band_violations += 1
                if trace is not None:
                    trace.append(
                        (round(at, 9), route.destination_id, fid, round(final, 6), "absorb")
                    )
            del absorbs[:n]
            flushed += n

        # chain heads: (time, rank of the event that scheduled it, lane index or
        # -1 for a recompute). Construction ranks below every event run: first
        # the lanes' first arrivals in lane order, then recompute 0.
        heads = []
        for i, lane in enumerate(lanes):
            if lane.arrivals_rng is None:
                first = 60.0 / lane.rate_per_min
            else:
                first = lane.arrivals_rng.expovariate(lane.rate_per_min / 60.0)
            if first <= horizon:
                heads.append((first, i - len(lanes) - 1, i))
        next_k = [2] * len(lanes)  # deterministic arrivals: index of the next one
        # the pending recompute j: its time e, and a1, e1, a2 as `drain` takes them;
        # with none left, everything up to the horizon comes first
        inf = math.inf
        warmup = self.scenario.controller.warmup_s
        if warmup <= horizon:
            heads.append((warmup, -1, -1))
            e, a1, e1, a2 = warmup, 0, -inf, 0
        else:
            e, a1, e1, a2 = horizon, inf, inf, inf
        heapq.heapify(heads)

        rank = 0  # chain events run
        fid = 0  # fillets arrived, and the id of the last one
        drained_at = 0
        while heads:
            now, _, i = heads[0]
            if i < 0:
                drain(e, a1, e1, a2)
                flush(now)
                self.controller.recompute(now)  # through the attribute: it may be wrapped
                nxt = now + self.scenario.controller.recompute_interval_s
                if nxt <= horizon:
                    heapq.heapreplace(heads, (nxt, rank, -1))
                    e, a1, e1, a2 = nxt, fid, now, a1
                else:
                    heapq.heappop(heads)
                    e, a1, e1, a2 = horizon, inf, inf, inf
            else:
                lane = lanes[i]
                fid += 1
                weight = lane.sampler.sample(lane.weights_rng)
                t.injected_mass_g += weight
                w = now + lane.weigh_offset_s
                arrived[i].append((fid, weight, w, w + lane.assign_offset_s))
                if trace is not None:
                    trace.append((round(now, 9), lane.lane, fid, round(weight, 6), "arrive"))
                if lane.arrivals_rng is None:
                    nxt = next_k[i] * 60.0 / lane.rate_per_min
                    next_k[i] += 1
                else:
                    nxt = now + lane.arrivals_rng.expovariate(lane.rate_per_min / 60.0)
                if nxt <= horizon:
                    heapq.heapreplace(heads, (nxt, rank, i))
                else:
                    heapq.heappop(heads)
                if fid - drained_at >= DRAIN_EVERY:
                    # after a drain, a fillet not yet assigned is assigned at or after
                    # e >= now, or arrives later: nothing before now is still to come
                    drain(e, a1, e1, a2)
                    flush(now)
                    drained_at = fid
            rank += 1
        drain(horizon, inf, inf, inf)
        flush(math.nextafter(horizon, inf))  # everything at or before the horizon

        # still in flight at the horizon, in fillet id order as injected
        live = [(f[0], f[1]) for queue in arrived + weighed for f in queue]
        live += [(f[3], f[5] if f[6] <= horizon else f[4]) for f in absorbs]
        live.sort()
        t.injected = fid
        t.in_flight = len(live)
        t.in_flight_mass_g = sum(weight for _, weight in live)
        weighs = fid - sum(map(len, arrived))
        t.events = rank + weighs + weighs - sum(map(len, weighed)) + flushed
        t.recomputes = self.controller.recomputes
        if trace is not None:
            trace.sort(key=lambda row: (row[0], row[2]))
        return t
