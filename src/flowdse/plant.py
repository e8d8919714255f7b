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
them in calendar order; that order numbers the fillets.

Each lane keeps its fillets in lists indexed by position in the lane: arrival,
weigh and assign time, weight and weight bin, drawn CHUNK arrivals ahead (a
lane's arrival and weight streams feed only that lane, in arrival order, so
drawing ahead draws the same values), and fillet ids, appended as fillets
arrive. The offsets are constants, so a lane weighs, and assigns, in arrival
order: two cursors per lane mark how far each has got. The controller's
window on the lane is a view into the same lists (`WindowView`). Each
fillet's bin is computed once; the weigh moves the window over it and the
assign looks it up in the lane's strategy, both inline. The prefix that the
assign cursor and the window have passed is dropped once it holds
DRAIN_EVERY fillets.

Before recompute j at e_j, each lane weighs, then assigns, the fillets whose
weigh or assign comes first. At e_j itself, a weigh comes first iff its
fillet arrived before recompute j-1 ran (recompute 0 is scheduled at
construction, after every first arrival); an assign iff its weigh ran before
recompute j-1. The integer tallies (counts, recipe counts, band violations)
are taken at assignment, for fillets absorbed by the horizon. The masses are
summed in calendar order: before e_j, the trims and absorptions timed before
it are applied sorted by (time, assign time, weigh time, fillet id). Working
memory is bounded by each lane's window, its fillets in flight, DRAIN_EVERY
passed ones and a chunk. Trace mode
writes each fillet's rows at its arrival, weigh and assignment, including an
`enter` row per hop, so the fused conveyor hops stay observable; the final
stable sort by (time, fillet id) puts them in calendar order.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

from flowdse.controller import ProductionController
from flowdse.designspace import (
    DesignConfiguration,
    DesignSpace,
    PlantBuildError,
    compile_design,
)
from flowdse.kernel import derive_seed, left_sum
from flowdse.scenario import Scenario

# a sweep weighs and assigns what it can at least this often, in arrivals, so
# fillets do not pile up when recomputes are rare or absent
DRAIN_EVERY = 1024
# a lane's arrivals and weights are drawn this many at a time
CHUNK = 256


class RoutingFault(RuntimeError):
    """An impossible routing or trim came out of the control layer (run-time bug)."""


@dataclass(slots=True)
class WindowView:
    """The controller's window on one lane: positions [lo, hi) of the lane's
    lists, its last `window_size` weighed fillets (`hi` is the weigh cursor),
    and `counts`, how many of them fall in each weight bin."""

    weigh_times: list
    lo: int = 0
    hi: int = 0
    counts: dict[int, int] = field(default_factory=dict)

    def span_s(self) -> float:
        """Time from the window's oldest weigh to its newest; 0.0 below two."""
        if self.hi - self.lo < 2:
            return 0.0
        return self.weigh_times[self.hi - 1] - self.weigh_times[self.lo]


@dataclass(slots=True)
class LaneRuntime:
    """Per-lane constants resolved at build time, consulted for every fillet."""

    lane: str
    rate_per_min: float
    sampler: object  # weight source with .sample(rng) and .draw(rng, n)
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
        self.config = config
        self.scenario = scenario
        design = compile_design(space, config)
        self.catalog = design.catalog
        windows = [WindowView([]) for _ in self.catalog.lanes]
        self.controller = ProductionController(
            scenario.controller, self.catalog, scenario.recipes, windows, scenario.heaviest_g
        )
        self.routes = design.routes
        default_tag = scenario.default_recipe.destination
        for lane, lane_routes in self.routes.items():
            if default_tag not in lane_routes:
                raise PlantBuildError(
                    f"lane {lane} cannot reach the default destination {default_tag!r}"
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
        scenario = self.scenario
        horizon = scenario.horizon_s
        inf = math.inf
        controller = self.controller
        bin_width = controller.config.bin_width_g
        chunk, drain_every = CHUNK, DRAIN_EVERY
        trace = self.trace_rows
        t = self.tallies
        recipe_counts = t.recipe_counts
        # per recipe index: None for the default, else what a band check reads
        bands = [
            None if r.is_default else (r.min_weight_g, r.max_weight_g, r.max_trim_g)
            for r in scenario.recipes
        ]
        lanes = list(self.lane_runtimes.values())
        n_lanes = len(lanes)
        windows = [controller.windows[lane.lane] for lane in lanes]
        # per lane, lists by position in the lane: arrival, weigh and assign
        # times, weight and bin, filled `chunk` arrivals ahead, and fillet ids,
        # appended on arrival; the weigh times are the window's own list
        columns = [([], window.weigh_times, [], [], [], []) for window in windows]
        # what a drain reads per lane, in one tuple
        flows = [
            (lane, self.routes[lane.lane], windows[i], *columns[i])
            for i, lane in enumerate(lanes)
        ]
        # cursors: positions assigned; positions weighed are each window's `hi`
        assigned = [0] * n_lanes
        next_k = [1] * n_lanes  # deterministic arrivals: index of the next one
        last_at = [0.0] * n_lanes  # Poisson arrivals: time of the last one drawn
        open_lanes = [True] * n_lanes  # arrivals left before the horizon
        counts: dict[str, int] = {}
        trims: list[tuple] = []  # (time, assign time, weigh time, id, cut): calendar order
        absorbs: list[tuple] = []  # (time, assign time, weigh time, id, tag, final mass)
        live: list[tuple] = []  # (id, mass) of fillets assigned but not absorbed by the horizon
        weighs = assigns = applied = 0  # events run by the drains and the flushes
        trim_mass = 0.0

        def refill(i: int) -> None:
            """Add up to `chunk` arrivals to lane i, none after the horizon."""
            lane = lanes[i]
            times, weigh_times, assign_times, weights, bins, _ = columns[i]
            start = len(times)
            rng = lane.arrivals_rng
            if rng is None:
                rate = lane.rate_per_min
                k = next_k[i]
                for k in range(k, k + chunk):
                    at = k * 60.0 / rate
                    if at > horizon:
                        open_lanes[i] = False
                        break
                    times.append(at)
                else:
                    k += 1
                next_k[i] = k
            else:
                # gaps drawn as `rng.expovariate(rate)` draws them
                uniform, rate = rng.random, lane.rate_per_min / 60.0
                at = last_at[i]
                for _ in range(chunk):
                    at = at + -math.log(1.0 - uniform()) / rate
                    if at > horizon:
                        open_lanes[i] = False
                        break
                    times.append(at)
                last_at[i] = at
            offset = lane.weigh_offset_s
            weigh = [at + offset for at in times[start:]]
            offset = lane.assign_offset_s
            drawn = lane.sampler.draw(lane.weights_rng, len(weigh))
            weigh_times += weigh
            assign_times += [w + offset for w in weigh]
            weights += drawn
            bins += [int(g // bin_width) for g in drawn]

        def drain(e: float, a1: float, e1: float, a2: float) -> None:
            """Weigh, then assign, every fillet whose weigh or assign comes before
            recompute j, due at `e`. Ties at `e` (module doc) need a1 and a2, the
            fillets arrived when recomputes j-1 and j-2 ran, and e1, j-1's time."""
            nonlocal weighs, assigns
            strategies = controller.strategies
            default = controller.default_assignment
            window_size = controller.config.window_size
            for i, flow in enumerate(flows):
                (lane, lane_routes, window,
                 _, lane_weighs, lane_assigns, lane_weights, lane_bins, lane_ids) = flow
                # weigh: times are sorted, and equal times run in id order
                start, n = window.hi, len(lane_ids)
                end = bisect_left(lane_weighs, e, start, n)
                while end < n and lane_weighs[end] == e and lane_ids[end] <= a1:
                    end += 1
                if end > start:
                    # the window moves from [lo, start) to [new_lo, end): count
                    # out the bins it leaves, then count in the bins it gains
                    window_counts = window.counts
                    lo = window.lo
                    new_lo = max(lo, end - window_size)
                    for b in lane_bins[lo:min(new_lo, start)]:
                        left = window_counts[b] - 1
                        if left:
                            window_counts[b] = left
                        else:
                            del window_counts[b]
                    get = window_counts.get
                    for b in lane_bins[max(start, new_lo):end]:
                        window_counts[b] = get(b, 0) + 1
                    window.lo, window.hi = new_lo, end
                    if trace is not None:
                        module = lane.weigh_module
                        trace.extend(
                            (round(lane_weighs[p], 9), module, lane_ids[p],
                             round(lane_weights[p], 6), "weigh")
                            for p in range(start, end)
                        )
                    weighs += end - start

                # assign, from the weighed fillets; equal assign times run in
                # weigh order, then id order (module doc)
                start, n = assigned[i], window.hi
                end = bisect_left(lane_assigns, e, start, n)
                while end < n and lane_assigns[end] == e and (
                    lane_weighs[end] < e1 or (lane_weighs[end] == e1 and lane_ids[end] <= a2)
                ):
                    end += 1
                if end == start:
                    continue
                lane_id = lane.lane
                strategy = strategies.get(lane_id)
                lookup = strategy.get if strategy else {}.get
                for p in range(start, end):
                    assignment = lookup(lane_bins[p], default)
                    tag = assignment.destination
                    route = lane_routes.get(tag)
                    if route is None:
                        raise RoutingFault(
                            f"lane {lane_id} was assigned unreachable destination {tag!r}"
                        )
                    s = lane_assigns[p]
                    weight = lane_weights[p]
                    cut = assignment.trim_g
                    absorb_at = s + route.destination_offset_s
                    trim_at = inf
                    if cut is None:
                        final = weight
                    else:
                        if route.trim_offset_s is None:
                            raise RoutingFault(
                                f"trim instruction on lane {lane_id} but no trimmer on the "
                                f"route to {tag!r}"
                            )
                        trim_at = s + route.trim_offset_s
                        final = weight - cut
                        if trim_at <= horizon:
                            if cut >= weight:
                                raise RoutingFault(
                                    f"trim instruction {cut} g >= fillet weight {weight} g"
                                )
                            trims.append((trim_at, s, lane_weighs[p], lane_ids[p], cut))
                    if absorb_at <= horizon:
                        absorbs.append((absorb_at, s, lane_weighs[p], lane_ids[p], tag, final))
                        counts[tag] = counts.get(tag, 0) + 1
                        index = assignment.recipe_index
                        recipe_counts[index] += 1
                        band = bands[index]
                        if band is not None:
                            trimmed = cut or 0.0
                            if not band[0] <= final <= band[1] or trimmed > band[2]:
                                t.band_violations += 1
                    else:
                        live.append((lane_ids[p], final if trim_at <= horizon else weight))
                    if trace is not None:
                        fid, shown = lane_ids[p], round(weight, 6)
                        trace.append((round(s, 9), lane.assign_module, fid, shown, "assign"))
                        # a fillet cut at the trimmer gets a trim row there instead of an enter row
                        cut_at = route.trimmer_id if cut is not None else None
                        trace.extend(
                            (round(s + offset, 9), module_id, fid, shown, "enter")
                            for module_id, offset in route.hops
                            if module_id != cut_at
                        )
                        # the final sort by (time, id) is stable: these stay after
                        # the rows above, trim before absorb, as the calendar ran them
                        if trim_at <= horizon:
                            trace.append(
                                (round(trim_at, 9), route.trimmer_id, fid, round(final, 6), "trim")
                            )
                        if absorb_at <= horizon:
                            trace.append(
                                (round(absorb_at, 9), route.destination_id, fid,
                                 round(final, 6), "absorb")
                            )
                assigns += end - start
                # drop the prefix that the assign cursor and the window have passed
                drop = min(end, window.lo)
                if drop >= drain_every:
                    for column in flow[3:]:
                        del column[:drop]
                    window.lo -= drop
                    window.hi -= drop
                    end -= drop
                assigned[i] = end

        def flush(bound: float) -> None:
            """Add, in calendar order, the masses trimmed and absorbed before
            `bound`. Callers first assign every fillet that could add one."""
            nonlocal applied, trim_mass
            if trims:
                trims.sort()
                n = bisect_left(trims, (bound,))
                for item in islice(trims, n):
                    trim_mass += item[4]
                del trims[:n]
                applied += n
            if absorbs:
                absorbs.sort()
                n = bisect_left(absorbs, (bound,))
                masses = t.masses
                for _, _, _, _, tag, final in islice(absorbs, n):
                    masses[tag] = masses.get(tag, 0.0) + final
                del absorbs[:n]
                applied += n

        # chain heads: (time, rank of the event that scheduled it, lane index or
        # -1 for a recompute). Construction ranks below every event run: first
        # the lanes' first arrivals in lane order, then recompute 0.
        heads = []
        for i in range(n_lanes):
            refill(i)
            times = columns[i][0]
            if times:
                heads.append((times[0], i - n_lanes - 1, i))
        # the pending recompute j: its time e, and a1, e1, a2 as `drain` takes them;
        # with none left, everything up to the horizon comes first
        warmup = scenario.controller.warmup_s
        interval = scenario.controller.recompute_interval_s
        if warmup <= horizon:
            heads.append((warmup, -1, -1))
            e, a1, e1, a2 = warmup, 0, -inf, 0
        else:
            e, a1, e1, a2 = horizon, inf, inf, inf
        heapq.heapify(heads)

        heapreplace, heappop = heapq.heapreplace, heapq.heappop
        rank = 0  # chain events run
        fid = 0  # fillets arrived, and the id of the last one
        injected_mass = 0.0
        drained_at = 0
        while heads:
            now, _, i = heads[0]
            if i < 0:
                drain(e, a1, e1, a2)
                flush(now)
                controller.recompute(now)  # through the attribute: it may be wrapped
                nxt = now + interval
                if nxt <= horizon:
                    heapreplace(heads, (nxt, rank, -1))
                    e, a1, e1, a2 = nxt, fid, now, a1
                else:
                    heappop(heads)
                    e, a1, e1, a2 = horizon, inf, inf, inf
            else:
                fid += 1
                times, _, _, lane_weights, _, lane_ids = columns[i]
                p = len(lane_ids)
                lane_ids.append(fid)
                weight = lane_weights[p]
                injected_mass += weight
                if trace is not None:
                    trace.append((round(now, 9), lanes[i].lane, fid, round(weight, 6), "arrive"))
                p += 1
                if p == len(times) and open_lanes[i]:
                    refill(i)
                if p < len(times):
                    heapreplace(heads, (times[p], rank, i))
                else:
                    heappop(heads)
                if fid - drained_at >= drain_every:
                    # after a drain, a fillet not yet assigned is assigned at or after
                    # e >= now, or arrives later: nothing before now is still to come
                    drain(e, a1, e1, a2)
                    flush(now)
                    drained_at = fid
            rank += 1
        drain(horizon, inf, inf, inf)
        flush(math.nextafter(horizon, inf))  # everything at or before the horizon

        # still in flight at the horizon, in fillet id order as injected
        for i in range(n_lanes):
            *_, weights, _, ids = columns[i]
            live += zip(ids[assigned[i]:], weights[assigned[i]:])
        live.sort()
        t.injected = fid
        t.injected_mass_g = injected_mass
        t.trim_mass_g = trim_mass
        # counted at assignment, keyed in the calendar's order, which `masses` kept
        t.counts = {tag: counts[tag] for tag in t.masses}
        t.in_flight = len(live)
        t.in_flight_mass_g = left_sum(mass for _, mass in live)
        t.events = rank + weighs + assigns + applied
        t.recomputes = controller.recomputes
        if trace is not None:
            trace.sort(key=lambda row: (row[0], row[2]))
        return t
