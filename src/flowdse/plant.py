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
events by time, then in the order they were scheduled. The sweep has two
parts, the arrival calendar and its replay.

The arrival calendar (`calendar_runs`). Only arrivals (one chain per lane)
and recomputes schedule their own successors, so a heap of at most lanes + 1
chain heads, keyed (time, rank of the scheduling event), gives them in
calendar order; that order numbers the fillets. The calendar stops at each
recompute, every DRAIN_EVERY arrivals and at the end. It hands on the stops
and their arrivals a run at a time (`ArrivalCalendar`), a run ending at the
first stop by which it holds at least CHUNK arrivals a lane, so that the
replay pays its per-lane costs once a run, not once a stop. A lane's arrival
times are drawn CHUNK at a time, none after the horizon.

The memo. With every lane deterministic, the calendar depends only on the
lane rates, the horizon, the warm-up, the recompute interval and DRAIN_EVERY,
not on the design or the seed. The first cell of such a scenario stores in
`CALENDARS` the runs it streams, each in arrays (`ArrivalCalendar.compact`,
17 bytes an arrival and 17 a stop), and every later cell with the same key
replays them. The memo holds at most CALENDAR_MEMO_ARRIVALS arrivals and
stops in all, the stops estimated from the horizon, the recompute interval
and the arrivals; a calendar that would not fit is computed afresh in each
cell and never stored, and so is every calendar with a Poisson lane, whose
arrival times come from the cell's own stream.

The replay (`run`). Each lane keeps its fillets in lists indexed by position
in the lane, in two groups: the window group, weigh times and weight bins,
which the controller's window on the lane reads (`WindowView`) where a rung
reads the lane (below); and the assign group, assign times, weights and
fillet ids. At the start of each run the replay appends each lane's arrivals
in the run to its lists, computing their weigh and assign times and drawing
their weights and bins (a lane's weight stream feeds only that lane, in
arrival order, so drawing ahead draws the same values), and adds their
weights to the injected mass in calendar order.
Then at each stop it weighs the fillets due (`weigh`), and at a recompute
stop recomputes the strategies, which reads the windows. It assigns the
fillets due and adds the masses due (`assign`, `flush`) only at a recompute
that replaces the strategies, which a recompute does only when their content
changes, at each DRAIN_EVERY stop, which bounds the lists, and at the end.
The offsets are constants, so a lane weighs, and assigns, in arrival order:
the window's end and an assign cursor mark how far each has got. Each
fillet's bin is computed once; the weigh moves the window over it
(`WindowView.slide`, which also tallies what the controller's certificate
reads) and the assign looks it up in the lane's strategy, inline. The assign
group is dropped up to the assign cursor, and the window group up to the
window's start or the assign cursor, whichever comes first, each once the
part to drop holds DRAIN_EVERY fillets.

Where no bin can be claimed, the sweep skips the control work. On a lane that
no rung reads (`ProductionController.read_lanes`: it reaches no non-default
recipe's destination) the weigh moves only the cursor, and the window holds
nothing; no walk reads that window, so it reaches neither a strategy nor a
certificate, and the lane's strategy stays empty. An assign pass under an
empty strategy (on such a lane, on every lane before the first walk, and on a
lane a walk left empty) sends every fillet due to the default route in one
block, since every bin looks up the default there: the absorb times are the
assign times plus one offset, so they stay sorted and the horizon cuts them
with one bisection. The build checked that route, so the block raises no
RoutingFault. It adds the same absorb tuples and counts as the per-fillet loop.

Before recompute j at e_j, each lane weighs, then assigns, the fillets whose
weigh or assign comes first. At e_j itself, a weigh comes first iff its
fillet arrived before recompute j-1 ran (recompute 0 is scheduled at
construction, after every first arrival); an assign iff its weigh ran before
recompute j-1. So no fillet arriving at or after e_j is weighed or assigned
before e_j, and the lists may hold the rest of the run: an assign pass at a
DRAIN_EVERY stop may take some of those fillets early, but only ones that the
pass before e_j would take anyway, under the same strategy.

Skipping the assign pass at a recompute that keeps the strategies object is
exact: a fillet's fate depends only on its weight and on the strategy in
force at its assignment, which a kept recompute leaves in force, and the tie
rules make the cutoff only grow, so the next pass takes what a skipped one
would have. A recompute keeps the object both when its certificate holds and
when its walk rebuilds the strategies in force (`controller` module doc): the
content in force is the same either way. At a recompute that replaces the
strategies, that pass runs under the object the skipped stops kept, which the
walk left as it was. The integer tallies (counts, recipe counts, band violations) are taken at
assignment, for fillets absorbed by the horizon. The masses are summed in
calendar order: a flush at time `now` applies the trims and absorptions
timed before it, sorted by (time, assign time, weigh time, fillet id). One
added later is timed at or after its assignment, so at or after `now`, and a
skipped flush merges into the next without changing the order of the sum.

Working memory in `run` is bounded by each read lane's window (two lists), its
fillets in flight, those due since the last assign pass (fewer than
DRAIN_EVERY arrivals), DRAIN_EVERY passed ones, a run (fewer than CHUNK a
lane + DRAIN_EVERY arrivals) and the pass log (below). Passes run only at
strategy changes, which can be hundreds of recomputes apart, so the
DRAIN_EVERY stops alone bound the largest pass and the absorb and trim tuples
it holds until its flush, the peak of a long cell; a first cell that records
its calendar adds the record, 17 bytes an arrival and 17 a stop, to the memo.

The trace. Per lane, each assign pass logs the id of the last fillet it
assigned and the strategy it used, merged into the entry before if that holds
the same object. After the run, a traced plant rebuilds its rows from the log
(`_rebuild_rows`), with the lane streams reseeded and the calendar read again:
each fillet's `arrive` and `weigh` rows and, if a pass assigned it, under the
strategy of the first entry at or after its id, `assign`, an `enter` per hop,
`trim` and `absorb`. A stable sort by (time, fillet id) gives calendar order,
as rows that tie are one fillet's, already in order.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Sequence

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
# fillets do not pile up when recomputes are rare or absent or keep the
# strategy; this alone bounds the largest assign pass and its transient tuples
DRAIN_EVERY = 512
# a lane's arrival times are drawn this many at a time, and the replay takes
# arrivals in at least this many at a time
CHUNK = 256
# arrivals and stops the memo of deterministic calendars holds in all
# (`CALENDARS`, 17 bytes each); a calendar that would take it past this is
# computed in each cell
CALENDAR_MEMO_ARRIVALS = 1_000_000


class RoutingFault(RuntimeError):
    """An impossible routing or trim came out of the control layer (run-time bug)."""


@dataclass(slots=True)
class WindowView:
    """The controller's window on one lane: positions [lo, hi) of the lane's
    lists, its last `window_size` weighed fillets (`hi` is the weigh cursor),
    and `counts`, how many of them fall in each weight bin.

    It also keeps running totals, written only by `slide`, of the fillets it
    gained and evicted and of its presence flips (counts going 0 -> 1 or
    1 -> 0) among the controller's watched bins; a controller's certificate
    reads how far they moved since its walk (`controller` module doc)."""

    weigh_times: list
    lo: int = 0
    hi: int = 0
    counts: dict[int, int] = field(default_factory=dict)
    added: int = 0
    evicted: int = 0
    flips: int = 0

    def span_s(self) -> float:
        """Time from the window's oldest weigh to its newest; 0.0 below two."""
        if self.hi - self.lo < 2:
            return 0.0
        return self.weigh_times[self.hi - 1] - self.weigh_times[self.lo]

    def slide(self, bins: list, end: int, size: int, watched: range) -> None:
        """Move the window's end to lane position `end`, keeping the last `size`
        fillets: count out the bins it leaves, then count in the bins it gains
        (`bins`, the lane's weight bins by position), tallying as it goes."""
        counts = self.counts
        lo, start = self.lo, self.hi
        new_lo = max(lo, end - size)
        out = min(new_lo, start)  # fillets weighed now and gone already never count
        flips = 0
        for b in bins[lo:out]:
            left = counts[b] - 1
            if left:
                counts[b] = left
            else:
                del counts[b]
                if b in watched:
                    flips += 1
        get = counts.get
        gained = max(start, new_lo)
        for b in bins[gained:end]:
            count = get(b)
            if count:
                counts[b] = count + 1
            else:
                counts[b] = 1
                if b in watched:
                    flips += 1
        self.lo, self.hi = new_lo, end
        self.added += end - gained
        self.evicted += out - lo
        self.flips += flips


@dataclass(slots=True)
class LaneRuntime:
    """Per-lane constants resolved at build time, consulted for every fillet."""

    lane: str
    rate_per_min: float
    sampler: object  # weight source with .draw(rng, n)
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
    # recomputes that walked the recipe ladder: a cost of the engine, not an
    # outcome, so it stays out of the tallies' equality and repr
    walks: int = field(default=0, compare=False, repr=False)


@dataclass(slots=True)
class ArrivalCalendar:
    """One run of a calendar: a span of whole stops holding at least CHUNK
    arrivals a lane, but for the last run, whose arrivals the replay takes in
    at once.

    A stop is (fillets arrived by then, its time, whether it recomputes); the
    last stop of the last run is the end, at time inf. Per lane, `ids` and
    `times` hold the fillet ids and arrival times of the lane's arrivals in the
    run, which follow on from its arrivals in the run before; `order` holds
    each arrival's lane in calendar order; per stop, `fids`, `at` and
    `recomputes` hold its numbers. `calendar_runs` yields runs in lists, and
    the memo keeps them in arrays (`compact`)."""

    ids: list
    times: list
    order: Sequence[int]
    fids: Sequence[int]
    at: Sequence[float]
    recomputes: Sequence[bool]

    def compact(self) -> ArrivalCalendar:
        """This run in arrays: 17 bytes an arrival (with up to 256 lanes) and
        17 a stop."""
        n_lanes = len(self.ids)
        lane = "B" if n_lanes <= 1 << 8 else "H" if n_lanes <= 1 << 16 else "q"
        return ArrivalCalendar(
            [array("q", ids) for ids in self.ids], [array("d", times) for times in self.times],
            array(lane, self.order), array("q", self.fids), array("d", self.at),
            array("b", self.recomputes),
        )


# recorded calendars, as their runs, by (lane rates, horizon, warm-up,
# recompute interval, DRAIN_EVERY): each is a pure function of its key, so
# every cell may share it
CALENDARS: dict[tuple, tuple[ArrivalCalendar, ...]] = {}


def calendar_runs(lanes, horizon, warmup, interval, drain_every, chunk):
    """Compute the arrival calendar (module doc) and yield its runs, as
    ArrivalCalendars in lists. `lanes` are LaneRuntimes: their
    rates, and the arrival streams of the Poisson ones."""
    n_lanes = len(lanes)
    # per lane, arrival times drawn: those arrived in this run, then those to come
    ahead = [[] for _ in lanes]
    arrived = [0] * n_lanes  # per lane, how many of `ahead` have arrived
    next_k = [1] * n_lanes  # deterministic arrivals: index of the next one
    last_at = [0.0] * n_lanes  # Poisson arrivals: time of the last one drawn
    open_lanes = [True] * n_lanes  # arrivals left before the horizon

    def refill(i: int) -> bool:
        """Draw up to `chunk` more arrival times of lane i, none after the
        horizon; whether it drew any."""
        lane, times = lanes[i], ahead[i]
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
        return len(times) > arrived[i]

    # the run being gathered: each arrival's lane, per lane its fillet ids,
    # and per stop its numbers
    order: list[int] = []
    ids: list[list[int]] = [[] for _ in lanes]
    fids, stop_at, recomputes = [], [], []

    def cut() -> ArrivalCalendar:
        """The run gathered, whose last stop has just been recorded."""
        times = []
        for i, lane_times in enumerate(ahead):
            times.append(lane_times[:arrived[i]])
            del lane_times[:arrived[i]]
            arrived[i] = 0
        run = ArrivalCalendar(
            [lane_ids[:] for lane_ids in ids], times, order[:], fids[:], stop_at[:], recomputes[:]
        )
        for gathered in (order, *ids, fids, stop_at, recomputes):
            gathered.clear()
        return run

    # chain heads: (time, rank of the event that scheduled it, lane index or
    # -1 for a recompute). Construction ranks below every event run: first
    # the lanes' first arrivals in lane order, then recompute 0.
    heads = []
    for i in range(n_lanes):
        refill(i)
        if ahead[i]:
            heads.append((ahead[i][0], i - n_lanes - 1, i))
    if warmup <= horizon:
        heads.append((warmup, -1, -1))
    heapq.heapify(heads)

    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    order_append = order.append
    id_appends = [lane_ids.append for lane_ids in ids]
    rank = 0  # chain events run
    fid = 0  # fillets arrived, and the id of the last one
    next_drain = drain_every
    run_size = chunk * n_lanes  # arrivals a run holds at least, but for the last
    stop_fid, stop_time, stop_recomputes = fids.append, stop_at.append, recomputes.append
    while heads:
        now, _, i = heads[0]
        if i < 0:
            stop_fid(fid)
            stop_time(now)
            stop_recomputes(True)
            if len(order) >= run_size:
                yield cut()
            nxt = now + interval
            if nxt <= horizon:
                heapreplace(heads, (nxt, rank, -1))
            else:
                heappop(heads)
        else:
            fid += 1
            order_append(i)
            id_appends[i](fid)
            times = ahead[i]
            p = arrived[i] + 1
            arrived[i] = p
            if p < len(times) or open_lanes[i] and refill(i):
                heapreplace(heads, (times[p], rank, i))
            else:
                heappop(heads)
            if fid == next_drain:
                next_drain += drain_every
                stop_fid(fid)
                stop_time(now)
                stop_recomputes(False)
                if len(order) >= run_size:
                    yield cut()
        rank += 1
    stop_fid(fid)
    stop_time(math.inf)
    stop_recomputes(False)
    yield cut()


def arrival_calendar(lanes, scenario: Scenario):
    """One cell's calendar, as its runs: the memo's record, or the runs of
    `calendar_runs`, recorded into the memo on the way or not (module doc)."""
    horizon = scenario.horizon_s
    warmup = scenario.controller.warmup_s
    interval = scenario.controller.recompute_interval_s
    drain_every = DRAIN_EVERY  # read per call: tests set it
    runs = calendar_runs(lanes, horizon, warmup, interval, drain_every, CHUNK)
    if any(lane.arrivals_rng is not None for lane in lanes):
        return runs
    rates = tuple(lane.rate_per_min for lane in lanes)
    key = (rates, horizon, warmup, interval, drain_every)
    memo_runs = CALENDARS.get(key)
    if memo_runs is not None:
        return memo_runs
    # a deterministic lane's arrival count, as `parse_scenario` bounds it, and
    # the stops: recomputes, DRAIN_EVERY stops and the end
    arrivals = sum(rate * horizon / 60.0 for rate in rates)
    stops = horizon / interval + arrivals / drain_every + 1
    stored = sum(len(run.order) + len(run.fids) for record in CALENDARS.values() for run in record)
    if arrivals + stops + stored > CALENDAR_MEMO_ARRIVALS:
        return runs
    return _recorded(key, runs)


def _recorded(key: tuple, runs):
    """Pass `runs` on in arrays, recording them; store the record once the
    last is out."""
    record = []
    for run in runs:
        run = run.compact()
        record.append(run)
        yield run
    CALENDARS[key] = tuple(record)


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
        self.seed = seed
        design = compile_design(space, config)
        self.catalog = design.catalog
        windows = [WindowView([]) for _ in self.catalog.lanes]
        self.controller = ProductionController(
            scenario.controller, self.catalog, scenario.ladder, windows
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
        drain_every = DRAIN_EVERY
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
        # per lane, whether some rung reads its window (`read_lanes`, whose
        # positions follow the compiled design's lane order, as `lanes` does)
        reads = [i in controller.read_lanes for i in range(n_lanes)]
        # what `weigh` and `assign` read per lane, in one tuple: the lane's
        # lists by position in the lane, the window group (weigh times, the
        # window's own list, and weight bins) and the assign group (assign
        # times, weights, fillet ids)
        flows = [
            (lane, self.routes[lane.lane], window, window.weigh_times, [], [], [], [])
            for lane, window in zip(lanes, windows)
        ]
        # cursors: fillets assigned, in the assign group; fillets weighed are
        # each window's `hi`, in the window group
        assigned = [0] * n_lanes
        # per lane, a fillet's index in the window group less its index in the
        # assign group: the groups drop their prefixes apart
        skews = [0] * n_lanes
        # per lane, the pass log (module doc): [id of the last fillet assigned, strategy]
        passes: list[list[list]] = [[] for _ in lanes]
        counts: dict[str, int] = {}
        trims: list[tuple] = []  # (time, assign time, weigh time, id, cut): calendar order
        absorbs: list[tuple] = []  # (time, assign time, weigh time, id, tag, final mass)
        live: list[tuple] = []  # (id, mass) of fillets assigned but not absorbed by the horizon
        weighs = assigns = applied = 0  # events run by the weigh, assign and flush passes
        trim_mass = 0.0

        def weigh(e: float, a1: float) -> None:
            """Weigh every fillet whose weigh comes before recompute j, due at
            `e`. Ties at `e` (module doc) need a1, the fillets arrived when
            recompute j-1 ran."""
            nonlocal weighs
            window_size = controller.config.window_size
            watched = controller.watched
            for flow, skew, read in zip(flows, skews, reads):
                _, _, window, lane_weighs, lane_bins, _, _, lane_ids = flow
                # in window-group indices: times are sorted, and equal times
                # run in id order
                start, n = window.hi, len(lane_weighs)
                end = bisect_left(lane_weighs, e, start, n)
                while end < n and lane_weighs[end] == e and lane_ids[end - skew] <= a1:
                    end += 1
                if end > start:
                    if read:
                        window.slide(lane_bins, end, window_size, watched)
                    else:  # a window no rung reads holds nothing: only the cursor moves
                        window.lo = window.hi = end
                    weighs += end - start

        def assign(e: float, e1: float, a2: float, strategies: dict) -> None:
            """Assign, under `strategies`, every weighed fillet whose assign
            comes before recompute j, due at `e`. Ties at `e` (module doc) need
            e1, recompute j-1's time, and a2, the fillets arrived when recompute
            j-2 ran."""
            nonlocal assigns
            default = controller.default_assignment
            for i, (flow, log) in enumerate(zip(flows, passes)):
                (lane, lane_routes, window, lane_weighs, lane_bins,
                 lane_assigns, lane_weights, lane_ids) = flow
                skew = skews[i]
                # in assign-group positions, from the weighed fillets; equal
                # assign times run in weigh order, then id order
                start, n = assigned[i], window.hi - skew
                end = bisect_left(lane_assigns, e, start, n)
                while end < n and lane_assigns[end] == e and (
                    lane_weighs[end + skew] < e1
                    or (lane_weighs[end + skew] == e1 and lane_ids[end] <= a2)
                ):
                    end += 1
                if end == start:
                    continue
                lane_id = lane.lane
                strategy = strategies.get(lane_id)
                if not log or log[-1][1] is not strategy:
                    log.append([0, strategy])
                log[-1][0] = lane_ids[end - 1]
                if not strategy:
                    # every fillet takes the default route, in one block: the
                    # build checked that route, and the absorb times are sorted
                    tag = default.destination
                    offset = lane_routes[tag].destination_offset_s
                    due = lane_assigns[start:end]
                    absorb_times = [s + offset for s in due]
                    k = bisect_right(absorb_times, horizon)
                    stop = start + k  # the fillets before it are absorbed by the horizon
                    if k:
                        absorbs.extend(zip(
                            absorb_times, due, lane_weighs[start + skew:stop + skew],
                            lane_ids[start:stop], repeat(tag), lane_weights[start:stop],
                        ))
                        counts[tag] = counts.get(tag, 0) + k
                        recipe_counts[default.recipe_index] += k
                    live.extend(zip(lane_ids[stop:end], lane_weights[stop:end]))
                else:
                    lookup = strategy.get
                    for s, weight, b, weighed, fid in zip(
                        lane_assigns[start:end], lane_weights[start:end],
                        lane_bins[start + skew:end + skew], lane_weighs[start + skew:end + skew],
                        lane_ids[start:end],
                    ):
                        assignment = lookup(b, default)
                        tag = assignment.destination
                        route = lane_routes.get(tag)
                        if route is None:
                            raise RoutingFault(
                                f"lane {lane_id} was assigned unreachable destination {tag!r}"
                            )
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
                                trims.append((trim_at, s, weighed, fid, cut))
                        if absorb_at <= horizon:
                            absorbs.append((absorb_at, s, weighed, fid, tag, final))
                            counts[tag] = counts.get(tag, 0) + 1
                            index = assignment.recipe_index
                            recipe_counts[index] += 1
                            band = bands[index]
                            if band is not None:
                                trimmed = cut or 0.0
                                if not band[0] <= final <= band[1] or trimmed > band[2]:
                                    t.band_violations += 1
                        else:
                            live.append((fid, final if trim_at <= horizon else weight))
                assigns += end - start
                # drop what no cursor reads again: the assign group up to the
                # assign cursor, the window group up to the window's start or
                # the assign cursor, whichever comes first
                if end >= drain_every:
                    for column in flow[5:]:
                        del column[:end]
                    skew += end
                    end = 0
                drop = min(window.lo, end + skew)
                if drop >= drain_every:
                    del lane_weighs[:drop], lane_bins[:drop]
                    window.lo -= drop
                    window.hi -= drop
                    skew -= drop
                skews[i] = skew
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

        # the pending recompute j: its time e, and a1, e1, a2 as `weigh` and
        # `assign` take them; with none left, everything up to the horizon comes first
        interval = scenario.controller.recompute_interval_s
        if scenario.controller.warmup_s <= horizon:
            e, a1, e1, a2 = scenario.controller.warmup_s, 0, -inf, 0
        else:
            e, a1, e1, a2 = horizon, inf, inf, inf

        def take_in(flow: tuple, ids, times) -> list[float]:
            """Add a lane's fillets `ids`, arriving at `times`, to its lists
            (`flow`); their weights."""
            lane, _, _, lane_weighs, lane_bins, lane_assigns, lane_weights, lane_ids = flow
            lane_ids += ids
            offset = lane.weigh_offset_s
            weigh = [at + offset for at in times]
            lane_weighs += weigh
            offset = lane.assign_offset_s
            lane_assigns += [w + offset for w in weigh]
            drawn = lane.sampler.draw(lane.weights_rng, len(ids))
            lane_weights += drawn
            lane_bins += [int(g // bin_width) for g in drawn]
            return drawn

        fid = recomputes = 0
        injected_mass = 0.0
        for run in arrival_calendar(lanes, scenario):
            # take the run's arrivals in, each lane's following on from its last
            # run's, and read their weights back per lane
            nexts = [iter(drawn).__next__ for drawn in map(take_in, flows, run.ids, run.times)]
            for i in run.order:  # added in calendar order, as the arrivals ran
                injected_mass += nexts[i]()
            for fid, now, recompute in zip(run.fids, run.at, run.recomputes):
                if recompute:
                    weigh(e, a1)
                    kept = controller.strategies
                    controller.recompute(now)  # through the attribute: it may be wrapped
                    recomputes += 1
                    if controller.strategies is not kept:
                        # what is due before e was due under `kept` (module doc)
                        assign(e, e1, a2, kept)
                        flush(now)
                    nxt = now + interval
                    if nxt <= horizon:
                        e, a1, e1, a2 = nxt, fid, now, a1
                    else:
                        e, a1, e1, a2 = horizon, inf, inf, inf
                elif now < inf:
                    # after an assign pass, a fillet not yet assigned is assigned at
                    # or after e >= now, or arrives later: nothing before now is
                    # still to come
                    weigh(e, a1)
                    assign(e, e1, a2, controller.strategies)
                    flush(now)
        weigh(horizon, inf)
        assign(horizon, inf, inf, controller.strategies)
        flush(math.nextafter(horizon, inf))  # everything at or before the horizon

        # still in flight at the horizon, in fillet id order as injected
        for (*_, weights, ids), done in zip(flows, assigned):
            live += zip(ids[done:], weights[done:])
        live.sort()
        t.injected = fid
        t.injected_mass_g = injected_mass
        t.trim_mass_g = trim_mass
        # counted at assignment, keyed in the calendar's order, which `masses` kept
        t.counts = {tag: counts[tag] for tag in t.masses}
        t.in_flight = len(live)
        t.in_flight_mass_g = left_sum(mass for _, mass in live)
        t.events = fid + recomputes + weighs + assigns + applied
        t.recomputes, t.walks = controller.recomputes, controller.walks
        self._rebuild_rows(passes)
        return t

    def _rebuild_rows(self, passes: list[list[list]]) -> None:
        """Rebuild a traced run's rows from its pass log `passes` (module doc)."""
        rows = self.trace_rows
        if rows is None:
            return
        horizon, bin_width = self.scenario.horizon_s, self.controller.config.bin_width_g
        default = self.controller.default_assignment
        lanes = list(self.lane_runtimes.values())
        for lane in lanes:
            lane.weights_rng.seed(derive_seed(self.seed, f"weights:{lane.lane}"))
            if lane.arrivals_rng is not None:
                lane.arrivals_rng.seed(derive_seed(self.seed, f"arrivals:{lane.lane}"))
        runs = list(arrival_calendar(lanes, self.scenario))
        for i, (lane, log) in enumerate(zip(lanes, passes)):
            ids = [fid for run in runs for fid in run.ids[i]]
            times = [at for run in runs for at in run.times[i]]
            lasts = [last for last, _ in log]
            weights = lane.sampler.draw(lane.weights_rng, len(ids))
            for fid, at, weight in zip(ids, times, weights):
                shown = round(weight, 6)
                weighed = at + lane.weigh_offset_s
                rows.append((round(at, 9), lane.lane, fid, shown, "arrive"))
                if weighed <= horizon:
                    rows.append((round(weighed, 9), lane.weigh_module, fid, shown, "weigh"))
                if not lasts or fid > lasts[-1]:
                    continue  # not assigned by the horizon
                strategy = log[bisect_left(lasts, fid)][1]
                assignment = (strategy or {}).get(int(weight // bin_width), default)
                route, cut = self.routes[lane.lane][assignment.destination], assignment.trim_g
                s = weighed + lane.assign_offset_s
                rows.append((round(s, 9), lane.assign_module, fid, shown, "assign"))
                # a fillet cut at the trimmer gets a trim row there, not an enter row
                cut_at = route.trimmer_id if cut is not None else None
                rows.extend((round(s + offset, 9), module_id, fid, shown, "enter")
                            for module_id, offset in route.hops if module_id != cut_at)
                final = round(weight if cut is None else weight - cut, 6)
                if cut is not None and s + route.trim_offset_s <= horizon:
                    rows.append((round(s + route.trim_offset_s, 9), route.trimmer_id, fid, final,
                                 "trim"))
                if s + route.destination_offset_s <= horizon:
                    rows.append((round(s + route.destination_offset_s, 9), route.destination_id,
                                 fid, final, "absorb"))
        rows.sort(key=lambda row: (row[0], row[2]))
