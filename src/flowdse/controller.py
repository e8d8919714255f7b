"""Production control: histogram-driven strategy computation.

Every recompute interval the controller rebuilds a per-lane strategy that maps
weight bins to (recipe, optional trim instruction). It reads each lane's window
of measured weights, which the plant keeps (`plant.WindowView`), through its
bin `counts` and `span_s()` only. Strategy construction walks recipes in
priority order; for each it grows a direct weight range from the recipe's
lower limit, and if the predicted throughput still misses the target, grows a
trim range above the upper limit on lanes that can trim. Assigned bins become
unavailable to later recipes. Unassigned bins fall through to the default recipe.

What depends only on the recipes and the bin width is built once, as a recipe
ladder shared by every controller of a scenario (`recipe_ladder`): per
recipe, in priority order, its direct bins, its trim bins with their trim
amounts, and the `BinAssignment` objects that strategies hand out. Each
controller adds the design's half once, at construction: per recipe, the
lanes that reach its destination and those of them that can trim, from the
rungs each lane's tags reach (`rungs_reached`, kept per ladder and tag set).
Their union is `read_lanes`, the lanes whose windows a walk reads; every
other lane's strategy stays empty, and the plant's window on it holds
nothing. A recompute then builds only what the live windows decide: one rate
divisor per lane and the fresh strategy dicts, filled by a walk up the
ladder that reads each window's bin counts directly.

Most recomputes on a long horizon rebuild the strategy they already have, so
each walk also leaves a certificate, and a recompute keeps the current
strategies while it holds (the idea of kinetic data structures: Basch,
Guibas & Hershberger, "Data structures for mobile data", J. Algorithms
31(1), 1999). The certificate holds, per lane that some rung reads, the
walk's divisor and the window's tallies as they stood at the walk, and per
rung the prediction at its last passing `predicted < target` test and at its
failing one. The windows keep the tallies as running totals, which only the
plant writes: the samples they gained and evicted and the presence flips (a
bin count going 0 -> 1 or 1 -> 0) among the bins the ladder reads
(`RecipeLadder.watched`). A recompute reads how far they moved since the walk.

Why keeping is exact. With no presence flip on a read lane, each rung visits
the same (lane, bin) terms in the same order and claims the same bins,
provided it stops after the same number of bins; its prediction only grows,
so that holds when the last passing test still passes and the failing one
still fails. Every term is count / divisor. Since the walk, a lane's counts
have grown by at most its samples gained and shrunk by at most its samples
evicted, in all, and its divisor went from d to d', which scales each old
term by d / d'. So a prediction p becomes at most p * max(d / d') +
m * sum(gained / d') and at least p * min(d / d') - m * sum(evicted / d'),
where m is 2 on a rung whose trim range starts inside its direct range (the
float quirk of `Rung.trim` counts that bin twice) and 1 otherwise. The
recompute keeps the strategies when the first bound stays below the target
at every last passing test and the second reaches it at every failing test,
each widened by a rounding slack that grows with the number of terms the
rung may sum. Otherwise, or after a flip, it walks again. Only windows that
keep the tallies (`plant.WindowView`) certify a walk; over any other window
every recompute walks. A controller's first walk leaves no certificate
either: a plant that recomputes once would never read it.

A walk's own result certifies the strategies once more: a walk that rebuilds
the strategies in force keeps the current object, so `strategies` is
replaced only when its content changes, and the plant, which assigns at each
replacement, assigns no sooner than a change needs. Every value is a
`BinAssignment` the ladder hands out, so comparing the dicts mostly compares
identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs for the control loop.

    window_size: weights retained per lane for throughput prediction.
    recompute_interval_s: seconds between strategy recomputations.
    bin_width_g: histogram granularity in grams.
    warmup_s: seconds before the first strategy exists; until then every
        fillet goes to the default destination.
    """

    window_size: int = 1000
    recompute_interval_s: float = 10.0
    bin_width_g: float = 10.0
    warmup_s: float = 60.0

    def __post_init__(self) -> None:
        # written so that NaN fails each test, as infinity does
        if not self.window_size >= 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 0 < self.recompute_interval_s < math.inf:
            raise ValueError(
                f"recompute_interval_s must be positive and finite, got {self.recompute_interval_s}"
            )
        if not 0 < self.bin_width_g < math.inf:
            raise ValueError(f"bin_width_g must be positive and finite, got {self.bin_width_g}")
        if not 0 <= self.warmup_s < math.inf:
            raise ValueError(f"warmup_s must be non-negative and finite, got {self.warmup_s}")


@dataclass(frozen=True)
class RouteCatalog:
    """The controller's view of one design's wiring (see `compile_design`).

    reachable: lane id -> destination tags reachable from its assignment stage.
    has_trimmer: lane id -> whether every route of the lane passes a trimming
        module, i.e. one sits after the assignment and before any branch.
    """

    reachable: dict[str, frozenset[str]]
    has_trimmer: dict[str, bool]

    @property
    def lanes(self) -> list[str]:
        return list(self.reachable)


@dataclass(frozen=True)
class BinAssignment:
    recipe_index: int
    destination: str
    trim_g: float | None  # None = send as-is


@dataclass(frozen=True)
class Rung:
    """One non-default recipe's place on the ladder: the bins it may claim.

    direct: bins wholly inside [min, max], lightest first, up to the bin of
        the heaviest weight; they all share the one `direct_assignment`.
    trim: (bin, assignment with its trim amount) for the bins above the band,
        lightest first, while the cut stays within the recipe's allowance and
        the bin can hold a weight (see `recipe_ladder`).
        Empty when the post-trim interval [max - bin width, max) pokes below
        the lower limit. A float quirk can put the last direct bin first here
        (e.g. max 0.5 g at bin width 0.1 g).
    repeats: how often a walk may add one (lane, bin) rate into the rung's
        prediction: 2 when that quirk makes `trim` start inside `direct`.
    """

    target: float
    direct: range
    direct_assignment: BinAssignment
    trim: tuple[tuple[int, BinAssignment], ...]
    repeats: int


@dataclass(frozen=True, eq=False)  # hashed by identity, as `rungs_reached` keys on it
class RecipeLadder:
    """Everything a strategy recompute needs that depends only on the recipes
    and the bin width: the default recipe's assignment, one rung per
    non-default recipe, in priority order, and `watched`, the bins from the
    lightest that any rung reads to the heaviest."""

    default_assignment: BinAssignment
    rungs: tuple[Rung, ...]
    watched: range


def recipe_ladder(
    recipes: tuple, bin_width_g: float, heaviest_g: float = math.inf
) -> RecipeLadder:
    """The ladder of one scenario's recipes and bin width (`Scenario.ladder`).

    The bin arithmetic is exactly the loop conditions of a strategy walk, so a
    walk over the ladder visits the same bins with the same trim amounts.
    Direct and trim bins stop at the bin of `heaviest_g`, the heaviest weight a
    window can ever hold: bins above it never hold counts, so a walk over them
    could claim nothing, and a huge band or trim allowance costs no more than a
    small one.
    """
    defaults = [i for i, r in enumerate(recipes) if r.is_default]
    if len(defaults) != 1:
        raise ValueError(f"expected exactly one default recipe, found {len(defaults)}")
    default_index = defaults[0]
    # priority order: smaller number first, declaration order breaks ties
    priority_order = sorted(
        (i for i in range(len(recipes)) if i != default_index),
        key=lambda i: (recipes[i].priority, i),
    )
    binw = bin_width_g
    last = math.inf if heaviest_g == math.inf else int(heaviest_g // binw)
    rungs = []
    for idx in priority_order:
        recipe = recipes[idx]
        # direct bins: from the first one at or above the lower limit up to,
        # not including, the first whose upper edge passes the upper limit.
        # That edge test holds for a prefix of bins only, so the end is found
        # by stepping from its estimate instead of walking every bin.
        # Both steps stop at the heaviest bin: near 1e308 g, adding 1 to a bin
        # no longer moves its edge, and stepping up would never end.
        first = math.ceil(recipe.min_weight_g / binw)
        end = max(first, min(int(recipe.max_weight_g // binw), last + 1))
        while end > first and not end * binw <= recipe.max_weight_g:
            end -= 1
        while end <= last and (end + 1) * binw <= recipe.max_weight_g:
            end += 1
        trim = []
        if recipe.max_weight_g - binw >= recipe.min_weight_g:
            b = int(recipe.max_weight_g // binw)
            while b <= last:
                cut = (b + 1) * binw - recipe.max_weight_g
                if cut > recipe.max_trim_g:
                    break
                trim.append((b, BinAssignment(idx, recipe.destination, cut)))
                b += 1
        rungs.append(
            Rung(
                recipe.target_per_min,
                range(first, end),
                BinAssignment(idx, recipe.destination, None),
                tuple(trim),
                2 if trim and trim[0][0] < end else 1,
            )
        )
    spans = [(r.direct.start, r.direct.stop) for r in rungs if r.direct]
    spans += [(r.trim[0][0], r.trim[-1][0] + 1) for r in rungs if r.trim]
    return RecipeLadder(
        BinAssignment(default_index, recipes[default_index].destination, None),
        tuple(rungs),
        range(min(spans)[0], max(e for _, e in spans)) if spans else range(0),
    )


@lru_cache(maxsize=4096)
def rungs_reached(ladder: RecipeLadder, reachable: frozenset[str]) -> tuple[int, ...]:
    """The positions of the ladder's rungs whose destination is in
    `reachable`, a lane's destination tags; kept, as many lanes share a set."""
    return tuple(
        j for j, rung in enumerate(ladder.rungs) if rung.direct_assignment.destination in reachable
    )


class ProductionController:
    """Per-replication strategy builder: one strategy per lane, rebuilt from
    the lanes' windows at each recompute that its certificate cannot spare."""

    def __init__(
        self, config: ControllerConfig, routes: RouteCatalog, ladder: RecipeLadder, windows
    ) -> None:
        """`ladder`: the recipes' ladder at `config.bin_width_g`
        (`recipe_ladder`); `windows`: one per lane, in `routes`' lane order,
        none holding a weight above the ladder's heaviest."""
        self.config = config
        self.default_assignment = ladder.default_assignment
        self.watched = ladder.watched  # the bins whose presence flips the windows tally
        self.windows = dict(zip(routes.lanes, windows, strict=True))
        # the design-dependent half of the ladder: per rung, the positions (in
        # window order) of the lanes that reach its destination, and of those
        # that can also trim, from the rungs each lane reaches; rungs no lane
        # can serve are left out
        lanes_of: list[tuple[list[int], list[int]]] = [([], []) for _ in ladder.rungs]
        for i, lane in enumerate(self.windows):
            for j in rungs_reached(ladder, routes.reachable[lane]):
                lanes_of[j][0].append(i)
                if routes.has_trimmer[lane]:
                    lanes_of[j][1].append(i)
        self._rungs: list[tuple[Rung, tuple[int, ...], tuple[int, ...]]] = [
            (rung, tuple(lanes), tuple(trim_lanes))
            for rung, (lanes, trim_lanes) in zip(ladder.rungs, lanes_of) if lanes
        ]
        # the positions of the lanes some rung reads: no walk reads the others'
        # windows, so their strategies stay empty
        self.read_lanes = frozenset(i for _, lanes, _ in self._rungs for i in lanes)
        # the read lanes with their windows, if the windows tally (module doc);
        # else None, and no walk leaves a certificate
        windows = list(self.windows.values())
        self._read = None
        if all(hasattr(window, "flips") for window in windows):
            self._read = [(i, windows[i]) for i in sorted(self.read_lanes)]
        # the rounding slack: a walk sums at most `widest` bins of every lane
        # into one prediction, and each operation on a term adds a relative
        # error of at most 2**-53
        widest = max((len(r.direct) + len(r.trim) for r, _, _ in self._rungs), default=0)
        slack = (widest * len(windows) + 8) * 2.0**-49
        self._up, self._down = 1.0 + slack, 1.0 - slack
        # the last walk's certificate, as the walk left it in `_walked`: per
        # read lane (window, divisor, added, evicted, flips), and per rung
        # (target, prediction at the last passing test and at the failing one,
        # repeats), each widened by the slack
        self._certificate = self._walked = None
        self.strategies: dict[str, dict[int, BinAssignment]] = {}
        self.recomputes = 0
        self.walks = 0  # recomputes that walked the ladder

    def recompute(self, time_s: float) -> None:
        """Bring every lane's strategy up to date at the plant's instant
        `time_s`: keep the current `strategies` object when the last walk's
        certificate proves that a walk would build the same strategies (module
        doc), else walk the ladder again (`compute_strategies`). A walk that
        rebuilds the strategies in force keeps the object too, so `strategies`
        is replaced only when its content changes."""
        self.recomputes += 1
        certificate = self._certificate
        if certificate is not None:
            lanes, bounds = certificate
            t_s = self.config.recompute_interval_s
            low, high, gained, evicted = math.inf, 0.0, 0.0, 0.0
            for window, divisor, added, out, flips in lanes:
                if window.flips != flips:
                    break
                d = max(window.span_s(), t_s) / 60.0
                ratio = divisor / d
                if ratio > high:
                    high = ratio
                if ratio < low:
                    low = ratio
                gained += (window.added - added) / d
                evicted += (window.evicted - out) / d
            else:
                for target, passed, failed, repeats in bounds:
                    if not (
                        passed * high + repeats * gained < target
                        and failed * low - repeats * evicted >= target
                    ):
                        break
                else:
                    return
        # a replaced `compute_strategies` leaves no certificate behind
        self._walked = None
        strategies = self.compute_strategies()
        if strategies != self.strategies:
            self.strategies = strategies
        self.walks += 1
        self._certificate = self._walked

    def compute_strategies(self) -> dict[str, dict[int, BinAssignment]]:
        """One walk up the ladder over the live bin counts.

        A bin is available on a lane while the lane's window holds it and no
        recipe has claimed it yet. A bin's pooled rate, in fillets per minute,
        is the sum, added left to right from 0.0, over the lanes where it is
        available, in lane order, of count / divisor. Each lane has one
        divisor: its window's time span in minutes, clamped below by one
        recompute interval so that a burst of samples at one instant cannot
        predict an absurd rate. So every `predicted < target` test sees the
        same float as a sum of per-lane, per-bin rates would.

        Over tallying windows every walk but the first also leaves its
        certificate in `_walked`, for `recompute` to keep.
        """
        t_s = self.config.recompute_interval_s
        strategies: dict[str, dict[int, BinAssignment]] = {}
        states = []  # per lane, in window order: (counts, strategy, divisor)
        for lane, window in self.windows.items():
            strategy: dict[int, BinAssignment] = {}
            strategies[lane] = strategy
            states.append((window.counts, strategy, max(window.span_s(), t_s) / 60.0))

        bounds = []  # per rung, as the certificate holds them
        inf, up, down = math.inf, self._up, self._down
        for rung, lane_positions, trim_positions in self._rungs:
            target = rung.target
            predicted = 0.0
            # the prediction at the last test that passed and at the one that
            # failed, where one did
            passed, failed = -inf, inf

            # direct phase: grow the range one bin at a time from the lower
            # limit; every bin walked is claimed where it is available
            claim = rung.direct_assignment
            views = [states[i] for i in lane_positions]
            for b in rung.direct:
                if not predicted < target:
                    failed = predicted
                    break
                passed = predicted
                rate = 0.0
                for counts, strategy, divisor in views:
                    count = counts.get(b)
                    if count and b not in strategy:
                        strategy[b] = claim
                        rate += count / divisor
                predicted += rate
            else:
                # trim phase, once the direct range ran out below the target:
                # only lanes that can physically trim. Availability is as it
                # stood before this recipe's own claims: a bin its direct phase
                # just claimed (see `Rung.trim`) adds its rate again but keeps
                # its direct claim.
                if trim_positions and rung.trim:
                    views = [states[i] for i in trim_positions]
                    for b, assignment in rung.trim:
                        if not predicted < target:
                            failed = predicted
                            break
                        passed = predicted
                        rate = 0.0
                        for counts, strategy, divisor in views:
                            count = counts.get(b)
                            if count:
                                held = strategy.get(b)
                                if held is None:
                                    strategy[b] = assignment
                                    rate += count / divisor
                                elif held is claim:
                                    rate += count / divisor
                        predicted += rate
            bounds.append((target, passed * up, failed * down, rung.repeats * up))

        if self._read is not None and self.walks:
            lanes = [(w, states[i][2], w.added, w.evicted, w.flips) for i, w in self._read]
            self._walked = (lanes, bounds)
        return strategies
