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
lanes that reach its destination and those of them that can trim. A
recompute then builds only what the live windows decide: one rate divisor
per lane and the fresh strategy dicts, filled by a walk up the ladder that
reads each window's bin counts directly.
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
    """

    target: float
    direct: range
    direct_assignment: BinAssignment
    trim: tuple[tuple[int, BinAssignment], ...]


@dataclass(frozen=True)
class RecipeLadder:
    """Everything a strategy recompute needs that depends only on the recipes
    and the bin width: the default recipe's assignment and one rung per
    non-default recipe, in priority order."""

    default_assignment: BinAssignment
    rungs: tuple[Rung, ...]


@lru_cache(maxsize=64, typed=True)
def recipe_ladder(
    recipes: tuple, bin_width_g: float, heaviest_g: float = math.inf
) -> RecipeLadder:
    """Build (or fetch) the ladder for one scenario's recipes and bin width.

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
            )
        )
    return RecipeLadder(
        BinAssignment(default_index, recipes[default_index].destination, None),
        tuple(rungs),
    )


class ProductionController:
    """Per-replication strategy builder: one strategy per lane, rebuilt from
    the lanes' windows at each recompute."""

    def __init__(
        self, config: ControllerConfig, routes: RouteCatalog, recipes, windows, heaviest_g=math.inf
    ) -> None:
        """`windows`: one per lane, in `routes`' lane order; `heaviest_g` bounds
        every weight they will hold."""
        self.config = config
        ladder = recipe_ladder(tuple(recipes), config.bin_width_g, heaviest_g)
        self.default_assignment = ladder.default_assignment
        self.windows = dict(zip(routes.lanes, windows, strict=True))
        # the design-dependent half of the ladder: per rung, the positions (in
        # window order) of the lanes that reach its destination, and of those
        # that can also trim; rungs no lane can serve are left out
        names = list(self.windows)
        self._rungs: list[tuple[Rung, tuple[int, ...], tuple[int, ...]]] = []
        for rung in ladder.rungs:
            destination = rung.direct_assignment.destination
            lanes = tuple(
                i for i, lane in enumerate(names) if destination in routes.reachable[lane]
            )
            if lanes:
                trim_lanes = tuple(i for i in lanes if routes.has_trimmer[names[i]])
                self._rungs.append((rung, lanes, trim_lanes))
        self.strategies: dict[str, dict[int, BinAssignment]] = {}
        self.recomputes = 0

    def recompute(self, time_s: float) -> None:
        """Rebuild every lane's strategy at the plant's instant `time_s`; what
        it builds depends only on the windows."""
        self.strategies = self.compute_strategies()
        self.recomputes += 1

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
        """
        t_s = self.config.recompute_interval_s
        strategies: dict[str, dict[int, BinAssignment]] = {}
        states = []  # per lane, in window order: (counts, strategy, divisor)
        for lane, window in self.windows.items():
            strategy: dict[int, BinAssignment] = {}
            strategies[lane] = strategy
            states.append((window.counts, strategy, max(window.span_s(), t_s) / 60.0))

        for rung, lane_positions, trim_positions in self._rungs:
            target = rung.target
            predicted = 0.0

            # direct phase: grow the range one bin at a time from the lower
            # limit; every bin walked is claimed where it is available
            claim = rung.direct_assignment
            views = [states[i] for i in lane_positions]
            for b in rung.direct:
                if not predicted < target:
                    break
                rate = 0.0
                for counts, strategy, divisor in views:
                    count = counts.get(b)
                    if count and b not in strategy:
                        strategy[b] = claim
                        rate += count / divisor
                predicted += rate

            # trim phase: only lanes that can physically trim. Availability is
            # as it stood before this recipe's own claims: a bin its direct
            # phase just claimed (see `Rung.trim`) adds its rate again but
            # keeps its direct claim.
            if predicted < target and trim_positions and rung.trim:
                views = [states[i] for i in trim_positions]
                for b, assignment in rung.trim:
                    if not predicted < target:
                        break
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

        return strategies
