"""The strategy computation as it was before the recipe ladder, as an oracle.

`predict_throughput`, `compute_strategies` and `_pooled_rate` below are the
controller's methods copied from the version that asked `predict_throughput`
for every (recipe, bin, lane). `LegacyStrategies` runs them on a live
controller's windows, with the routes and recipes that controller was built
from, so a test can hold the ladder walk against them at any moment. It puts
the recipes in priority order itself: smaller priority number first,
declaration order breaking ties.
"""

from __future__ import annotations

import math

from flowdse.controller import BinAssignment


class LegacyStrategies:
    def __init__(self, controller, routes, recipes) -> None:
        self.config = controller.config
        self.routes = routes
        self.recipes = list(recipes)
        # a stable sort by priority: declaration order breaks ties
        self.priority_order = sorted(
            (i for i, r in enumerate(self.recipes) if not r.is_default),
            key=lambda i: self.recipes[i].priority,
        )
        self.windows = controller.windows

    def predict_throughput(self, lane: str, bins) -> float:
        """Observed fillets/minute for the given bin set, from the lane window.

        The window's time span is clamped below by one recompute interval so a
        nearly-simultaneous burst of samples cannot predict absurd rates.
        """
        window = self.windows[lane]
        if not window.counts:
            return 0.0
        count = sum(window.counts.get(b, 0) for b in bins)
        span = max(window.span_s(), self.config.recompute_interval_s)
        return count / (span / 60.0)

    def compute_strategies(self) -> dict[str, dict[int, BinAssignment]]:
        binw = self.config.bin_width_g
        available: dict[str, set[int]] = {}
        for lane, window in self.windows.items():
            available[lane] = set(window.counts)
        strategies: dict[str, dict[int, BinAssignment]] = {
            lane: {} for lane in self.windows
        }

        for idx in self.priority_order:
            recipe = self.recipes[idx]
            lanes = [
                lane
                for lane in self.windows
                if recipe.destination in self.routes.reachable[lane]
            ]
            if not lanes:
                continue  # unservable here; attainment stays 0

            target = recipe.target_per_min
            chosen_direct: list[int] = []
            predicted = 0.0

            # direct phase: grow the range one bin at a time from the lower limit;
            # a bin qualifies only if it lies wholly inside [min, max]
            b = math.ceil(recipe.min_weight_g / binw)
            while (b + 1) * binw <= recipe.max_weight_g and predicted < target:
                predicted += self._pooled_rate(lanes, b, available)
                chosen_direct.append(b)
                b += 1

            # trim phase: only lanes that can physically trim, starting at the
            # first bin holding weights above the upper limit. Every trim bin's
            # post-trim weights land in [max - bin width, max), so the phase is
            # skipped entirely when that interval pokes below the lower limit.
            trim_lanes = [lane for lane in lanes if self.routes.has_trimmer[lane]]
            chosen_trim: list[tuple[int, float]] = []
            if (
                predicted < target
                and trim_lanes
                and recipe.max_weight_g - binw >= recipe.min_weight_g
            ):
                b = int(recipe.max_weight_g // binw)
                while predicted < target:
                    trim = (b + 1) * binw - recipe.max_weight_g
                    if trim > recipe.max_trim_g:
                        break
                    predicted += self._pooled_rate(trim_lanes, b, available)
                    chosen_trim.append((b, trim))
                    b += 1

            for b in chosen_direct:
                assignment = BinAssignment(idx, recipe.destination, None)
                for lane in lanes:
                    if b in available[lane]:
                        available[lane].discard(b)
                        strategies[lane][b] = assignment
            for b, trim in chosen_trim:
                assignment = BinAssignment(idx, recipe.destination, trim)
                for lane in trim_lanes:
                    if b in available[lane]:
                        available[lane].discard(b)
                        strategies[lane][b] = assignment

        return strategies

    def _pooled_rate(self, lanes, b: int, available) -> float:
        return sum(
            self.predict_throughput(lane, (b,))
            for lane in lanes
            if b in available[lane]
        )
