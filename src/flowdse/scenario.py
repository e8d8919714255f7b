"""Scenario definitions: recipe tables, per-lane inflow, horizon, controller block.

A scenario file is JSON with four parts: an ordered `recipes` array containing
exactly one default recipe (priority "*", the catch-all), an `inflow` array
giving each lane's arrival rate and weight source, `horizon_s`, and an
optional `controller` block overriding the control-loop defaults.
Weights come either from an empirical sample file (one gram value per line,
drawn with replacement) or a truncated normal distribution.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from flowdse.controller import ControllerConfig, RecipeLadder, recipe_ladder

log = logging.getLogger(__name__)


class ScenarioError(ValueError):
    """A scenario file failed validation; message names the offending field."""


TWO_PI = 2.0 * math.pi  # as `random` computes it for `gauss`

# smallest share of a truncated normal's mass its bounds may keep (1 in 1000
# draws accepted); below it, sampling would all but hang
MIN_TRUNCATED_MASS = 1e-3
# most arrivals per lane, and most recomputes, that one run may ask for: a
# sweep costs a few microseconds per fillet, so more would not end in any
# useful time
MAX_RUN_EVENTS = 1e9
# most weight bins that a lane's heaviest weight may span: a strategy
# recompute may walk, and the recipe ladder may store, one entry per bin up to
# it, so more would not end in any useful time or memory
MAX_WEIGHT_BINS = 1e5


@dataclass(frozen=True)
class Recipe:
    destination: str
    priority: int | None  # None marks the default ("*" in the file)
    target_per_min: float | None
    min_weight_g: float
    max_weight_g: float
    max_trim_g: float

    @property
    def is_default(self) -> bool:
        return self.priority is None


@dataclass(frozen=True)
class TruncatedNormalWeights:
    mean_g: float
    stddev_g: float
    lower_g: float
    upper_g: float

    @property
    def heaviest_g(self) -> float:
        return self.upper_g

    def draw(self, rng, n: int) -> list[float]:
        """`n` weights: `rng.gauss(mean_g, stddev_g)` variates, each drawn
        again while outside [lower_g, upper_g].

        The normal variates are made as `random.Random.gauss` makes them, with
        the same operations in the same order, in under half the time: a
        Box-Muller pair from two `random()` calls per iteration, its cosine
        variate first. A spare left in `rng.gauss_next` is taken first, and
        the sine variate is kept there only when the cosine one was the last
        taken, so that `draw` and `rng.gauss` share one stream.
        `tests/test_scenario.py::TestDraw` holds `draw` to the weight-at-a-time
        `tests/des_oracle.py::sample`.
        """
        uniform, spare = rng.random, rng.gauss_next
        log, sqrt, cos, sin, two_pi = math.log, math.sqrt, math.cos, math.sin, TWO_PI
        mean, stddev, lower, upper = self.mean_g, self.stddev_g, self.lower_g, self.upper_g
        out = []
        append = out.append
        if spare is not None and n > 0:
            w = mean + spare * stddev
            spare = None
            if lower <= w <= upper:
                append(w)
        while len(out) < n:
            angle = uniform() * two_pi
            radius = sqrt(-2.0 * log(1.0 - uniform()))
            w = mean + cos(angle) * radius * stddev
            if lower <= w <= upper:
                append(w)
                if len(out) == n:
                    spare = sin(angle) * radius
                    break
            w = mean + sin(angle) * radius * stddev
            if lower <= w <= upper:
                append(w)
        rng.gauss_next = spare
        return out


@dataclass(frozen=True)
class EmpiricalWeights:
    """Weight samples from a file (named as in the scenario, read from path),
    drawn with replacement."""

    source_file: str
    values: tuple[float, ...] = field(repr=False)
    path: Path | None = None

    @cached_property
    def heaviest_g(self) -> float:
        return max(self.values)

    def draw(self, rng, n: int) -> list[float]:
        """`n` weights: `values[rng.randrange(len(values))]`, `n` times.

        Each index is drawn as `rng.randrange(len(values))` draws it, in a
        quarter of the time: `getrandbits` of the length's bit count, drawn
        again while out of range. `tests/test_scenario.py::TestDraw` holds
        `draw` to the weight-at-a-time `tests/des_oracle.py::sample`.
        """
        values, getrandbits, k = self.values, rng.getrandbits, len(self.values)
        bits = k.bit_length()
        out = []
        for _ in range(n):
            index = getrandbits(bits)
            while index >= k:
                index = getrandbits(bits)
            out.append(values[index])
        return out


@dataclass(frozen=True)
class LaneInflow:
    lane: str
    rate_per_min: float
    weights: TruncatedNormalWeights | EmpiricalWeights
    process: str = "deterministic"  # or "poisson"


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    recipes: tuple[Recipe, ...]
    inflow: tuple[LaneInflow, ...]
    horizon_s: float
    controller: ControllerConfig

    @property
    def default_recipe(self) -> Recipe:
        return next(r for r in self.recipes if r.is_default)

    @cached_property
    def heaviest_g(self) -> float:
        """The heaviest weight any lane's inflow can produce."""
        return max(lane.weights.heaviest_g for lane in self.inflow)

    @cached_property
    def recipe_columns(self) -> tuple[tuple[str, str, str | None], ...]:
        """Per recipe, its record columns: absorbed, achieved per minute and,
        but for the default recipe, attainment."""
        return tuple(
            (f"absorbed_{r.destination}", f"achieved_per_min_{r.destination}",
             None if r.is_default else f"attainment_{r.destination}")
            for r in self.recipes
        )

    @cached_property
    def ladder(self) -> RecipeLadder:
        """The recipes' ladder at the controller's bin width, up to `heaviest_g`."""
        return recipe_ladder(tuple(self.recipes), self.controller.bin_width_g, self.heaviest_g)

    @property
    def destinations(self) -> set[str]:
        return {r.destination for r in self.recipes}


def _number(raw: dict, key: str, where: str, kind=float):
    """raw[key] as a number; a missing or non-numeric value is named in the error."""
    if key not in raw:
        raise ScenarioError(f"{where}.{key}: missing")
    try:
        return kind(raw[key])
    except (TypeError, ValueError, OverflowError):  # int() of an infinity overflows
        raise ScenarioError(f"{where}.{key}: not a number: {raw[key]!r:.40}") from None


def _object(raw, where: str) -> None:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: must be a JSON object, got {raw!r:.40}")


def _string(raw, where: str) -> None:
    if not isinstance(raw, str):
        raise ScenarioError(f"{where}: must be a string, got {raw!r:.40}")
    try:
        raw.encode()  # a JSON escape can spell a lone surrogate, which no output file can hold
    except UnicodeEncodeError:
        raise ScenarioError(f"{where}: holds a lone surrogate, {raw!r:.40}") from None


def _array(raw, where: str) -> None:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: must be a JSON array, got {raw!r:.40}")


def _parse_recipe(raw: dict, pos: int) -> Recipe:
    where = f"recipes[{pos}]"
    _object(raw, where)
    try:
        destination = raw["destination"]
        priority_raw = raw["priority"]
        target_raw = raw["target_throughput_per_min"]
        min_w = _number(raw, "min_fillet_weight_g", where)
        max_w = _number(raw, "max_fillet_weight_g", where)
        max_trim = _number(raw, "max_trim_weight_g", where)
    except KeyError as missing:
        raise ScenarioError(f"{where}: missing field {missing}") from None
    _string(destination, f"{where}.destination")

    if priority_raw == "*":
        priority = None
        if target_raw != "*":
            raise ScenarioError(f"{where}: default recipe must have target '*'")
        target = None
    else:
        priority = _number(raw, "priority", where, int)
        if priority < 1:
            raise ScenarioError(f"{where}: priority must be >= 1, got {priority}")
        if target_raw == "*":
            raise ScenarioError(f"{where}: only the default recipe may use target '*'")
        target = _number(raw, "target_throughput_per_min", where)
        if target <= 0:
            raise ScenarioError(f"{where}: target throughput must be positive")

    if not (0 <= min_w < max_w < math.inf):
        raise ScenarioError(f"{where}: need 0 <= min < max < inf, got [{min_w}, {max_w}]")
    if not 0 <= max_trim < math.inf:
        raise ScenarioError(f"{where}: max trim weight must be >= 0 and finite, got {max_trim}")
    return Recipe(destination, priority, target, min_w, max_w, max_trim)


def _parse_weights(raw: dict, base_dir: Path, where: str):
    _object(raw, f"{where}.weights")
    kind = raw.get("kind")
    if kind == "truncated_normal":
        fields = ("mean_g", "stddev_g", "lower_g", "upper_g")
        source = TruncatedNormalWeights(*(_number(raw, k, f"{where}.weights") for k in fields))
        if source.stddev_g <= 0:
            raise ScenarioError(f"{where}: stddev_g must be positive")
        if not (0 <= source.lower_g < source.upper_g < math.inf):
            raise ScenarioError(
                f"{where}: truncation bounds must satisfy 0 <= lower < upper < inf"
            )
        # rejection sampling draws 1 / mass normals per weight: refuse bounds
        # that hold (almost) none of the distribution instead of hanging
        lower_z, upper_z = (
            (bound - source.mean_g) / (source.stddev_g * math.sqrt(2.0))
            for bound in (source.lower_g, source.upper_g)
        )
        mass = 0.5 * (math.erf(upper_z) - math.erf(lower_z))
        if not mass >= MIN_TRUNCATED_MASS:
            raise ScenarioError(
                f"{where}.weights: bounds [{source.lower_g}, {source.upper_g}] hold "
                f"{mass:.3g} of the normal distribution, below {MIN_TRUNCATED_MASS}"
            )
        return source
    if kind == "empirical":
        if "file" not in raw:
            raise ScenarioError(f"{where}.weights.file: missing")
        name = raw["file"]
        _string(name, f"{where}.weights.file")
        if "\0" in name:  # no file can be named so: opening it raises ValueError
            raise ScenarioError(f"{where}.weights.file: holds a NUL byte, {name!r}")
        path = Path(name)
        if not path.is_absolute():
            path = base_dir / path
        return EmpiricalWeights(name, load_weight_samples(path), path)
    raise ScenarioError(f"{where}: unknown weight source kind {kind!r}")


def load_weight_samples(path: Path) -> tuple[float, ...]:
    """Read a plain-text weight file: one positive, finite gram value per line."""
    try:
        lines = path.read_text(encoding="utf-8").split()
    except OSError as err:
        raise ScenarioError(f"cannot read weight file {path}: {err}") from None
    if not lines:
        raise ScenarioError(f"weight file {path} is empty")
    values = []
    for i, token in enumerate(lines, start=1):
        try:
            w = float(token)
        except ValueError:
            raise ScenarioError(f"{path}, entry {i}: not a number: {token!r}") from None
        if not 0 < w < math.inf:  # NaN and infinity would reach int() bin lookups
            raise ScenarioError(f"{path}, entry {i}: weights must be positive and finite, got {w}")
        values.append(w)
    return tuple(values)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise ScenarioError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path} is not valid JSON: {err}") from None
    return parse_scenario(raw, base_dir=path.parent, fallback_id=path.stem)


def parse_scenario(raw: dict, base_dir: Path, fallback_id: str = "scenario") -> Scenario:
    _object(raw, fallback_id)
    scenario_id = raw.get("id", fallback_id)
    _string(scenario_id, f"{fallback_id}.id")
    if "\0" in scenario_id:  # it names the trace file of `flowdse simulate --trace`
        raise ScenarioError(f"{fallback_id}.id: holds a NUL byte, {scenario_id!r}")
    recipes_raw = raw.get("recipes", [])
    _array(recipes_raw, f"{scenario_id}.recipes")
    if not recipes_raw:
        raise ScenarioError(f"{scenario_id}: recipe list is empty")
    recipes = tuple(_parse_recipe(r, i) for i, r in enumerate(recipes_raw))

    defaults = [r for r in recipes if r.is_default]
    if len(defaults) != 1:
        raise ScenarioError(
            f"{scenario_id}: expected exactly one default recipe, found {len(defaults)}"
        )
    if defaults[0].max_trim_g != 0:
        raise ScenarioError(f"{scenario_id}: default recipe must have max trim 0")

    priorities = [r.priority for r in recipes if not r.is_default]
    if len(priorities) != len(set(priorities)):
        log.warning(
            "%s: duplicate recipe priorities; declaration order breaks ties",
            scenario_id,
        )

    inflow_raw = raw.get("inflow", [])
    _array(inflow_raw, f"{scenario_id}.inflow")
    if not inflow_raw:
        raise ScenarioError(f"{scenario_id}: inflow list is empty")
    inflow = []
    seen_lanes = set()
    for i, lane_raw in enumerate(inflow_raw):
        where = f"inflow[{i}]"
        _object(lane_raw, where)
        lane = lane_raw.get("lane")
        if not lane:
            raise ScenarioError(f"{where}: missing lane id")
        _string(lane, f"{where}.lane")
        if lane in seen_lanes:
            raise ScenarioError(f"{where}: duplicate lane id {lane!r}")
        seen_lanes.add(lane)
        rate = _number(lane_raw, "rate_per_min", where)
        if not 0 < rate < math.inf:  # an infinite rate would never advance the clock
            raise ScenarioError(f"{where}.rate_per_min: must be positive and finite, got {rate}")
        process = lane_raw.get("process", "deterministic")
        if process not in ("deterministic", "poisson"):
            raise ScenarioError(f"{where}: unknown arrival process {process!r}")
        if "weights" not in lane_raw:
            raise ScenarioError(f"{where}.weights: missing")
        weights = _parse_weights(lane_raw["weights"], base_dir, where)
        inflow.append(LaneInflow(lane, rate, weights, process))

    # an infinite horizon never ends a run; NaN compares false with every time
    horizon = _number(raw, "horizon_s", scenario_id)
    if not 0 < horizon < math.inf:
        raise ScenarioError(f"{scenario_id}.horizon_s: must be positive and finite, got {horizon}")
    controller = _parse_controller(raw.get("controller", {}), f"{scenario_id}.controller")
    for i, lane in enumerate(inflow):
        arrivals = lane.rate_per_min * horizon / 60.0
        if arrivals > MAX_RUN_EVENTS:
            raise ScenarioError(
                f"{scenario_id}.inflow[{i}].rate_per_min: {lane.rate_per_min:g} per minute "
                f"over horizon_s {horizon:g} is {arrivals:.3g} arrivals, "
                f"more than {MAX_RUN_EVENTS:.0e}"
            )
        bins = lane.weights.heaviest_g / controller.bin_width_g
        if bins > MAX_WEIGHT_BINS:
            key = "upper_g" if isinstance(lane.weights, TruncatedNormalWeights) else "file"
            raise ScenarioError(
                f"{scenario_id}.inflow[{i}].weights.{key}: heaviest weight "
                f"{lane.weights.heaviest_g:g} g is {bins:.3g} bins of bin_width_g "
                f"{controller.bin_width_g:g}, more than {MAX_WEIGHT_BINS:.0e}"
            )
    recomputes = horizon / controller.recompute_interval_s
    if recomputes > MAX_RUN_EVENTS:
        raise ScenarioError(
            f"{scenario_id}.controller.t_s: {controller.recompute_interval_s:g} s "
            f"over horizon_s {horizon:g} is {recomputes:.3g} recomputes, "
            f"more than {MAX_RUN_EVENTS:.0e}"
        )
    return Scenario(scenario_id, recipes, tuple(inflow), horizon, controller)


def _parse_controller(raw: dict, where: str) -> ControllerConfig:
    """The controller block, each key optional; ranges are checked here, by the
    file's key, before ControllerConfig repeats them."""
    _object(raw, where)

    def setting(key: str, default, kind=float):
        return _number(raw, key, where, kind) if key in raw else default

    window_size = setting("N", ControllerConfig.window_size, int)
    if window_size < 1:
        raise ScenarioError(f"{where}.N: must be at least 1, got {window_size}")
    if window_size > sys.maxsize:  # the most a window can be asked to hold
        raise ScenarioError(f"{where}.N: must be at most {sys.maxsize}, got {window_size:.3g}")
    positive = {
        "t_s": setting("t_s", ControllerConfig.recompute_interval_s),
        "bin_width_g": setting("bin_width_g", ControllerConfig.bin_width_g),
    }
    for key, value in positive.items():
        if not 0 < value < math.inf:
            raise ScenarioError(f"{where}.{key}: must be positive and finite, got {value}")
    warmup_s = setting("warmup_s", ControllerConfig.warmup_s)
    if not 0 <= warmup_s < math.inf:
        raise ScenarioError(f"{where}.warmup_s: must be non-negative and finite, got {warmup_s}")
    return ControllerConfig(window_size, positive["t_s"], positive["bin_width_g"], warmup_s)


def compatibility_issues(
    scenario: Scenario, destination_tags: set[str], origin_lanes: list[str]
) -> list[str]:
    """Cross-checks against a design space: unknown tags, lane-count mismatch.

    Inflow entries feed Origin modules positionally (inflow[i] -> i-th Origin
    in declaration order), so only the counts must agree; scenario lane labels
    are free-form.
    """
    issues = []
    for r in scenario.recipes:
        if r.destination not in destination_tags:
            issues.append(
                f"{scenario.scenario_id}: recipe destination {r.destination!r} "
                f"not among design-space destinations {sorted(destination_tags)}"
            )
    if len(scenario.inflow) != len(origin_lanes):
        issues.append(
            f"{scenario.scenario_id}: {len(scenario.inflow)} inflow lanes but the "
            f"design space has {len(origin_lanes)} origin modules"
        )
    return issues
