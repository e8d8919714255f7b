"""Spans around the calls that flowdse.runner makes into each layer.

`traced(runner)` replaces the names that flowdse.runner imported from the
other modules with wrappers that record a span (name, start, end, parent) per
call, and wraps each plant's `run` and its controller's `recompute` on the
instance. Spans stay in memory until `write` is called. A layer's time is the
self time of its spans: their duration minus what their child spans cover, so
the self times of all spans add up to the root span's duration.

Counts are taken at the same boundaries. The work the wrappers do on their own
(comparing strategies, computing behaviour keys) runs inside spans named
`traced.bookkeeping`, so it shows as its own layer instead of inflating
another one.
"""

from __future__ import annotations

import contextlib
import csv
import time
import types
from pathlib import Path

LAYER_OF = {
    "designspace.load": "designspace.load_s",
    "designspace.enumerate": "designspace.enumerate_s",
    "designspace.dedup": "designspace.dedup_s",
    "scenario.load": "scenario.load_s",
    "plant.build": "plant.build_s",
    "plant.run": "plant.run_s",
    "controller.recompute": "controller.recompute_s",
    "evaluator.score": "evaluator.score_s",
    "evaluator.pareto": "evaluator.pareto_s",
    "evaluator.write": "evaluator.write_s",
    "runner.explore": "runner.self_s",
    "traced.bookkeeping": "traced.bookkeeping_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts = {
            "designspace.configurations": 0,
            "designspace.enumerations": 0,
            "plant.fillets": 0,
            "kernel.events": 0,
            "controller.recomputes": 0,
            "controller.recomputes_changed": 0,
        }
        self.design_keys: dict[int, tuple] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def self_times(self) -> dict[str, float]:
        """Per layer metric name, the summed self time of its spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(LAYER_OF.values(), 0.0)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[LAYER_OF[name]] += end - start - covered
        return totals

    def root_duration(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent])


def behaviour_key(sim) -> tuple:
    """What a design's simulation depends on, lane by lane.

    Per lane: weigh and assign offsets, reachable tags and has_trimmer, and per
    reachable tag the destination and trim offsets. Designs with equal keys
    behave identically under the same random draws.
    """
    lanes = []
    for lane, rt in sim.lane_runtimes.items():
        routes = tuple(
            sorted((tag, r.destination_offset_s, r.trim_offset_s) for tag, r in sim.routes[lane].items())
        )
        lanes.append(
            (
                rt.weigh_offset_s,
                rt.assign_offset_s,
                tuple(sorted(sim.catalog.reachable[lane])),
                sim.catalog.has_trimmer[lane],
                routes,
            )
        )
    return tuple(lanes)


@contextlib.contextmanager
def traced(runner):
    """Install span wrappers on flowdse.runner's imported names; restore on exit."""
    tracer = Tracer()
    counts = tracer.counts
    names = (
        "load_design_space",
        "enumerate_configurations",
        "deduplicate",
        "load_scenario",
        "PlantSimulation",
        "score",
        "ParetoFront",
        "write_results_csv",
        "write_plot_csv",
        "write_pareto_json",
    )
    real = {name: getattr(runner, name) for name in names}

    def wrap(span, fn):
        return lambda *a, **k: tracer.call(span, fn, *a, **k)

    def enumerate_configurations(space):
        configs = tracer.call("designspace.enumerate", lambda: list(real["enumerate_configurations"](space)))
        counts["designspace.enumerations"] += 1
        counts["designspace.configurations"] = len(configs)
        return iter(configs)

    def plant(space, config, scenario, seed, trace=False):
        sim = tracer.call("plant.build", real["PlantSimulation"], space, config, scenario, seed, trace=trace)
        tracer.call("traced.bookkeeping", instrument, sim)
        return sim

    def instrument(sim):
        tracer.design_keys.setdefault(sim.config.index, behaviour_key(sim))
        controller = sim.controller
        recompute = controller.recompute
        run = sim.run

        def compare(before):
            counts["controller.recomputes_changed"] += controller.strategies != before

        def traced_recompute(time_s):
            before = controller.strategies
            tracer.call("controller.recompute", recompute, time_s)
            counts["controller.recomputes"] += 1
            tracer.call("traced.bookkeeping", compare, before)

        def traced_run():
            tallies = tracer.call("plant.run", run)
            counts["plant.fillets"] += tallies.injected
            counts["kernel.events"] += tallies.events
            return tallies

        controller.recompute = traced_recompute
        sim.run = traced_run

    replacements = {
        "load_design_space": wrap("designspace.load", real["load_design_space"]),
        "enumerate_configurations": enumerate_configurations,
        "deduplicate": wrap("designspace.dedup", real["deduplicate"]),
        "load_scenario": wrap("scenario.load", real["load_scenario"]),
        "PlantSimulation": plant,
        "score": wrap("evaluator.score", real["score"]),
        "ParetoFront": types.SimpleNamespace(
            from_vectors=wrap("evaluator.pareto", real["ParetoFront"].from_vectors)
        ),
        "write_results_csv": wrap("evaluator.write", real["write_results_csv"]),
        "write_plot_csv": wrap("evaluator.write", real["write_plot_csv"]),
        "write_pareto_json": wrap("evaluator.write", real["write_pareto_json"]),
    }
    for name, fn in replacements.items():
        setattr(runner, name, fn)
    try:
        yield tracer
    finally:
        for name, fn in real.items():
            setattr(runner, name, fn)
