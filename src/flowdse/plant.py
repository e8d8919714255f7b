"""Executable plant model: one design configuration run under one scenario.

Construction resolves the configuration's wiring into per-(lane, destination)
routes: the module path from the lane's assignment stage to the destination,
its cumulative latency, and the trimmer passage time if the lane trims. At
run time each fillet then needs only a handful of calendar events - arrival
at the origin, weight measurement, assignment lookup, optional trim, and
absorption - while the intermediate conveyor hops contribute latency without
their own events. Trace mode reconstructs the per-hop rows from the resolved
route so the fused events stay observable.

Flow semantics: modules never block (in-line conveyors, unbounded occupancy),
so a fillet arriving at module M at time t arrives at M's successor at
t + M.latency. Destinations absorb on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from flowdse.controller import ProductionController, RouteCatalog
from flowdse.designspace import (
    DesignConfiguration,
    DesignSpace,
    ModuleKind,
    derive_routes,
)
from flowdse.kernel import Kernel, RandomStream
from flowdse.scenario import Scenario


class PlantBuildError(RuntimeError):
    """The configuration cannot serve the scenario (construction-time)."""


class RoutingFault(RuntimeError):
    """An impossible routing or trim came out of the control layer (run-time bug)."""


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


@dataclass(frozen=True)
class ResolvedRoute:
    """Path facts from a lane's assignment module to one destination tag."""

    destination_offset_s: float  # assignment arrival -> destination arrival
    trim_offset_s: float | None  # assignment arrival -> trimmer arrival
    trimmer_id: str | None
    destination_id: str
    hops: tuple[tuple[str, float], ...]  # (module id, arrival offset), dest included


@dataclass(slots=True)
class LaneRuntime:
    """Per-lane constants resolved at build time, consulted on every event."""

    lane: str
    rate_per_min: float
    sampler: object  # weight source with .sample(rng)
    weights_rng: RandomStream
    arrivals_rng: RandomStream | None  # None = deterministic arrivals
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


def _trunk_walk(space: DesignSpace, config: DesignConfiguration, origin_id: str):
    """Yield (module, arrival offset from origin) along the lane's single path."""
    owner = space.port_owner
    edge_map = config.edge_map
    node = space.by_id[origin_id]
    offset = 0.0
    for _ in range(len(space.modules) + 1):
        yield node, offset
        if node.kind == ModuleKind.DESTINATION:
            return
        nxt = [
            owner[edge_map[node.port_key(p)]].module_id
            for p in node.out_ports
            if node.port_key(p) in edge_map
        ]
        if len(nxt) != 1:
            return
        offset += node.latency_s
        node = space.by_id[nxt[0]]


def resolve_routes(
    space: DesignSpace, config: DesignConfiguration, catalog: RouteCatalog
) -> dict[str, dict[str, ResolvedRoute]]:
    """Per lane, per reachable destination tag: the unique resolved path.

    At a distributor, the out-port whose downstream set contains the target
    tag is taken; if several qualify, the smaller reachable set wins (the more
    specific branch), then port declaration order. `catalog` is
    `derive_routes(space, config)`, handed in so that a plant build derives it
    once for both its controller and its routes.
    """
    owner = space.port_owner
    edge_map = config.edge_map

    reach_of: dict[str, frozenset[str]] = {}

    def tags_from(module_id: str) -> frozenset[str]:
        cached = reach_of.get(module_id)
        if cached is not None:
            return cached
        m = space.by_id[module_id]
        if m.kind == ModuleKind.DESTINATION:
            result = frozenset({m.destination_tag})
        else:
            parts = []
            for p in m.out_ports:
                in_port = edge_map.get(m.port_key(p))
                if in_port is not None:
                    parts.append(tags_from(owner[in_port].module_id))
            result = frozenset().union(*parts)
        reach_of[module_id] = result
        return result

    routes: dict[str, dict[str, ResolvedRoute]] = {}
    for origin in space.origins:
        if origin.module_id not in config.connected:
            continue
        assignment = None
        for module, _ in _trunk_walk(space, config, origin.module_id):
            if module.kind == ModuleKind.ASSIGNMENT:
                assignment = module
                break
        if assignment is None:
            raise PlantBuildError(
                f"lane {origin.module_id}: no single-path trunk to an assignment module"
            )

        lane_routes: dict[str, ResolvedRoute] = {}
        for tag in catalog.reachable[origin.module_id]:
            hops: list[tuple[str, float]] = []
            offset = assignment.latency_s
            trim_offset = None
            trimmer_id = None
            m = assignment
            while m.kind != ModuleKind.DESTINATION:
                if len(m.out_ports) == 1:
                    in_port = edge_map[m.port_key(m.out_ports[0])]
                    nxt_id = owner[in_port].module_id
                else:
                    candidates = []
                    for p in m.out_ports:
                        in_port = edge_map.get(m.port_key(p))
                        if in_port is None:
                            continue
                        downstream = owner[in_port].module_id
                        down_tags = tags_from(downstream)
                        if tag in down_tags:
                            candidates.append((len(down_tags), downstream))
                    if not candidates:
                        raise PlantBuildError(
                            f"lane {origin.module_id}: {tag} unreachable past {m.module_id}"
                        )
                    nxt_id = min(candidates)[1]
                m = space.by_id[nxt_id]
                hops.append((m.module_id, offset))
                if m.kind == ModuleKind.TRIMMING and trim_offset is None:
                    trim_offset = offset
                    trimmer_id = m.module_id
                if m.kind != ModuleKind.DESTINATION:
                    offset += m.latency_s
            lane_routes[tag] = ResolvedRoute(
                offset, trim_offset, trimmer_id, m.module_id, tuple(hops)
            )
        routes[origin.module_id] = lane_routes
    return routes


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
        self.catalog = derive_routes(space, config)
        self.controller = ProductionController(
            scenario.controller, self.catalog, scenario.recipes
        )
        self.routes = resolve_routes(space, config, self.catalog)
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
        for origin, inflow in zip(space.origins, scenario.inflow):
            lane = origin.module_id
            weigh = assign = None
            for module, offset in _trunk_walk(space, config, lane):
                if module.kind == ModuleKind.WEIGHING and weigh is None:
                    weigh = (module.module_id, offset)
                elif module.kind == ModuleKind.ASSIGNMENT and assign is None:
                    assign = (module.module_id, offset)
                    break
            if weigh is None or assign is None:
                raise PlantBuildError(
                    f"lane {lane}: trunk must pass a weighing then an assignment module"
                )
            runtime = LaneRuntime(
                lane=lane,
                rate_per_min=inflow.rate_per_min,
                sampler=inflow.weights,
                weights_rng=RandomStream(seed, f"weights:{lane}"),
                arrivals_rng=(
                    RandomStream(seed, f"arrivals:{lane}")
                    if inflow.process == "poisson"
                    else None
                ),
                weigh_offset_s=weigh[1],
                assign_offset_s=assign[1] - weigh[1],
                weigh_module=weigh[0],
                assign_module=assign[0],
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
            weight_g=runtime.sampler.sample(runtime.weights_rng),
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
            for module_id, offset in route.hops:
                if module_id != route.trimmer_id:
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
            if not recipe.accepts(fillet.weight_g) or fillet.trimmed_g > recipe.max_trim_g:
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
        t.in_flight_mass_g = sum(self.live.values())
        t.events = self.kernel.executed
        t.recomputes = self.controller.recomputes
        if self.trace_rows is not None:
            self.trace_rows.sort(key=lambda row: (row[0], row[2]))
        return t
