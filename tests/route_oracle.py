"""The route walks as they were before `compile_design`, as an oracle.

`_trunk_walk` and `resolve_routes` (from `flowdse.plant`) and `derive_routes`
(from `flowdse.designspace`) below are copied unchanged from the version that
walked each configuration's wiring four times per plant build. `RouteCatalog`
is that version's catalog, `distributor_ports` included. A test holds
`compile_design` against them field by field; `legacy_lanes` gives the
per-lane weigh and assign facts the way `PlantSimulation.__init__` derived
them with `_trunk_walk`. Configurations no longer store their connected
modules, so the walks' three reads of that set derive it with
`connected_modules`.
"""

from __future__ import annotations

from dataclasses import dataclass

from configuration_oracle import connected_modules
from flowdse.designspace import (
    DesignConfiguration,
    DesignSpace,
    ModuleKind,
    PlantBuildError,
    ResolvedRoute,
)


@dataclass(frozen=True)
class RouteCatalog:
    """Static routing facts derived from one design's wiring.

    reachable: lane id -> destination tags reachable from its assignment stage.
    has_trimmer: lane id -> whether a trimming module lies on the lane's path.
    distributor_ports: distributor id -> (out port -> reachable tag frozenset).
    """

    reachable: dict[str, frozenset[str]]
    has_trimmer: dict[str, bool]
    distributor_ports: dict[str, dict[str, frozenset[str]]]

    @property
    def lanes(self) -> list[str]:
        return list(self.reachable)


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
    connected = connected_modules(space, config)

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
        if origin.module_id not in connected:
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


def derive_routes(space: DesignSpace, config: DesignConfiguration) -> RouteCatalog:
    """Static routing facts for the controller, from one configuration's wiring.

    A lane "has trimming" only when a trimming module sits on the trunk between
    its assignment stage and the first distributor, i.e. before any branching:
    only then is a trim instruction guaranteed to be executed whatever the
    destination.
    """
    owner = space.port_owner
    edge_map = config.edge_map
    connected = connected_modules(space, config)

    def successors(module_id: str) -> list[str]:
        m = space.by_id[module_id]
        out = []
        for p in m.out_ports:
            in_port = edge_map.get(m.port_key(p))
            if in_port is not None:
                out.append(owner[in_port].module_id)
        return out

    reach_memo: dict[str, frozenset[str]] = {}

    def reach(module_id: str) -> frozenset[str]:
        cached = reach_memo.get(module_id)
        if cached is not None:
            return cached
        m = space.by_id[module_id]
        if m.kind == ModuleKind.DESTINATION:
            tags = frozenset({m.destination_tag})
        else:
            tags = frozenset().union(*[reach(s) for s in successors(module_id)])
        reach_memo[module_id] = tags
        return tags

    reachable: dict[str, frozenset[str]] = {}
    has_trimmer: dict[str, bool] = {}
    for origin in space.origins:
        if origin.module_id not in connected:
            continue
        # walk the trunk to the assignment stage, then on to the first branch
        node = origin.module_id
        assignment_seen = False
        trimmer_on_trunk = False
        while True:
            m = space.by_id[node]
            if m.kind == ModuleKind.ASSIGNMENT:
                assignment_seen = True
                reachable[origin.module_id] = reach(node)
            if m.kind == ModuleKind.TRIMMING and assignment_seen:
                trimmer_on_trunk = True
            nxt = successors(node)
            if len(nxt) != 1 or m.kind == ModuleKind.DESTINATION:
                break
            node = nxt[0]
        if origin.module_id not in reachable:
            reachable[origin.module_id] = reach(origin.module_id)
        has_trimmer[origin.module_id] = trimmer_on_trunk

    distributor_ports: dict[str, dict[str, frozenset[str]]] = {}
    for m in space.modules:
        if m.kind != ModuleKind.DISTRIBUTION or m.module_id not in connected:
            continue
        ports = {}
        for p in m.out_ports:
            in_port = edge_map.get(m.port_key(p))
            if in_port is not None:
                ports[p] = reach(owner[in_port].module_id)
        distributor_ports[m.module_id] = ports

    return RouteCatalog(reachable, has_trimmer, distributor_ports)


def legacy_lanes(space: DesignSpace, config: DesignConfiguration) -> dict[str, tuple]:
    """Per origin: (weigh module, weigh offset, assign module, assign offset)."""
    lanes = {}
    for origin in space.origins:
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
        lanes[lane] = (weigh[0], weigh[1], assign[0], assign[1] - weigh[1])
    return lanes
