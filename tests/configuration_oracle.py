"""A full validity audit of one configuration, as an oracle for enumeration.

`validate_configuration` and `_reaches_destination` were part of
`flowdse.designspace`, where only tests read them. A configuration stores
only its chosen edges; `connected_modules` derives the set of connected
modules that it once stored beside them, so the audit's check that the two
agreed is gone, as is its check for a stored module id the space lacks.
"""

from __future__ import annotations

from flowdse.designspace import DesignConfiguration, DesignSpace, ModuleKind


def connected_modules(space: DesignSpace, config: DesignConfiguration) -> set[str]:
    """The origins plus the owner of every chosen in-port."""
    owner = space.port_owner
    return {m.module_id for m in space.origins} | {
        owner[in_port].module_id for _, in_port in config.chosen
    }


def validate_configuration(space: DesignSpace, config: DesignConfiguration) -> list[str]:
    """Full validity audit for one configuration (hand-built ones included)."""
    problems = []
    owner = space.port_owner
    edge_map = config.edge_map
    allowed = set(space.allowed)
    feeds: dict[str, int] = {}
    reached: set[str] = {m.module_id for m in space.origins}
    connected = connected_modules(space, config)

    for out_port, in_port in config.chosen:
        if (out_port, in_port) not in allowed:
            problems.append(f"connection {out_port} -> {in_port} is not in the matrix")
            continue
        feeds[in_port] = feeds.get(in_port, 0) + 1
        reached.add(owner[in_port].module_id)

    for in_port, count in feeds.items():
        target = owner[in_port]
        limit_one = target.kind != ModuleKind.DESTINATION or not target.merge_allowed
        if count > 1 and limit_one:
            problems.append(f"in-port {in_port} fed by {count} connections")

    for module_id in connected:
        m = space.by_id[module_id]
        wired_out = [p for p in m.out_ports if m.port_key(p) in edge_map]
        if module_id in reached and len(wired_out) != len(m.out_ports):
            problems.append(f"{module_id}: reached but not all out-ports connected")

    for m in space.modules:
        if m.required and m.module_id not in connected:
            problems.append(f"required module {m.module_id} is not connected")

    # cycle check over module-level edges, destinations excluded as sinks
    succ: dict[str, list[str]] = {}
    for out_port, in_port in config.chosen:
        src = owner[out_port].module_id
        dst = owner[in_port].module_id
        if space.by_id[dst].kind != ModuleKind.DESTINATION:
            succ.setdefault(src, []).append(dst)
    state: dict[str, int] = {}

    def has_cycle(node: str) -> bool:
        state[node] = 1
        for nxt in succ.get(node, ()):
            mark = state.get(nxt)
            if mark == 1 or (mark is None and has_cycle(nxt)):
                return True
        state[node] = 2
        return False

    if any(state.get(n) is None and has_cycle(n) for n in list(succ)):
        problems.append("cycle among non-destination modules")

    for origin in space.origins:
        if origin.module_id in connected and not _reaches_destination(
            space, config, origin.module_id
        ):
            problems.append(f"{origin.module_id}: no destination reachable")
    return problems


def _reaches_destination(space: DesignSpace, config: DesignConfiguration, start: str) -> bool:
    owner = space.port_owner
    edge_map = config.edge_map
    todo = [start]
    seen = set()
    while todo:
        module_id = todo.pop()
        if module_id in seen:
            continue
        seen.add(module_id)
        m = space.by_id[module_id]
        if m.kind == ModuleKind.DESTINATION:
            return True
        for p in m.out_ports:
            in_port = edge_map.get(m.port_key(p))
            if in_port is not None:
                todo.append(owner[in_port].module_id)
    return False
