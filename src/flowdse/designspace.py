"""Design spaces: module declarations, connection matrix, enumeration, dedup, compiling.

A design space is a set of module declarations plus a boolean matrix saying
which out-port may feed which in-port. Enumeration expands a frontier of
unconnected out-ports starting from the Origin modules, picking one allowed
target per out-port, and yields every complete wiring that satisfies the
validity rules:

  * all-or-none: once a module is reached, every one of its out-ports must be
    connected (dead ends are pruned, not yielded);
  * single feed: in-ports take exactly one incoming connection, except
    merge-capable destinations which take any number;
  * required modules (if declared) must end up connected;
  * every flow terminates in a Destination, and the wiring is acyclic; both
    fall out of the frontier construction.

Deduplication collapses configurations that differ only by relabeling
interchangeable module instances. Two modules are interchangeable when their
declarations match and swapping them (ports mapped positionally) maps the
allowed-connection set onto itself; the canonical key is the smallest edge
list over all relabelings within those classes.

Compiling a configuration (`compile_design`) walks its wiring once and gives
every routing fact a plant and its controller need: per lane, the weighing
and assignment modules with their offsets, the reachable destination tags,
whether the lane can trim, and one route per tag. Lanes are compiled once
per distinct wiring reachable from their origin and kept on the space.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from flowdse.controller import RouteCatalog


# compiled lanes a space keeps (`compile_design`); past this many distinct lane
# wirings, further lanes are compiled afresh each time
LANE_CACHE_ENTRIES = 4096


class DesignSpaceError(ValueError):
    """A design-space file failed validation; message names the offending part."""


class ModuleKind(str, Enum):
    ORIGIN = "origin"
    WEIGHING = "weighing"
    ASSIGNMENT = "assignment"
    TRIMMING = "trimming"
    DISTRIBUTION = "distribution"
    DESTINATION = "destination"


# (in-port count, out-port count) per kind; destinations take one logical
# in-port that may receive several connections
PORT_SHAPES = {
    ModuleKind.ORIGIN: (0, 1),
    ModuleKind.WEIGHING: (1, 1),
    ModuleKind.ASSIGNMENT: (1, 1),
    ModuleKind.TRIMMING: (1, 1),
    ModuleKind.DISTRIBUTION: (1, 2),
    ModuleKind.DESTINATION: (1, 0),
}


@dataclass(frozen=True)
class ModuleSpec:
    module_id: str
    kind: ModuleKind
    in_ports: tuple[str, ...] = ()
    out_ports: tuple[str, ...] = ()
    latency_s: float = 1.0
    destination_tag: str | None = None
    required: bool = False
    merge_allowed: bool = False

    def port_key(self, port: str) -> str:
        return f"{self.module_id}.{port}"

    def signature(self) -> tuple:
        """Everything that must match for two modules to be interchangeable."""
        return (
            self.kind,
            len(self.in_ports),
            len(self.out_ports),
            self.latency_s,
            self.destination_tag,
            self.required,
            self.merge_allowed,
        )


@dataclass(frozen=True)
class DesignSpace:
    space_id: str
    modules: tuple[ModuleSpec, ...]
    allowed: tuple[tuple[str, str], ...]

    @cached_property
    def by_id(self) -> dict[str, ModuleSpec]:
        return {m.module_id: m for m in self.modules}

    @cached_property
    def port_owner(self) -> dict[str, ModuleSpec]:
        owners: dict[str, ModuleSpec] = {}
        for m in self.modules:
            for p in m.in_ports + m.out_ports:
                owners[m.port_key(p)] = m
        return owners

    @cached_property
    def choices(self) -> dict[str, tuple[str, ...]]:
        """Out-port -> allowed in-ports, in matrix declaration order."""
        table: dict[str, list[str]] = {
            m.port_key(p): [] for m in self.modules for p in m.out_ports
        }
        for out_port, in_port in self.allowed:
            table[out_port].append(in_port)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def origins(self) -> tuple[ModuleSpec, ...]:
        return tuple(m for m in self.modules if m.kind == ModuleKind.ORIGIN)

    @cached_property
    def destination_tags(self) -> set[str]:
        return {m.destination_tag for m in self.modules if m.kind == ModuleKind.DESTINATION}

    @property
    def lanes(self) -> list[str]:
        return [m.module_id for m in self.origins]

    @cached_property
    def out_port_keys(self) -> dict[str, tuple[str, ...]]:
        """Module id -> its out-port keys, in declaration order."""
        return {m.module_id: tuple(m.port_key(p) for p in m.out_ports) for m in self.modules}

    @cached_property
    def lane_cache(self) -> dict[tuple, CompiledLane]:
        """Compiled lanes by wiring key, filled by `compile_design` in this process."""
        return {}


@dataclass(frozen=True)
class DesignConfiguration:
    """One complete wiring of the space: a chosen in-port per connected out-port."""

    index: int
    chosen: tuple[tuple[str, str], ...]  # sorted (out-port, in-port) pairs

    @property
    def edge_map(self) -> dict[str, str]:
        """out-port -> chosen in-port, built on each read: a cached dict would
        stay with every configuration the parent has compiled."""
        return dict(self.chosen)


def load_design_space(path: str | Path) -> DesignSpace:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise DesignSpaceError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise DesignSpaceError(f"{path} is not valid JSON: {err}") from None
    return parse_design_space(raw, fallback_id=path.stem)


def _field(raw: dict, key: str, where: str, default, valid, wanted: str):
    """raw[key] (default if absent) when `valid` accepts it; else an error naming it."""
    value = raw.get(key, default)
    if not valid(value):
        raise DesignSpaceError(f"{where}.{key}: must be {wanted}, got {value!r:.40}")
    return _utf8(value, f"{where}.{key}")


def _utf8(value, where: str):
    """value, unless it is a string, or a list holding one, that UTF-8 cannot
    encode: a JSON escape can spell a lone surrogate, which no output file can hold."""
    for text in value if isinstance(value, list) else [value]:
        if isinstance(text, str):
            try:
                text.encode()
            except UnicodeEncodeError:
                raise DesignSpaceError(f"{where}: holds a lone surrogate, {text!r:.40}") from None
    return value


def _is_list(value) -> bool:
    return isinstance(value, list)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def parse_design_space(raw: dict, fallback_id: str = "space") -> DesignSpace:
    if not isinstance(raw, dict):
        raise DesignSpaceError(f"{fallback_id}: must be a JSON object, got {raw!r:.40}")
    space_id = _field(raw, "id", fallback_id, fallback_id, lambda v: isinstance(v, str), "a string")
    modules = []
    for i, m in enumerate(_field(raw, "modules", space_id, [], _is_list, "a JSON array")):
        where = f"modules[{i}]"
        if not isinstance(m, dict):
            raise DesignSpaceError(f"{where}: must be a JSON object, got {m!r:.40}")
        try:
            kind = ModuleKind(m["kind"])
            module_id = m["id"]
        except KeyError as missing:
            raise DesignSpaceError(f"{where}: missing field {missing}") from None
        except ValueError:
            raise DesignSpaceError(f"{where}: unknown kind {m.get('kind')!r}") from None
        if not isinstance(module_id, str):
            raise DesignSpaceError(f"{where}.id: must be a string, got {module_id!r:.40}")
        _utf8(module_id, f"{where}.id")
        try:
            latency_s = float(m.get("latency_s", 1.0))
        except (TypeError, ValueError):
            raise DesignSpaceError(
                f"{where}.latency_s: not a number: {m['latency_s']!r}"
            ) from None
        tag = _field(
            m, "destination_tag", where, None, lambda v: v is None or isinstance(v, str), "a string"
        )
        flags = {}
        for key, default in (("required", False), ("merge_allowed", tag == "fillet_strips")):
            # bool("false") is True: only a JSON boolean says what it means
            flags[key] = value = m.get(key, default)
            if not isinstance(value, bool):
                raise DesignSpaceError(f"{where}.{key}: must be true or false, got {value!r}")
        in_ports, out_ports = (
            tuple(_field(m, key, where, [], _is_string_list, "a list of strings"))
            for key in ("in_ports", "out_ports")
        )
        spec = ModuleSpec(
            module_id=module_id,
            kind=kind,
            in_ports=in_ports,
            out_ports=out_ports,
            latency_s=latency_s,
            destination_tag=tag,
            **flags,
        )
        modules.append(spec)
    allowed = []
    for i, pair in enumerate(_field(raw, "allowed", space_id, [], _is_list, "a JSON array")):
        if not (_is_string_list(pair) and len(pair) == 2):
            raise DesignSpaceError(
                f"allowed[{i}]: must be an [out-port, in-port] pair, got {pair!r:.60}"
            )
        allowed.append(tuple(_utf8(pair, f"allowed[{i}]")))
    space = DesignSpace(space_id, tuple(modules), tuple(allowed))
    problems = space_problems(space)
    if problems:
        raise DesignSpaceError(f"{space_id}: " + "; ".join(problems))
    return space


def space_problems(space: DesignSpace) -> list[str]:
    """Static well-formedness checks; returns human-readable violations."""
    problems = []
    seen_ids = set()
    seen_tags = set()
    for i, m in enumerate(space.modules):
        if m.module_id in seen_ids:
            problems.append(f"duplicate module id {m.module_id!r}")
        seen_ids.add(m.module_id)
        n_in, n_out = PORT_SHAPES[m.kind]
        if len(m.in_ports) != n_in or len(m.out_ports) != n_out:
            problems.append(
                f"{m.module_id}: {m.kind.value} needs {n_in} in / {n_out} out ports, "
                f"has {len(m.in_ports)}/{len(m.out_ports)}"
            )
        # NaN would pass a `< 0` test and leave event times incomparable
        if not 0 <= m.latency_s < math.inf:
            problems.append(
                f"modules[{i}].latency_s: must be finite and non-negative, got {m.latency_s}"
            )
        if m.kind == ModuleKind.DESTINATION:
            if not m.destination_tag:
                problems.append(f"{m.module_id}: destination without a tag")
            elif m.destination_tag in seen_tags:
                problems.append(f"{m.module_id}: duplicate destination tag {m.destination_tag!r}")
            seen_tags.add(m.destination_tag)
        elif m.destination_tag:
            problems.append(f"{m.module_id}: only destinations carry a tag")
    if not any(m.kind == ModuleKind.ORIGIN for m in space.modules):
        problems.append("no origin modules")
    if not any(m.kind == ModuleKind.DESTINATION for m in space.modules):
        problems.append("no destination modules")

    ports = set(space.port_owner)
    out_ports = {m.port_key(p) for m in space.modules for p in m.out_ports}
    in_ports = ports - out_ports
    seen_pairs = set()
    for out_port, in_port in space.allowed:
        if out_port not in out_ports:
            problems.append(f"allowed pair references unknown out-port {out_port!r}")
        elif in_port not in in_ports:
            problems.append(f"allowed pair references unknown in-port {in_port!r}")
        if (out_port, in_port) in seen_pairs:
            problems.append(f"duplicate allowed pair {out_port} -> {in_port}")
        seen_pairs.add((out_port, in_port))
    # not `space.choices`: it has no row for an unknown out-port named above
    wired = {out_port for out_port, _ in space.allowed}
    for m in space.modules:
        for p in m.out_ports:
            if m.port_key(p) not in wired:
                problems.append(f"out-port {m.port_key(p)} has no allowed connection (empty row)")
    return problems


def enumerate_configurations(space: DesignSpace) -> Iterator[DesignConfiguration]:
    """Yield every valid configuration exactly once, in a deterministic order.

    Backtracking over a discovery-ordered frontier of out-ports; the yield
    order (and so each configuration's index) is fixed by module and matrix
    declaration order. Every configuration's `chosen` holds the same pair
    objects, one per allowed pair, so a large batch of configurations costs
    little more than their pair tuples.
    """
    choices = space.choices
    owner = space.port_owner
    required = {m.module_id for m in space.modules if m.required}
    pairs = {(o, i): (o, i) for o, targets in choices.items() for i in targets}

    frontier: list[str] = []
    connected: set[str] = set()
    for origin in space.origins:
        connected.add(origin.module_id)
        frontier.extend(origin.port_key(p) for p in origin.out_ports)

    chosen: dict[str, tuple[str, str]] = {}  # out-port -> its (out-port, in-port) pair
    feeds: dict[str, int] = {}
    counter = itertools.count()

    def expand(pos: int) -> Iterator[DesignConfiguration]:
        if pos == len(frontier):
            if required <= connected:
                yield DesignConfiguration(next(counter), tuple(sorted(chosen.values())))
            return
        out_port = frontier[pos]
        for in_port in choices[out_port]:
            target = owner[in_port]
            taken = feeds.get(in_port, 0)
            if taken and not (target.kind == ModuleKind.DESTINATION and target.merge_allowed):
                continue
            chosen[out_port] = pairs[out_port, in_port]
            feeds[in_port] = taken + 1
            newly_reached = target.module_id not in connected
            if newly_reached:
                connected.add(target.module_id)
                frontier.extend(target.port_key(p) for p in target.out_ports)
            yield from expand(pos + 1)
            if newly_reached:
                connected.discard(target.module_id)
                if target.out_ports:
                    del frontier[-len(target.out_ports):]
            feeds[in_port] = taken
            del chosen[out_port]

    yield from expand(0)


# -- interchangeability and canonical keys ----------------------------------


def interchangeable_classes(space: DesignSpace) -> list[tuple[str, ...]]:
    """Groups of modules whose pairwise swap leaves the allowed matrix unchanged."""
    allowed = set(space.allowed)
    groups: dict[str, str] = {}  # module id -> class leader

    def find(x: str) -> str:
        while groups[x] != x:
            groups[x] = groups[groups[x]]
            x = groups[x]
        return x

    candidates = [m for m in space.modules if m.kind != ModuleKind.ORIGIN]
    for m in candidates:
        groups[m.module_id] = m.module_id
    for a, b in itertools.combinations(candidates, 2):
        if a.signature() != b.signature():
            continue
        if _swap_preserves(allowed, a, b):
            ra, rb = find(a.module_id), find(b.module_id)
            if ra != rb:
                groups[rb] = ra

    classes: dict[str, list[str]] = {}
    for m in candidates:
        classes.setdefault(find(m.module_id), []).append(m.module_id)
    return [tuple(members) for members in classes.values() if len(members) > 1]


def _port_swap_map(a: ModuleSpec, b: ModuleSpec) -> dict[str, str]:
    mapping = {}
    for pa, pb in zip(a.in_ports + a.out_ports, b.in_ports + b.out_ports):
        mapping[a.port_key(pa)] = b.port_key(pb)
        mapping[b.port_key(pb)] = a.port_key(pa)
    return mapping


def _swap_preserves(allowed: set[tuple[str, str]], a: ModuleSpec, b: ModuleSpec) -> bool:
    mapping = _port_swap_map(a, b)
    for out_port, in_port in allowed:
        image = (mapping.get(out_port, out_port), mapping.get(in_port, in_port))
        if image not in allowed:
            return False
    return True


def canonical_key(
    space: DesignSpace,
    config: DesignConfiguration,
    classes: list[tuple[str, ...]] | None = None,
) -> tuple[tuple[str, str], ...]:
    """Smallest edge-list encoding over relabelings of interchangeable modules."""
    if classes is None:
        classes = interchangeable_classes(space)
    if not classes:
        return config.chosen

    best = config.chosen
    per_class = [list(itertools.permutations(cls)) for cls in classes]
    for combo in itertools.product(*per_class):
        mapping: dict[str, str] = {}
        identity = True
        for cls, perm in zip(classes, combo):
            for src, dst in zip(cls, perm):
                if src == dst:
                    continue
                identity = False
                a, b = space.by_id[src], space.by_id[dst]
                for pa, pb in zip(a.in_ports + a.out_ports, b.in_ports + b.out_ports):
                    mapping[a.port_key(pa)] = b.port_key(pb)
        if identity:
            continue
        relabeled = tuple(
            sorted(
                (mapping.get(o, o), mapping.get(i, i)) for o, i in config.chosen
            )
        )
        if relabeled < best:
            best = relabeled
    return best


def deduplicate(
    space: DesignSpace, configs: Iterable[DesignConfiguration]
) -> list[tuple[DesignConfiguration, int]]:
    """Collapse configurations sharing a canonical key.

    Returns (representative, multiplicity) pairs in first-seen order; the
    representative is the member with the smallest raw edge list.
    """
    classes = interchangeable_classes(space)
    table: dict[tuple, list] = {}
    order: list[tuple] = []
    for config in configs:
        key = canonical_key(space, config, classes)
        entry = table.get(key)
        if entry is None:
            table[key] = [config, 1]
            order.append(key)
        else:
            entry[1] += 1
            if config.chosen < entry[0].chosen:
                entry[0] = config
    return [(table[key][0], table[key][1]) for key in order]


# -- compiling a design --------------------------------------------------------


class PlantBuildError(RuntimeError):
    """The configuration cannot serve the scenario (construction-time)."""


@dataclass(frozen=True)
class ResolvedRoute:
    """Path facts from a lane's assignment module to one destination tag."""

    destination_offset_s: float  # assignment arrival -> destination arrival
    trim_offset_s: float | None  # assignment arrival -> trimmer arrival
    trimmer_id: str | None
    destination_id: str
    hops: tuple[tuple[str, float], ...]  # (module id, arrival offset), dest included


@dataclass(frozen=True)
class CompiledLane:
    """Everything a plant needs to know about one lane's wiring.

    One instance serves every design that shares the lane's wiring
    (`compile_design`), so no reader may mutate it, `routes` included.
    """

    weigh_module: str
    weigh_offset_s: float  # origin arrival -> weighing arrival
    assign_module: str
    assign_offset_s: float  # weighing arrival -> assignment arrival
    reachable: frozenset[str]  # destination tags reachable from the assignment
    has_trimmer: bool  # a trimmer sits after the assignment, before any branch
    routes: dict[str, ResolvedRoute]  # per reachable tag


@dataclass(frozen=True)
class CompiledDesign:
    lanes: dict[str, CompiledLane]  # per origin, in declaration order

    @property
    def catalog(self) -> RouteCatalog:
        return RouteCatalog(
            {lane: c.reachable for lane, c in self.lanes.items()},
            {lane: c.has_trimmer for lane, c in self.lanes.items()},
        )

    @property
    def routes(self) -> dict[str, dict[str, ResolvedRoute]]:
        return {lane: c.routes for lane, c in self.lanes.items()}


def compile_design(space: DesignSpace, config: DesignConfiguration) -> CompiledDesign:
    """Walk one configuration's wiring once, lane by lane, for every routing fact.

    A lane's trunk is its single path from the origin: it must pass a weighing
    module and then an assignment module, or the design cannot be built. From
    the assignment on, the walk follows every branch. At a distributor each
    destination tag takes the out-port whose downstream reaches it; if several
    do, the smallest reachable set wins (the more specific branch), then the
    smaller downstream module id. Offsets are cumulative latencies, measured
    from the origin on the trunk and from the assignment on a route.

    A lane "has a trimmer" only when a trimming module sits after the
    assignment and before the first module with more than one successor: only
    then is a trim instruction executed whatever the destination. A route may
    still pass a trimmer behind a distributor; it records that trimmer.

    A lane's facts depend only on the wiring reachable from its origin, and
    many designs share a lane's wiring. So each compiled lane is kept on the
    space (`DesignSpace.lane_cache`, up to LANE_CACHE_ENTRIES of them) under
    its `_lane_key`; a lane that cannot be built is never kept, and raises
    again for every design that contains it.
    """
    edge_map = config.edge_map
    cache = space.lane_cache
    lanes: dict[str, CompiledLane] = {}
    for origin in space.origins:
        key = _lane_key(space, edge_map, origin.module_id)
        compiled = cache.get(key)
        if compiled is None:
            compiled = _compile_lane(space, edge_map, origin)
            if len(cache) < LANE_CACHE_ENTRIES:
                cache[key] = compiled
        lanes[origin.module_id] = compiled
    return CompiledDesign(lanes)


def _lane_key(space: DesignSpace, edge_map: dict[str, str], lane: str) -> tuple:
    """The wiring a lane's walk can see: its origin, then the in-port chosen for
    each out-port reachable from it (None if unconnected), in walk order.

    The walk order follows from the choices themselves, so equal keys mean
    equal reachable wirings. Each module is expanded once, so a hand-built
    cycle still ends.
    """
    out_ports = space.out_port_keys
    owner = space.port_owner
    key = [lane]
    seen = {lane}
    todo = [lane]
    while todo:
        for out_port in out_ports[todo.pop()]:
            in_port = edge_map.get(out_port)
            key.append(in_port)
            if in_port is not None:
                target = owner[in_port].module_id
                if target not in seen:
                    seen.add(target)
                    todo.append(target)
    return tuple(key)


def _compile_lane(space: DesignSpace, edge_map: dict[str, str], origin: ModuleSpec) -> CompiledLane:
    """One lane of `compile_design`, walked afresh."""
    owner = space.port_owner
    out_ports = space.out_port_keys
    by_id = space.by_id
    reach_of: dict[str, frozenset[str]] = {}

    def successors(m: ModuleSpec) -> list[ModuleSpec]:
        return [owner[edge_map[p]] for p in out_ports[m.module_id] if p in edge_map]

    def reach(m: ModuleSpec) -> frozenset[str]:
        found = reach_of.get(m.module_id)
        if found is None:
            if m.kind == ModuleKind.DESTINATION:
                found = frozenset({m.destination_tag})
            else:
                found = frozenset().union(*[reach(s) for s in successors(m)])
            reach_of[m.module_id] = found
        return found

    def follow(m, offset, hops, trim, tags, on_trunk, routes) -> bool:
        """Route `tags` on from module m, entered `offset` s after the assignment.

        Fills `routes`; returns whether a trimmer sits on the trunk.
        """
        hops += ((m.module_id, offset),)
        trims = m.kind == ModuleKind.TRIMMING
        if trims and trim is None:
            trim = (offset, m.module_id)
        if m.kind == ModuleKind.DESTINATION:
            trim_offset, trimmer_id = trim or (None, None)
            routes[m.destination_tag] = ResolvedRoute(
                offset, trim_offset, trimmer_id, m.module_id, hops
            )
            return False
        trunk_trims = branch(m, offset + m.latency_s, hops, trim, tags, on_trunk, routes)
        return trunk_trims or (trims and on_trunk)

    def branch(m, offset, hops, trim, tags, on_trunk, routes) -> bool:
        nxt = successors(m)
        on_trunk = on_trunk and len(nxt) == 1
        if len(m.out_ports) == 1:
            return follow(nxt[0], offset, hops, trim, tags, on_trunk, routes)
        by_module: dict[str, set[str]] = {}
        for tag in tags:
            _, chosen = min((len(reach(s)), s.module_id) for s in nxt if tag in reach(s))
            by_module.setdefault(chosen, set()).add(tag)
        return any(
            [
                follow(by_id[module_id], offset, hops, trim, sub, on_trunk, routes)
                for module_id, sub in by_module.items()
            ]
        )

    lane = origin.module_id
    node, offset, weigh = origin, 0.0, None
    # bounded, so that a hand-built cyclic wiring cannot loop forever
    for _ in range(len(space.modules)):
        if node.kind == ModuleKind.WEIGHING and weigh is None:
            weigh = (node.module_id, offset)
        nxt = successors(node)
        if node.kind in (ModuleKind.ASSIGNMENT, ModuleKind.DESTINATION) or len(nxt) != 1:
            break
        offset += node.latency_s
        node = nxt[0]
    if weigh is None or node.kind != ModuleKind.ASSIGNMENT:
        raise PlantBuildError(f"lane {lane}: trunk must pass a weighing then an assignment module")
    reachable = reach(node)
    routes: dict[str, ResolvedRoute] = {}
    has_trimmer = branch(node, node.latency_s, (), None, reachable, True, routes)
    return CompiledLane(
        weigh_module=weigh[0],
        weigh_offset_s=weigh[1],
        assign_module=node.module_id,
        assign_offset_s=offset - weigh[1],
        reachable=reachable,
        has_trimmer=has_trimmer,
        routes=routes,
    )
