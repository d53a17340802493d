"""BFS spanning tree and up/down link orientation.

Implements the orientation rule from the paper's introduction: compute
a breadth-first spanning tree of the switch fabric, then define the
*up* end of every switch-to-switch link as

1. the end whose switch is closer to the root in the spanning tree, or
2. the end whose switch has the lower id, when both ends sit at the
   same tree level.

Every cycle then contains at least one up link and one down link, and
forbidding down->up transitions breaks all cyclic channel
dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.routing.routes import Direction, RouteError
from repro.topology.graph import Topology

__all__ = ["UpDownOrientation", "build_orientation", "updown_violations"]


def updown_violations(
    table: dict[tuple[int, int], Direction],
    switch_path: list[int] | tuple[int, ...],
) -> list[int]:
    """Indices (into ``switch_path``) of the switches where a forbidden
    down->up transition occurs, in one pass over a direction table
    (:meth:`UpDownOrientation.pair_direction_table`)."""
    out = []
    down = False
    for i, hop in enumerate(zip(switch_path, switch_path[1:])):
        d = table.get(hop)
        if d is None:
            raise RouteError(
                f"switch path broken between {hop[0]} and {hop[1]}")
        if d is Direction.UP:
            if down:
                out.append(i)  # the violation happens AT switch_path[i]
            down = False
        else:
            down = True
    return out


@dataclass
class UpDownOrientation:
    """Orientation of every switch-to-switch link plus tree metadata."""

    root: int
    # switch -> BFS tree depth (the topology's shared distance map from
    # the root; treat as immutable)
    level: dict[int, int]
    # link_id -> switch id of the *up* end
    up_end: dict[int, int] = field(default_factory=dict)
    # (topology, table) caches built lazily by pair_direction_table()
    # and phase_graph(); excluded from equality so orientations still
    # compare by structure.
    _dir_cache: Optional[tuple] = field(default=None, repr=False,
                                        compare=False, init=False)
    _phase_cache: Optional[tuple] = field(default=None, repr=False,
                                          compare=False, init=False)

    def direction(self, link_id: int, from_switch: int, to_switch: int) -> Direction:
        """Direction of traversing ``link_id`` from ``from_switch``.

        Moving *toward* the up end is the UP direction.
        """
        up = self.up_end.get(link_id)
        if up is None:
            raise RouteError(f"link {link_id} has no orientation (host link?)")
        if to_switch == up:
            return Direction.UP
        if from_switch == up:
            return Direction.DOWN
        raise RouteError(
            f"link {link_id} does not join switches {from_switch},{to_switch}"
        )

    def is_valid_transition(
        self, prev: Optional[Direction], nxt: Direction
    ) -> bool:
        """up*/down* legality: never UP after DOWN."""
        return not (prev is Direction.DOWN and nxt is Direction.UP)

    def pair_direction_table(self, topo: Topology) -> dict[tuple[int, int], Direction]:
        """Batched direction lookup: ``(from_switch, to_switch) -> Direction``.

        Parallel links between the same pair always orient identically
        (the rule depends only on endpoint levels/ids), so one entry per
        ordered switch pair suffices.  Built once per (orientation,
        topology) and reused by every path scan — this replaces the
        per-hop ``links_between`` rescan that dominated batched route
        construction on large fabrics.
        """
        cached = self._dir_cache
        if cached is not None and cached[0] is topo:
            return cached[1]
        table: dict[tuple[int, int], Direction] = {}
        for link in topo.links:
            up = self.up_end.get(link.link_id)
            if up is None:
                continue
            a, b = link.node_a, link.node_b
            if up == a:
                table[(b, a)] = Direction.UP
                table[(a, b)] = Direction.DOWN
            else:
                table[(a, b)] = Direction.UP
                table[(b, a)] = Direction.DOWN
        self._dir_cache = (topo, table)
        return table

    def phase_graph(
        self, topo: Topology
    ) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Legal up*/down* hops as a graph over ``(switch, phase)`` states.

        Phase 0 may still go UP; phase 1 has taken a DOWN hop, so only
        DOWN hops remain.  Each state maps to its successor states in
        the routers' tie-break order: UP hops first, then by neighbour
        id.  Built once per (orientation, topology), like
        :meth:`pair_direction_table`, so route searches read one tuple
        per expanded state.
        """
        cached = self._phase_cache
        if cached is not None and cached[0] is topo:
            return cached[1]
        table = self.pair_direction_table(topo)
        graph: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for u, nbrs in topo.switch_adjacency().items():
            ups = tuple((v, 0) for v in nbrs if table[(u, v)] is Direction.UP)
            downs = tuple((v, 1) for v in nbrs
                          if table[(u, v)] is Direction.DOWN)
            graph[(u, 0)] = ups + downs
            graph[(u, 1)] = downs
        self._phase_cache = (topo, graph)
        return graph

    def is_valid_updown_path(
        self, topo: Topology, switch_path: list[int] | tuple[int, ...]
    ) -> bool:
        """True when a switch path never turns UP after a DOWN hop."""
        return not self.violations(topo, switch_path)

    def violations(
        self, topo: Topology, switch_path: list[int] | tuple[int, ...]
    ) -> list[int]:
        """Indices (into ``switch_path``) of switches where a forbidden
        down->up transition occurs."""
        return updown_violations(self.pair_direction_table(topo),
                                 switch_path)


def choose_root(topo: Topology) -> int:
    """Default root selection: the switch minimizing BFS eccentricity,
    ties broken by lowest id (a common Autonet/Myrinet mapper policy).

    Distance maps come from the topology's per-source memo
    (:meth:`Topology.switch_distances`, shared with the minimal router
    and :func:`build_orientation`), so the all-pairs BFS cost is paid at
    most once per topology and only when an orientation or route is
    actually requested — building a topology alone stays O(V + E).
    """
    switches = topo.switches()
    if not switches:
        raise RouteError("topology has no switches")
    n = len(switches)

    def eccentricity(src: int) -> int:
        dist = topo.switch_distances(src)
        if len(dist) != n:
            raise RouteError("switch fabric is not connected")
        return max(dist.values())

    return min(switches, key=lambda s: (eccentricity(s), s))


def build_orientation(
    topo: Topology, root: Optional[int] = None
) -> UpDownOrientation:
    """Compute the BFS spanning tree and orient every fabric link."""
    switches = topo.switches()
    if not switches:
        raise RouteError("topology has no switches")
    if root is None:
        root = choose_root(topo)
    elif root not in switches:
        raise RouteError(f"root {root} is not a switch")

    # Tree levels are BFS hop distances from the root (neighbours
    # visited by ascending id, so levels are deterministic).
    level = topo.switch_distances(root)
    if len(level) != len(switches):
        missing = sorted(set(switches) - set(level))
        raise RouteError(f"switch fabric not connected; unreachable: {missing}")

    orientation = UpDownOrientation(root=root, level=level)
    for link in topo.links:
        if not (topo.is_switch(link.node_a) and topo.is_switch(link.node_b)):
            continue
        la, lb = level[link.node_a], level[link.node_b]
        if la < lb:
            up = link.node_a
        elif lb < la:
            up = link.node_b
        else:
            up = min(link.node_a, link.node_b)
        orientation.up_end[link.link_id] = up
    return orientation
