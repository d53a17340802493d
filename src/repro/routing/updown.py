"""Shortest *valid* up*/down* source routes.

The router searches the switch fabric with BFS over states
``(switch, phase)`` where ``phase`` records whether a DOWN hop has
already been taken (after which UP hops are forbidden).  This yields
the shortest legal up*/down* path for every pair — the routing the
Myrinet mapper computes, and the baseline the paper compares against.

Route construction is batch-first: :meth:`UpDownRouter.switch_tree`
runs ONE full phase-aware BFS per source switch and records, for every
destination, the switch path that first enqueued a state at that
switch.  Because the full traversal enqueues states in exactly the
same order as a per-pair early-exit BFS (the seen set is write-once,
and the early exit only truncates a shared prefix), the tree's path is
byte-identical to the per-pair search, which the test suite keeps as
its oracle (``tests/routing_oracles.py``).  All-pairs construction
drops from O(H²·E) to O(V·E), and :meth:`UpDownRouter.routes_from`
reads the topology's flat :class:`~repro.topology.graph.RouteTables`
once per source for every destination's port bytes and deliverability
walk.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.routing.routes import ItbRoute, RouteError, SourceRoute
from repro.routing.spanning_tree import UpDownOrientation, build_orientation
from repro.topology.graph import RouteTables, Topology

__all__ = ["UpDownRouter"]

_PHASE_UP = 0  # still allowed to take UP hops (UpDownOrientation.phase_graph)

#: A per-source BFS tree: every reachable switch -> its switch path.
SwitchTree = dict[int, tuple[int, ...]]


class UpDownRouter:
    """Computes shortest valid up*/down* routes on a topology.

    Parameters
    ----------
    topo:
        The network.
    orientation:
        Optional precomputed :class:`UpDownOrientation`; computed with
        the default root policy when omitted.
    """

    name = "updown"

    def __init__(
        self, topo: Topology, orientation: Optional[UpDownOrientation] = None
    ) -> None:
        self.topo = topo
        self.orientation = orientation or build_orientation(topo)
        # src_switch -> SwitchTree; valid as long as the topology and
        # orientation are unchanged (routers are rebuilt on mutation).
        self._trees: dict[int, SwitchTree] = {}

    # ------------------------------------------------------------------
    # Batched per-source construction (the hot path)

    def switch_tree(self, src_switch: int) -> SwitchTree:
        """Full phase-aware BFS from ``src_switch``, memoized: the
        shortest valid up*/down* switch path to every reachable switch.

        One O(E) traversal serves every destination: the expansion order
        is identical to a per-pair early-exit BFS (same neighbor sort,
        same seen-at-enqueue rule), so the first state enqueued at each
        switch is exactly the goal state the per-pair search would
        return, and the path the BFS carried to it is the same prefix.
        """
        tree = self._trees.get(src_switch)
        if tree is not None:
            return tree
        topo = self.topo
        if not topo.is_switch(src_switch):
            raise RouteError("switch_tree source must be a switch")
        graph = self.orientation.phase_graph(topo)

        start = (src_switch, _PHASE_UP)
        # state -> the switch path that first enqueued it (write-once).
        reach: dict[tuple[int, int], tuple[int, ...]] = {
            start: (src_switch,)}
        tree = {src_switch: (src_switch,)}
        q = deque([start])
        while q:
            state = q.popleft()
            here = reach[state]
            # Successors come UP hops first, then by neighbor id:
            # the deterministic tie-break.
            for nstate in graph[state]:
                if nstate in reach:
                    continue
                v = nstate[0]
                path = reach[nstate] = here + (v,)
                if v not in tree:
                    tree[v] = path
                q.append(nstate)

        self._trees[src_switch] = tree
        return tree

    @staticmethod
    def _tree_path(
        tree: SwitchTree, src_switch: int, dst_switch: int
    ) -> tuple[int, ...]:
        path = tree.get(dst_switch)
        if path is None:
            raise RouteError(
                f"no valid up*/down* path {src_switch} -> {dst_switch}"
            )
        return path

    def routes_from(
        self,
        src_host: int,
        dests: Optional[list[int]] = None,
        strict: bool = True,
    ) -> dict[int, SourceRoute]:
        """Routes from one host to every destination host, off one tree.

        With ``strict=False`` unreachable destinations are silently
        skipped (the keep-stale semantics fault remap relies on).
        """
        topo = self.topo
        tables = topo.route_tables()
        host_switch = tables.host_switch
        s_src = topo.switch_of(src_host)
        tree = self.switch_tree(s_src)
        out: dict[int, SourceRoute] = {}
        for d in (topo.hosts() if dests is None else dests):
            if d == src_host:
                continue
            try:
                s_dst = host_switch.get(d)
                if s_dst is None:
                    s_dst = topo.switch_of(d)  # raises the precise error
                path = self._tree_path(tree, s_src, s_dst)
                out[d] = self._source_route(src_host, d, s_src, s_dst,
                                            path, tables)
            except (RouteError, KeyError):
                if strict:
                    raise
                continue
        return out

    # ------------------------------------------------------------------

    def switch_route(self, src_switch: int, dst_switch: int) -> list[int]:
        """Shortest valid up*/down* switch path (inclusive endpoints),
        served from the memoized per-source tree.

        Deterministic: among equal-length candidates, BFS explores
        neighbors in ascending id order, preferring UP hops first (the
        classical mapper bias toward climbing early).
        """
        topo = self.topo
        if not topo.is_switch(src_switch) or not topo.is_switch(dst_switch):
            raise RouteError("switch_route endpoints must be switches")
        return list(self._tree_path(self.switch_tree(src_switch),
                                    src_switch, dst_switch))

    def route(self, src_host: int, dst_host: int) -> SourceRoute:
        """Source route between two hosts."""
        return self.route_via(src_host, dst_host, None)

    def route_via(
        self,
        src_host: int,
        dst_host: int,
        switch_path: Optional[Sequence[int]],
    ) -> SourceRoute:
        """Build a :class:`SourceRoute` along an explicit or computed
        switch path, emitting one output-port byte per switch."""
        topo = self.topo
        if src_host == dst_host:
            raise RouteError("source and destination host are the same")
        s_src = topo.switch_of(src_host)
        s_dst = topo.switch_of(dst_host)
        if switch_path is None:
            switch_path = self.switch_route(s_src, s_dst)
        return self._source_route(src_host, dst_host, s_src, s_dst,
                                  switch_path, topo.route_tables())

    def itb_route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Uniform interface with :class:`ItbRouter`: a single segment."""
        return ItbRoute((self.route(src_host, dst_host),))

    # ------------------------------------------------------------------

    def _source_route(
        self,
        src_host: int,
        dst_host: int,
        s_src: int,
        s_dst: int,
        switch_path: Sequence[int],
        tables: RouteTables,
    ) -> SourceRoute:
        """Emit one output-port byte per switch along ``switch_path``
        (the last one exits toward ``dst_host``) and check that the
        bytes deliver there."""
        if switch_path[0] != s_src or switch_path[-1] != s_dst:
            raise RouteError("switch_path endpoints do not match hosts")
        route = SourceRoute(
            src=src_host,
            dst=dst_host,
            ports=self.topo.ports_along(tables.port, switch_path, dst_host),
            switch_path=tuple(switch_path),
        )
        self._check_deliverable(route, s_src, tables)
        return route

    def _check_deliverable(
        self, route: SourceRoute, s_src: int, tables: RouteTables
    ) -> None:
        """Walk the route bytes from the source host's switch."""
        reached = self.topo.walk_hops(tables.hop, s_src, route.ports)
        if reached != route.dst:
            raise RouteError(
                f"route bytes deliver to node {reached}, expected {route.dst}"
            )

    def is_valid(self, route: SourceRoute) -> bool:
        """Check the up*/down* rule over the route's switch path."""
        return self.orientation.is_valid_updown_path(
            self.topo, list(route.switch_path)
        )

    def all_pairs(self) -> dict[tuple[int, int], SourceRoute]:
        """Routes for every ordered host pair (the mapper's job).

        Batched: one BFS tree per source switch, shared across every
        destination.
        """
        hosts = self.topo.hosts()
        out: dict[tuple[int, int], SourceRoute] = {}
        for s in hosts:
            routes = self.routes_from(s)
            for d in hosts:
                if s != d:
                    out[(s, d)] = routes[d]
        return out

    def itb_all_pairs(self) -> dict[tuple[int, int], ItbRoute]:
        """Batched all-pairs in the single-segment ITB wrapper."""
        return {pair: ItbRoute((r,))
                for pair, r in self.all_pairs().items()}
