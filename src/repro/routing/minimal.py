"""True minimal (shortest) routes, ignoring up*/down* restrictions.

Used two ways: as the target the ITB router tries to legalize, and as
an oracle in tests (ITB routes must match minimal length whenever an
in-transit host is available at every violation point).  Hop distances
and the switch adjacency come from :class:`Topology` itself
(:meth:`Topology.switch_distances`), the one BFS over the fabric.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.routing.routes import ItbRoute, RouteError, SourceRoute
from repro.topology.graph import Topology

__all__ = ["MinimalRouter", "all_shortest_switch_paths", "dag_paths",
           "shortest_dag"]

#: (distances to a destination switch, that destination's shortest-DAG
#: children per switch, filled lazily by :func:`dag_paths`)
ShortestDag = tuple[dict[int, int], dict[int, list[int]]]


def shortest_dag(topo: Topology, dst_switch: int) -> ShortestDag:
    """The shortest-path DAG toward ``dst_switch``, memoized per topology.

    Every source enumerating paths toward ``dst_switch`` shares the
    filtered child lists instead of rescanning the (possibly very wide)
    adjacency per DFS node — the scale-study profile's top offender on
    leaf-spine fabrics.
    """
    return topo.derived(("shortest_dag", dst_switch),
                        lambda: (topo.switch_distances(dst_switch), {}))


def all_shortest_switch_paths(
    topo: Topology, src_switch: int, dst_switch: int, limit: Optional[int] = None
) -> Iterator[list[int]]:
    """Yield every shortest switch path, in lexicographic order.

    ``limit`` caps the number of yielded paths (the count can grow
    combinatorially on dense fabrics).
    """
    if src_switch == dst_switch:
        yield [src_switch]
        return
    adj = topo.switch_adjacency()
    if src_switch not in adj or dst_switch not in adj:
        raise RouteError("endpoints must be switches")
    yield from dag_paths(adj, shortest_dag(topo, dst_switch),
                         src_switch, dst_switch, limit)


def dag_paths(
    adj: dict[int, list[int]],
    dag: ShortestDag,
    src_switch: int,
    dst_switch: int,
    limit: Optional[int] = None,
) -> Iterator[list[int]]:
    """:func:`all_shortest_switch_paths` over tables the caller already
    holds: the switch adjacency and :func:`shortest_dag` of
    ``dst_switch``.  Batched routers resolve both once per batch."""
    if src_switch == dst_switch:
        yield [src_switch]
        return
    # Distances *to* the destination let us walk only along shortest DAG
    # edges from the source.
    dist_to_dst, children = dag
    if src_switch not in dist_to_dst:
        raise RouteError(f"no path {src_switch} -> {dst_switch}")

    yielded = 0
    stack: list[tuple[int, list[int]]] = [(src_switch, [src_switch])]
    while stack:
        u, path = stack.pop()
        if u == dst_switch:
            yield path
            yielded += 1
            if limit is not None and yielded >= limit:
                return
            continue
        nexts = children.get(u)
        if nexts is None:
            nexts = [
                v for v in adj[u]
                if dist_to_dst.get(v, -1) == dist_to_dst[u] - 1
            ]
            children[u] = nexts
        # Push in reverse id order so pops occur in ascending order.
        for v in reversed(nexts):
            stack.append((v, path + [v]))


class MinimalRouter:
    """Shortest-path routing with no turn restrictions.

    Not deadlock-free by itself on cyclic fabrics — that is exactly the
    problem the ITB mechanism solves.  Provided for analysis and as a
    building block.
    """

    name = "minimal"

    def __init__(self, topo: Topology, orientation=None) -> None:
        # ``orientation`` is accepted (and ignored) so the router slots
        # into the mapper/route-cache interface shared with the up*/down*
        # and ITB routers; minimal routing needs no spanning tree.
        self.topo = topo

    def itb_route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Single-segment wrapper matching the ITB router interface."""
        return ItbRoute((self.route(src_host, dst_host),))

    def switch_route(self, src_switch: int, dst_switch: int) -> list[int]:
        """Lexicographically-first shortest switch path."""
        for path in all_shortest_switch_paths(self.topo, src_switch, dst_switch,
                                              limit=1):
            return path
        raise RouteError(f"no path {src_switch} -> {dst_switch}")

    def route(self, src_host: int, dst_host: int) -> SourceRoute:
        """Shortest source route between two hosts (no restrictions)."""
        topo = self.topo
        if src_host == dst_host:
            raise RouteError("source and destination host are the same")
        s_src, s_dst = topo.switch_of(src_host), topo.switch_of(dst_host)
        switch_path = self.switch_route(s_src, s_dst)
        return SourceRoute(
            src=src_host, dst=dst_host,
            ports=topo.ports_along(topo.route_tables().port, switch_path,
                                   dst_host),
            switch_path=tuple(switch_path),
        )

    def distance(self, src_host: int, dst_host: int) -> int:
        """Minimal number of switch traversals between two hosts."""
        s_src = self.topo.switch_of(src_host)
        s_dst = self.topo.switch_of(dst_host)
        dist = self.topo.switch_distances(s_src)
        if s_dst not in dist:
            raise RouteError(f"no path {src_host} -> {dst_host}")
        return dist[s_dst] + 1  # hops between switches + final switch

    def routes_from(
        self,
        src_host: int,
        dests: Optional[list[int]] = None,
        strict: bool = True,
    ) -> dict[int, SourceRoute]:
        """Routes from one host to every destination, sharing the
        per-switch-pair path memo across hosts on the same switch."""
        topo = self.topo
        port_table = topo.route_tables().port
        s_src = topo.switch_of(src_host)
        paths: dict[int, list[int]] = {}
        out: dict[int, SourceRoute] = {}
        for d in (topo.hosts() if dests is None else dests):
            if d == src_host:
                continue
            s_dst = topo.switch_of(d)
            try:
                path = paths.get(s_dst)
                if path is None:
                    path = self.switch_route(s_src, s_dst)
                    paths[s_dst] = path
                ports = topo.ports_along(port_table, path, d)
            except (RouteError, KeyError):
                if strict:
                    raise
                continue
            out[d] = SourceRoute(
                src=src_host, dst=d,
                ports=ports, switch_path=tuple(path),
            )
        return out

    def all_pairs(self) -> dict[tuple[int, int], SourceRoute]:
        """Minimal routes for every ordered host pair (batched)."""
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
