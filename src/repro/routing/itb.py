"""In-Transit Buffer routing: the paper's core contribution.

An invalid minimal path — one containing a down->up transition — is
legalized by *ejecting* the packet at a host attached to the switch
where the violation occurs and re-injecting it from there, splitting
the path into valid up*/down* segments (paper Figure 1).

The router works in two stages:

1. Enumerate minimal switch paths between the endpoints and pick one
   whose violation switches all carry at least one attached host
   (candidate in-transit hosts).
2. Split the chosen path at those switches, producing an
   :class:`~repro.routing.routes.ItbRoute` whose every segment passes
   the up*/down* validity check.

When no minimal path can be legalized (some violating switch has no
host), the router either falls back to the plain up*/down* route or —
with ``allow_longer=True`` — searches for the shortest *legalizable*
path of any length.

In-transit host selection within a switch is pluggable (policy
callable), since the paper's follow-ups study load-aware placement.

Construction is batched: switch-pair plans and per-source legalization
trees are memoized, and :meth:`ItbRouter.routes_from` resolves the
topology's flat :class:`~repro.topology.graph.RouteTables` and the
orientation's direction table once per source for every destination.
The per-pair searches the batched path must match byte for byte live
in the test suite as oracles (``tests/routing_oracles.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Sequence

from repro.routing.minimal import ShortestDag, dag_paths, shortest_dag
from repro.routing.routes import Direction, ItbRoute, RouteError, SourceRoute
from repro.routing.spanning_tree import (UpDownOrientation, build_orientation,
                                         updown_violations)
from repro.routing.updown import UpDownRouter
from repro.topology.graph import RouteTables, Topology

__all__ = ["ItbRouter", "first_host_policy", "round_robin_policy"]


HostPolicy = Callable[[Topology, int, int, int], int]
"""(topo, switch, src_host, dst_host) -> chosen in-transit host id."""


def first_host_policy(topo: Topology, switch: int, _src: int, _dst: int) -> int:
    """Pick the lowest-id host on the switch (deterministic default)."""
    hosts = topo.hosts_on(switch)
    if not hosts:
        raise RouteError(f"switch {switch} has no attached host for an ITB")
    return hosts[0]


class round_robin_policy:
    """Rotate in-transit duty over a switch's hosts.

    Spreads the ejection/re-injection load over all hosts of a switch —
    the simplest of the load-aware placements the paper's future work
    motivates.  Stateful: each router owns one instance.
    """

    def __init__(self) -> None:
        self._counters: dict[int, int] = {}

    def __call__(self, topo: Topology, switch: int, _src: int, _dst: int) -> int:
        hosts = topo.hosts_on(switch)
        if not hosts:
            raise RouteError(f"switch {switch} has no attached host for an ITB")
        k = self._counters.get(switch, 0)
        self._counters[switch] = k + 1
        return hosts[k % len(hosts)]


class ItbRouter:
    """Minimal routing legalized with in-transit buffers.

    Parameters
    ----------
    topo:
        The network.
    orientation:
        Up*/down* orientation shared with the baseline router (so both
        routings agree on link directions, as on a real mapper).
    host_policy:
        In-transit host chooser per violation switch.
    max_paths:
        Cap on enumerated minimal paths per pair before giving up on
        the minimal length.
    allow_longer:
        When the minimal length cannot be legalized, search longer
        paths (still preferring fewest switch hops, then fewest ITBs)
        instead of falling back to plain up*/down*.
    """

    name = "itb"

    def __init__(
        self,
        topo: Topology,
        orientation: Optional[UpDownOrientation] = None,
        host_policy: HostPolicy = first_host_policy,
        max_paths: int = 64,
        allow_longer: bool = True,
    ) -> None:
        self.topo = topo
        self.orientation = orientation or build_orientation(topo)
        self.host_policy = host_policy
        self.max_paths = max_paths
        self.allow_longer = allow_longer
        self._updown = UpDownRouter(topo, self.orientation)
        # (s_src, s_dst) -> (path, splits) | None.  Plans never invoke
        # host_policy (only _build does), so memoizing them is invisible
        # to stateful policies and lets every host pair on the same
        # switch pair share one path search.
        self._plans: dict[tuple[int, int],
                          Optional[tuple[list[int], list[int]]]] = {}
        # s_src -> (parent, goal) full legalization-Dijkstra tree.
        self._legal_trees: dict[int, tuple[dict, dict]] = {}
        # s_dst -> shortest-path DAG toward it, resolved once per router.
        self._dags: dict[int, ShortestDag] = {}

    # ------------------------------------------------------------------
    # path analysis
    # ------------------------------------------------------------------

    def split_points(self, switch_path: Sequence[int]) -> list[int]:
        """Indices of switches where the path must be split (violations)."""
        return self.orientation.violations(self.topo, list(switch_path))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def itb_route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Compute the ITB route between two hosts.

        Preference order: minimal length with fewest ITBs; then (if
        ``allow_longer``) shortest legalizable length; then the plain
        up*/down* route as a single segment.
        """
        topo = self.topo
        if src_host == dst_host:
            raise RouteError("source and destination host are the same")
        s_src, s_dst = topo.switch_of(src_host), topo.switch_of(dst_host)
        tables = topo.route_tables()
        dirs = self.orientation.pair_direction_table(topo)
        plan = self._pair_plan(s_src, s_dst, tables, dirs)
        if plan is not None:
            return self._build(src_host, dst_host, plan[0], plan[1],
                               tables, dirs)
        # Last resort: the plain up*/down* route (always legal).
        return self._updown.itb_route(src_host, dst_host)

    def _pair_plan(
        self,
        s_src: int,
        s_dst: int,
        tables: RouteTables,
        dirs: dict[tuple[int, int], Direction],
    ) -> Optional[tuple[list[int], list[int]]]:
        """Memoized ``(switch_path, splits)`` plan for a switch pair.

        ``None`` means "fall back to plain up*/down*".  Plans are pure
        path analysis — :meth:`_build` applies the (possibly stateful)
        host policy per host pair afterwards.
        """
        key = (s_src, s_dst)
        if key in self._plans:
            return self._plans[key]
        dag = self._dags.get(s_dst)
        if dag is None:
            dag = self._dags[s_dst] = shortest_dag(self.topo, s_dst)
        host_switches = tables.host_switches
        best: Optional[tuple[int, list[int], list[int]]] = None  # (n_itb, path, splits)
        for path in dag_paths(tables.adjacency, dag, s_src, s_dst,
                              limit=self.max_paths):
            splits = updown_violations(dirs, path)
            if not all(path[i] in host_switches for i in splits):
                continue
            if best is None or len(splits) < best[0]:
                best = (len(splits), path, splits)
            if best[0] == 0:
                break
        plan: Optional[tuple[list[int], list[int]]] = None
        if best is not None:
            plan = (best[1], best[2])
        elif self.allow_longer:
            plan = self._shortest_legalizable(s_src, s_dst)
        self._plans[key] = plan
        return plan

    def route(self, src_host: int, dst_host: int) -> ItbRoute:
        """Alias so routers are interchangeable in the harness."""
        return self.itb_route(src_host, dst_host)

    def routes_from(
        self,
        src_host: int,
        dests: Optional[Sequence[int]] = None,
        strict: bool = True,
    ) -> dict[int, ItbRoute]:
        """ITB routes from one host to every destination host.

        Shares the memoized pair plans and per-source legalization tree;
        host_policy is still invoked once per host pair, in destination
        order, so stateful policies see the same call sequence as a
        per-pair loop.  ``strict=False`` skips unroutable destinations
        (fault-remap keep-stale semantics).
        """
        topo = self.topo
        tables = topo.route_tables()
        dirs = self.orientation.pair_direction_table(topo)
        host_switch = tables.host_switch
        s_src = topo.switch_of(src_host)
        out: dict[int, ItbRoute] = {}
        for d in (topo.hosts() if dests is None else dests):
            if d == src_host:
                continue
            try:
                s_dst = host_switch.get(d)
                if s_dst is None:
                    s_dst = topo.switch_of(d)  # raises the precise error
                plan = self._pair_plan(s_src, s_dst, tables, dirs)
                if plan is not None:
                    route = self._build(src_host, d, plan[0], plan[1],
                                        tables, dirs)
                else:
                    route = self._updown.itb_route(src_host, d)
            except (RouteError, KeyError):
                if strict:
                    raise
                continue
            out[d] = route
        return out

    def all_pairs(self) -> dict[tuple[int, int], ItbRoute]:
        """ITB routes for every ordered host pair (the mapper's job).

        Batched over shared pair plans and per-source trees, with the
        host-policy call order of a per-pair loop.
        """
        hosts = self.topo.hosts()
        out: dict[tuple[int, int], ItbRoute] = {}
        for s in hosts:
            routes = self.routes_from(s)
            for d in hosts:
                if s != d:
                    out[(s, d)] = routes[d]
        return out

    def itb_all_pairs(self) -> dict[tuple[int, int], ItbRoute]:
        """Uniform batch interface shared by every router kind."""
        return self.all_pairs()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _build(
        self,
        src_host: int,
        dst_host: int,
        switch_path: list[int],
        splits: list[int],
        tables: RouteTables,
        dirs: dict[tuple[int, int], Direction],
    ) -> ItbRoute:
        """Cut ``switch_path`` at the violation switches and emit segments."""
        topo = self.topo
        segments: list[SourceRoute] = []
        seg_entry_host = src_host
        start = 0
        cut_points = list(splits) + [len(switch_path) - 1]
        for j, cut in enumerate(cut_points):
            last = j == len(cut_points) - 1
            sub_path = switch_path[start:cut + 1]
            if last:
                exit_host = dst_host
            else:
                exit_host = self.host_policy(
                    topo, switch_path[cut], src_host, dst_host
                )
            segment = SourceRoute(
                src=seg_entry_host,
                dst=exit_host,
                ports=topo.ports_along(tables.port, sub_path, exit_host),
                switch_path=tuple(sub_path),
            )
            if updown_violations(dirs, sub_path):
                raise RouteError(
                    f"internal error: segment {sub_path} still invalid"
                )
            segments.append(segment)
            seg_entry_host = exit_host
            start = cut  # next segment re-enters at the violation switch
        return ItbRoute(tuple(segments))

    def _legal_tree_for(self, s_src: int) -> tuple[dict, dict]:
        """Full legalization Dijkstra from one source switch, memoized.

        Runs the same (hops, itbs)-lexicographic expansion as the
        per-pair search but to exhaustion, recording the first finalized
        state popped at every switch.  Edge costs are strictly positive
        and relaxation is strictly ``<``, so every predecessor on a
        goal's parent chain is finalized before the goal pops — the
        reconstructed (path, splits) is byte-identical to the early-exit
        per-pair search for every destination at once.
        """
        cached = self._legal_trees.get(s_src)
        if cached is not None:
            return cached
        topo = self.topo
        host_switches = topo.route_tables().host_switches
        graph = self.orientation.phase_graph(topo)
        inf = (1 << 30, 1 << 30)
        start = (s_src, 0)
        dist: dict[tuple[int, int], tuple[int, int]] = {start: (0, 0)}
        parent: dict[tuple[int, int], tuple[tuple[int, int], bool]] = {}
        heap: list[tuple[int, int, tuple[int, int]]] = [(0, 0, start)]
        goal: dict[int, tuple[int, int]] = {}
        while heap:
            hops, itbs, state = heapq.heappop(heap)
            if dist.get(state, inf) < (hops, itbs):
                continue
            u, phase = state
            if u not in goal:
                goal[u] = state
            if phase == 1 and u in host_switches:
                nstate = (u, 0)
                ncost = (hops, itbs + 1)
                if ncost < dist.get(nstate, inf):
                    dist[nstate] = ncost
                    parent[nstate] = (state, True)
                    heapq.heappush(heap, (hops, itbs + 1, nstate))
            # Relaxation order within one pop cannot matter: every hop
            # reaches a distinct state and the heap orders by full key.
            ncost = (hops + 1, itbs)
            for nstate in graph[state]:
                if ncost < dist.get(nstate, inf):
                    dist[nstate] = ncost
                    parent[nstate] = (state, False)
                    heapq.heappush(heap, (hops + 1, itbs, nstate))
        tree = (parent, goal)
        self._legal_trees[s_src] = tree
        return tree

    def _shortest_legalizable(
        self, s_src: int, s_dst: int
    ) -> Optional[tuple[list[int], list[int]]]:
        """Shortest legalizable (path, splits), served off the memoized
        per-source tree; ``None`` when the destination is unreachable."""
        parent, goal = self._legal_tree_for(s_src)
        state = goal.get(s_dst)
        if state is None:
            return None
        start = (s_src, 0)
        rev_states: list[tuple[tuple[int, int], bool]] = []
        while state != start:
            prev, was_reset = parent[state]
            rev_states.append((state, was_reset))
            state = prev
        path = [s_src]
        splits: list[int] = []
        for (st, was_reset) in reversed(rev_states):
            if was_reset:
                splits.append(len(path) - 1)
            else:
                path.append(st[0])
        return path, splits
