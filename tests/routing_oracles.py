"""Per-pair routing oracles for the batched route construction.

The routers in :mod:`repro.routing` build routes per source: one BFS or
legalization tree per source switch, memoized switch-pair plans and
flat topology tables resolved once per source.  The functions here are
the older per-pair searches, kept only as oracles: each runs its own
early-exit search for one host pair and resolves every port, direction
and host lookup through the per-query topology and orientation
helpers.  The batched routers must reproduce them byte for byte.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

from repro.routing.itb import ItbRouter
from repro.routing.minimal import all_shortest_switch_paths
from repro.routing.routes import Direction, ItbRoute, RouteError, SourceRoute
from repro.routing.updown import UpDownRouter

__all__ = [
    "itb_all_pairs",
    "itb_route",
    "shortest_legalizable",
    "updown_all_pairs",
    "updown_route",
    "updown_switch_route",
]

_PHASE_UP = 0
_PHASE_DOWN = 1


def updown_switch_route(
    router: UpDownRouter, src_switch: int, dst_switch: int
) -> list[int]:
    """Per-pair early-exit up*/down* BFS.

    Among equal-length candidates, neighbours are explored in ascending
    id order with UP hops first.
    """
    topo, orient = router.topo, router.orientation
    if not topo.is_switch(src_switch) or not topo.is_switch(dst_switch):
        raise RouteError("switch_route endpoints must be switches")
    if src_switch == dst_switch:
        return [src_switch]

    start = (src_switch, _PHASE_UP)
    prev: dict[tuple[int, int], tuple[int, int]] = {}
    seen = {start}
    q = deque([start])
    goal: Optional[tuple[int, int]] = None
    while q and goal is None:
        state = q.popleft()
        u, phase = state
        steps = []
        for _port, v, link in topo.switch_neighbors(u):
            d = orient.direction(link.link_id, u, v)
            if phase == _PHASE_DOWN and d is Direction.UP:
                continue
            nxt_phase = _PHASE_DOWN if d is Direction.DOWN else phase
            steps.append((d is Direction.DOWN, v, nxt_phase))
        for _down, v, nxt_phase in sorted(steps):
            nstate = (v, nxt_phase)
            if nstate in seen:
                continue
            seen.add(nstate)
            prev[nstate] = state
            if v == dst_switch:
                goal = nstate
                break
            q.append(nstate)

    if goal is None:
        raise RouteError(
            f"no valid up*/down* path {src_switch} -> {dst_switch}"
        )
    path = [goal[0]]
    state = goal
    while state != start:
        state = prev[state]
        path.append(state[0])
    path.reverse()
    return path


def _source_route(topo, src_host: int, dst_host: int,
                  switch_path: list[int]) -> SourceRoute:
    """One route byte per switch via ``port_toward``, walk-checked."""
    ports = [topo.port_toward(a, b)
             for a, b in zip(switch_path, switch_path[1:])]
    ports.append(topo.port_toward(switch_path[-1], dst_host))
    route = SourceRoute(src=src_host, dst=dst_host, ports=tuple(ports),
                        switch_path=tuple(switch_path))
    reached = topo.walk_route(route.src, list(route.ports))
    if reached != route.dst:
        raise RouteError(
            f"route bytes deliver to node {reached}, expected {route.dst}"
        )
    return route


def updown_route(router: UpDownRouter, src_host: int,
                 dst_host: int) -> SourceRoute:
    """Source route along the per-pair up*/down* BFS path."""
    topo = router.topo
    if src_host == dst_host:
        raise RouteError("source and destination host are the same")
    path = updown_switch_route(router, topo.switch_of(src_host),
                               topo.switch_of(dst_host))
    return _source_route(topo, src_host, dst_host, path)


def updown_all_pairs(
    router: UpDownRouter,
) -> dict[tuple[int, int], SourceRoute]:
    """Every ordered host pair, one BFS per pair."""
    hosts = router.topo.hosts()
    return {(s, d): updown_route(router, s, d)
            for s in hosts for d in hosts if s != d}


def shortest_legalizable(
    router: ItbRouter, s_src: int, s_dst: int
) -> Optional[tuple[list[int], list[int]]]:
    """Per-pair (hops, itbs)-lexicographic Dijkstra over
    ``(switch, phase)`` states with host-reset transitions.

    Phase 0 may still go UP, phase 1 has taken a DOWN hop.  At a switch
    with a host the phase may reset to 0 at the cost of one ITB.
    Returns the shortest legalizable ``(path, splits)`` of any length,
    or ``None`` when ``s_dst`` is unreachable.
    """
    topo, orient = router.topo, router.orientation
    inf = (1 << 30, 1 << 30)
    start = (s_src, 0)
    dist: dict[tuple[int, int], tuple[int, int]] = {start: (0, 0)}
    parent: dict[tuple[int, int], tuple[tuple[int, int], bool]] = {}
    heap: list[tuple[int, int, tuple[int, int]]] = [(0, 0, start)]
    goal: Optional[tuple[int, int]] = None
    while heap:
        hops, itbs, state = heapq.heappop(heap)
        if dist.get(state, inf) < (hops, itbs):
            continue
        u, phase = state
        if u == s_dst:
            goal = state
            break
        if phase == 1 and topo.hosts_on(u):
            nstate = (u, 0)
            ncost = (hops, itbs + 1)
            if ncost < dist.get(nstate, inf):
                dist[nstate] = ncost
                parent[nstate] = (state, True)
                heapq.heappush(heap, (hops, itbs + 1, nstate))
        for _port, v, link in topo.switch_neighbors(u):
            d = orient.direction(link.link_id, u, v)
            if phase == 1 and d is Direction.UP:
                continue
            nphase = 1 if d is Direction.DOWN else phase
            nstate = (v, nphase)
            ncost = (hops + 1, itbs)
            if ncost < dist.get(nstate, inf):
                dist[nstate] = ncost
                parent[nstate] = (state, False)
                heapq.heappush(heap, (hops + 1, itbs, nstate))
    if goal is None:
        return None
    rev_states: list[tuple[tuple[int, int], bool]] = []
    state = goal
    while state != start:
        prev, was_reset = parent[state]
        rev_states.append((state, was_reset))
        state = prev
    path = [s_src]
    splits: list[int] = []
    for st, was_reset in reversed(rev_states):
        if was_reset:
            splits.append(len(path) - 1)
        else:
            path.append(st[0])
    return path, splits


def _itb_build(router: ItbRouter, src_host: int, dst_host: int,
               switch_path: list[int], splits: list[int]) -> ItbRoute:
    """Cut ``switch_path`` at ``splits``; check every segment."""
    topo = router.topo
    segments: list[SourceRoute] = []
    seg_entry_host = src_host
    start = 0
    cut_points = list(splits) + [len(switch_path) - 1]
    for j, cut in enumerate(cut_points):
        sub_path = switch_path[start:cut + 1]
        if j == len(cut_points) - 1:
            exit_host = dst_host
        else:
            exit_host = router.host_policy(topo, switch_path[cut],
                                           src_host, dst_host)
        ports = [topo.port_toward(a, b)
                 for a, b in zip(sub_path, sub_path[1:])]
        ports.append(topo.port_toward(sub_path[-1], exit_host))
        segment = SourceRoute(src=seg_entry_host, dst=exit_host,
                              ports=tuple(ports),
                              switch_path=tuple(sub_path))
        if not router.orientation.is_valid_updown_path(topo, sub_path):
            raise RouteError(
                f"internal error: segment {sub_path} still invalid")
        segments.append(segment)
        seg_entry_host = exit_host
        start = cut
    return ItbRoute(tuple(segments))


def itb_route(router: ItbRouter, src_host: int, dst_host: int) -> ItbRoute:
    """Per-pair ITB route with no shared state.

    Re-runs path enumeration and the legalization search for the pair:
    minimal length with fewest ITBs, then (with ``allow_longer``) the
    shortest legalizable path, then the plain up*/down* route.
    """
    topo = router.topo
    if src_host == dst_host:
        raise RouteError("source and destination host are the same")
    s_src, s_dst = topo.switch_of(src_host), topo.switch_of(dst_host)

    best: Optional[tuple[int, list[int], list[int]]] = None
    for path in all_shortest_switch_paths(topo, s_src, s_dst,
                                          limit=router.max_paths):
        splits = router.orientation.violations(topo, path)
        if not all(topo.hosts_on(path[i]) for i in splits):
            continue
        if best is None or len(splits) < best[0]:
            best = (len(splits), path, splits)
        if best[0] == 0:
            break
    if best is not None:
        return _itb_build(router, src_host, dst_host, best[1], best[2])

    if router.allow_longer:
        found = shortest_legalizable(router, s_src, s_dst)
        if found is not None:
            return _itb_build(router, src_host, dst_host, *found)

    return ItbRoute((updown_route(
        UpDownRouter(topo, router.orientation), src_host, dst_host),))


def itb_all_pairs(router: ItbRouter) -> dict[tuple[int, int], ItbRoute]:
    """Every ordered host pair, one independent ITB search per pair."""
    hosts = router.topo.hosts()
    return {(s, d): itb_route(router, s, d)
            for s in hosts for d in hosts if s != d}
