"""Channel dependency graph (CDG) deadlock analysis.

A *channel* is a directed use of a physical cable.  A routing function
is deadlock-free (for wormhole switching without virtual channels) iff
its channel dependency graph is acyclic [Dally & Seitz].  The ITB
mechanism's key property is that **ejection breaks dependencies**: a
packet ejected at an in-transit host releases its channels, so no
dependency edge is added between the last channel of one segment and
the first channel of the next.

This module builds the CDG for a set of routes (plain or ITB) and
checks acyclicity — used by tests to prove both that up*/down* and ITB
routings are deadlock-free and that *unsplit* minimal routing is not.
The graph is a plain adjacency dict (channel -> successor channels) and
the cycle search an iterative depth-first walk, so the analysis needs
no graph library.

Virtual-channel lanes
---------------------
With ``n_lanes > 1`` the analysis operates on *lane* nodes
``(link_id, direction, lane)`` — the resource a worm actually blocks
on in a multi-lane fabric (:mod:`repro.network.fabric`).  The lane a
segment uses at each hop depends on the fabric's lane policy:

* ``"escape"`` assigns lanes by the dateline walk shared with
  :class:`repro.network.lanes.EscapeLanePolicy`, so the laned CDG here
  verifies exactly the assignment the simulator will use.  The walk
  is deterministic per segment, so acyclicity of this graph *is* the
  deadlock-freedom proof (provided no route needs more lanes than
  configured — check :func:`lanes_required`).
* ``"fixed"`` and ``"roundrobin"`` pick one lane per channel per
  launch.  Any such static-per-flight assignment is deadlock-free iff
  the *collapsed* channel-level CDG is acyclic: a cycle among lane
  nodes projects onto a closed walk among channel nodes (consecutive
  route channels are always distinct links), which an acyclic channel
  graph cannot contain.  These policies therefore verify on the
  ``n_lanes == 1`` graph.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.routing.routes import ItbRoute, SourceRoute
from repro.topology.graph import Topology

__all__ = [
    "channel_dependency_graph",
    "find_dependency_cycle",
    "is_deadlock_free",
    "lanes_required",
]

Channel = tuple[int, int]  # (link_id, direction): direction 0 = a->b end
RouteLike = Union[SourceRoute, ItbRoute]


def _segment_channels(topo: Topology, seg: SourceRoute) -> list[Channel]:
    """Directed channels used by one source-route segment, in order.

    Includes the injection (host -> first switch) and ejection/delivery
    (last switch -> host) channels, since NIC links are real channels
    that the paper's Stop&Go flow control can block on.
    """
    channels: list[Channel] = []
    host_link = topo.host_link(seg.src)
    channels.append((host_link.link_id, host_link.direction_from(seg.src, 0)))
    current = seg.switch_path[0]
    for port in seg.ports:
        link = topo.link_at(current, port)
        if link is None:  # defensive; routes are validated at build time
            raise ValueError(f"route uses uncabled port {port} at {current}")
        channels.append((link.link_id, link.direction_from(current, port)))
        current, _far_port = link.far_end(current, port)
    return channels


def _segment_steps(topo: Topology,
                   seg: SourceRoute) -> list[tuple[int, int, bool]]:
    """Per-channel ``(from_node, to_node, is_switch_to_switch)`` walk,
    aligned with :func:`_segment_channels` — the input the escape-lane
    dateline walk needs (kept identical to the fabric's plan endpoints
    so static analysis and runtime assign the same lanes)."""
    steps: list[tuple[int, int, bool]] = [
        (seg.src, seg.switch_path[0], False)
    ]
    current = seg.switch_path[0]
    for port in seg.ports:
        link = topo.link_at(current, port)
        far, _far_port = link.far_end(current, port)
        steps.append((current, far,
                      topo.is_switch(current) and topo.is_switch(far)))
        current = far
    return steps


def iter_segments(route: RouteLike) -> Iterable[SourceRoute]:
    if isinstance(route, ItbRoute):
        return route.segments
    return (route,)


def lanes_required(topo: Topology, routes: Iterable[RouteLike]) -> int:
    """Lanes the escape policy needs so no segment's walk is clamped.

    1 means every segment is descent-free; the ``vc-study`` experiment
    sizes its VC fabric with this so the static guarantee holds.
    """
    # Imported here (not at module top) to break the import cycle
    # routing -> network -> worm -> mcp -> routing.
    from repro.network.lanes import lanes_needed
    needed = 1
    for route in routes:
        for seg in iter_segments(route):
            needed = max(needed, lanes_needed(_segment_steps(topo, seg)))
    return needed


def channel_dependency_graph(
    topo: Topology, routes: Iterable[RouteLike],
    n_lanes: int = 1, lane_policy: str = "fixed",
) -> dict[tuple, list[tuple]]:
    """Build the CDG as ``channel -> successor channels``: nodes are
    channels (lanes when ``n_lanes > 1`` under the escape policy),
    edges are held-while-requesting pairs within a single segment.
    Nodes and successors keep first-seen order; no edge repeats.

    Segment boundaries (in-transit hosts) contribute **no** edge — the
    formal statement of the ITB mechanism's deadlock-freedom argument.
    Fixed and round-robin lane policies verify on the collapsed
    channel-level graph (see the module docstring for why that is
    sound for any per-launch static assignment).
    """
    laned = n_lanes > 1 and lane_policy == "escape"
    if laned:
        from repro.network.lanes import escape_lane_walk
    g: dict[tuple, list[tuple]] = {}
    for route in routes:
        for seg in iter_segments(route):
            chans: list = _segment_channels(topo, seg)
            if laned:
                lanes = escape_lane_walk(_segment_steps(topo, seg), n_lanes)
                chans = [(link, direction, lane) for (link, direction), lane
                         in zip(chans, lanes)]
            for ch in chans:
                g.setdefault(ch, [])
            for a, b in zip(chans, chans[1:]):
                if b not in g[a]:
                    g[a].append(b)
    return g


def _find_cycle(g: dict[tuple, list[tuple]]) -> Optional[list[tuple]]:
    """One directed cycle of ``g`` as its node sequence, or None.

    Iterative white/grey/black depth-first search: all-pairs CDGs are
    far deeper than the interpreter's recursion limit.
    """
    grey, black = 1, 2
    colour: dict[tuple, int] = {}
    for start in g:
        if start in colour:
            continue
        colour[start] = grey
        path = [start]
        stack = [iter(g[start])]
        while stack:
            for nxt in stack[-1]:
                state = colour.get(nxt)
                if state is None:
                    colour[nxt] = grey
                    path.append(nxt)
                    stack.append(iter(g[nxt]))
                    break
                if state == grey:  # back edge: the cycle closes at nxt
                    return path[path.index(nxt):]
            else:
                colour[path.pop()] = black
                stack.pop()
    return None


def find_dependency_cycle(
    topo: Topology, routes: Iterable[RouteLike],
    n_lanes: int = 1, lane_policy: str = "fixed",
) -> Optional[list[Channel]]:
    """Return one dependency cycle, or None when the CDG is acyclic."""
    return _find_cycle(channel_dependency_graph(
        topo, routes, n_lanes=n_lanes, lane_policy=lane_policy))


def is_deadlock_free(
    topo: Topology, routes: Iterable[RouteLike],
    n_lanes: int = 1, lane_policy: str = "fixed",
) -> bool:
    """True iff the (lane-aware) channel dependency graph is acyclic.

    For the escape policy the answer is only a guarantee when
    ``lanes_required(topo, routes) <= n_lanes`` — a clamped walk
    leaves the dateline scheme, and this function checks the clamped
    assignment that would actually run.
    """
    return find_dependency_cycle(topo, routes, n_lanes=n_lanes,
                                 lane_policy=lane_policy) is None
