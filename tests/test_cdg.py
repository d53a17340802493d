"""Tests for channel-dependency-graph deadlock analysis."""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.cdg import (
    _find_cycle,
    channel_dependency_graph,
    find_dependency_cycle,
    is_deadlock_free,
    lanes_required,
)
from repro.routing.itb import ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.routes import ItbRoute, SourceRoute
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.graph import PortKind, Topology


def ring_topology(n: int = 4):
    """A ring of switches — the canonical deadlock-prone fabric."""
    topo = Topology(name=f"ring-{n}")
    sw = [topo.add_switch(n_ports=8) for _ in range(n)]
    for i in range(n):
        a, b = sw[i], sw[(i + 1) % n]
        topo.connect(a, topo.free_port(a), b, topo.free_port(b),
                     kind=PortKind.SAN)
    hosts = [topo.attach_host(s, topo.free_port(s)) for s in sw]
    topo.validate()
    return topo, sw, hosts


def cyclic_routes(topo, sw, hosts):
    """Hand-built routes that all turn the same way around the ring,
    creating the textbook cyclic channel dependency."""
    n = len(sw)
    routes = []
    for i in range(n):
        j = (i + 2) % n  # two hops clockwise
        path = [sw[i], sw[(i + 1) % n], sw[j]]
        ports = [topo.port_toward(a, b) for a, b in zip(path, path[1:])]
        ports.append(topo.port_toward(sw[j], hosts[j]))
        routes.append(SourceRoute(src=hosts[i], dst=hosts[j],
                                  ports=tuple(ports),
                                  switch_path=tuple(path)))
    return routes


class TestCycleDetection:
    def test_ring_clockwise_routes_cycle(self):
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        cycle = find_dependency_cycle(topo, routes)
        assert cycle is not None
        assert not is_deadlock_free(topo, routes)

    def test_itb_split_breaks_the_cycle(self):
        """Eject-and-reinject at every second switch: the identical
        switch walk becomes deadlock-free — the paper's core argument."""
        topo, sw, hosts = ring_topology(4)
        n = len(sw)
        split_routes = []
        for i in range(n):
            mid = (i + 1) % n
            j = (i + 2) % n
            seg1 = SourceRoute(
                src=hosts[i], dst=hosts[mid],
                ports=(topo.port_toward(sw[i], sw[mid]),
                       topo.port_toward(sw[mid], hosts[mid])),
                switch_path=(sw[i], sw[mid]),
            )
            seg2 = SourceRoute(
                src=hosts[mid], dst=hosts[j],
                ports=(topo.port_toward(sw[mid], sw[j]),
                       topo.port_toward(sw[j], hosts[j])),
                switch_path=(sw[mid], sw[j]),
            )
            split_routes.append(ItbRoute((seg1, seg2)))
        assert is_deadlock_free(topo, split_routes)

    def test_updown_on_ring_acyclic(self):
        topo, sw, hosts = ring_topology(6)
        router = UpDownRouter(topo)
        assert is_deadlock_free(topo, router.all_pairs().values())

    def test_minimal_on_ring_cyclic(self):
        topo, sw, hosts = ring_topology(6)
        router = MinimalRouter(topo)
        routes = [router.route(s, d) for s in hosts for d in hosts if s != d]
        assert not is_deadlock_free(topo, routes)

    def test_itb_router_on_ring_acyclic(self):
        topo, sw, hosts = ring_topology(6)
        router = ItbRouter(topo, build_orientation(topo))
        assert is_deadlock_free(topo, router.all_pairs().values())


class TestEscapeLanes:
    """The ISSUE-7 acceptance property: on a topology where minimal
    routing deadlocks without lanes, the escape-lane policy restores a
    provable deadlock-freedom guarantee."""

    def test_escape_lanes_fix_the_ring_cycle(self):
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        # Without lanes: the textbook cycle.
        assert not is_deadlock_free(topo, routes)
        # Sized by the dateline walk, the laned CDG is acyclic.
        need = lanes_required(topo, routes)
        assert need == 2
        assert is_deadlock_free(topo, routes, n_lanes=need,
                                lane_policy="escape")

    def test_escape_lanes_fix_minimal_all_pairs(self):
        """Full minimal all-pairs on a bigger ring: cyclic unlaned,
        acyclic under escape lanes sized by ``lanes_required``."""
        topo, sw, hosts = ring_topology(6)
        router = MinimalRouter(topo)
        routes = [router.route(s, d) for s in hosts for d in hosts if s != d]
        assert not is_deadlock_free(topo, routes)
        need = lanes_required(topo, routes)
        assert is_deadlock_free(topo, routes, n_lanes=need,
                                lane_policy="escape")

    def test_laned_graph_nodes_carry_lane_index(self):
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        g = channel_dependency_graph(topo, routes, n_lanes=2,
                                     lane_policy="escape")
        assert all(len(node) == 3 for node in g)
        assert {node[2] for node in g} == {0, 1}

    def test_static_policies_verify_on_collapsed_graph(self):
        """Fixed/round-robin assignments inherit the channel-level
        verdict (the projection argument): cyclic routes stay cyclic,
        acyclic ones stay acyclic, regardless of lane count."""
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        for policy in ("fixed", "roundrobin"):
            assert not is_deadlock_free(topo, routes, n_lanes=3,
                                        lane_policy=policy)
        ud = UpDownRouter(topo)
        for policy in ("fixed", "roundrobin"):
            assert is_deadlock_free(topo, ud.all_pairs().values(),
                                    n_lanes=3, lane_policy=policy)

    def test_escape_below_requirement_not_trusted(self):
        """A clamped walk leaves the dateline scheme; the analysis
        checks the clamped assignment honestly (here: one lane under
        the escape name is just the collapsed cyclic graph)."""
        topo, sw, hosts = ring_topology(4)
        routes = cyclic_routes(topo, sw, hosts)
        assert not is_deadlock_free(topo, routes, n_lanes=1,
                                    lane_policy="escape")


class TestGraphStructure:
    def test_nodes_are_directed_channels(self):
        topo, sw, hosts = ring_topology(3)
        router = UpDownRouter(topo)
        route = router.route(hosts[0], hosts[1])
        g = channel_dependency_graph(topo, [route])
        # injection channel + fabric hops + delivery channel
        assert len(g) == route.n_links
        assert sum(len(v) for v in g.values()) == route.n_links - 1

    def test_opposite_directions_are_distinct_channels(self):
        topo, sw, hosts = ring_topology(3)
        router = UpDownRouter(topo)
        g = channel_dependency_graph(
            topo,
            [router.route(hosts[0], hosts[1]),
             router.route(hosts[1], hosts[0])],
        )
        # The forward and reverse routes share the physical cable but
        # not channels: no node appears in both chains.
        link = topo.links_between(sw[0], sw[1])[0]
        assert (link.link_id, 0) in g or (link.link_id, 1) in g


def _digraphs(max_nodes: int = 8):
    """Random small digraphs in the CDG's adjacency-dict shape (tuple
    nodes, no duplicate edges; self-loops allowed)."""
    def build(args):
        n, edges = args
        g = {(i,): [] for i in range(n)}
        for a, b in edges:
            if a < n and b < n and (b,) not in g[(a,)]:
                g[(a,)].append((b,))
        return g

    edge = st.tuples(st.integers(0, max_nodes - 1),
                     st.integers(0, max_nodes - 1))
    return st.tuples(st.integers(1, max_nodes),
                     st.lists(edge, max_size=3 * max_nodes)).map(build)


class TestCycleSearchOracle:
    """The dependency-free cycle search agrees with networkx."""

    @settings(max_examples=300, deadline=None)
    @given(_digraphs())
    def test_agrees_with_networkx(self, g):
        oracle = nx.DiGraph()
        oracle.add_nodes_from(g)
        oracle.add_edges_from((a, b) for a, succ in g.items() for b in succ)
        cycle = _find_cycle(g)
        assert (cycle is None) == nx.is_directed_acyclic_graph(oracle)
        if cycle is not None:
            # A closed walk over real edges, last node back to the first.
            assert cycle
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert b in g[a]

    def test_deep_chain_needs_no_recursion(self):
        n = 50_000
        chain = {(i,): [(i + 1,)] for i in range(n)}
        chain[(n,)] = []
        assert _find_cycle(chain) is None
        chain[(n,)] = [(0,)]
        assert len(_find_cycle(chain)) == n + 1
