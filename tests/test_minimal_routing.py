"""Tests for the minimal (unrestricted shortest-path) router."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from repro.routing.minimal import MinimalRouter, all_shortest_switch_paths
from repro.routing.routes import RouteError
from repro.topology.generators import fig1_topology, mesh_2d, random_irregular


@pytest.fixture
def fig1():
    return fig1_topology()


class TestSwitchDistances:
    def test_matches_networkx(self, fig1):
        topo, _ = fig1
        g = nx.Graph()
        for s in topo.switches():
            for (_p, n, _l) in topo.switch_neighbors(s):
                g.add_edge(s, n)
        for src in topo.switches():
            ours = topo.switch_distances(src)
            theirs = nx.single_source_shortest_path_length(g, src)
            assert ours == dict(theirs)


class TestAllShortestPaths:
    def test_enumerates_all(self, fig1):
        topo, roles = fig1
        paths = list(all_shortest_switch_paths(topo, roles["sw4"], roles["sw1"]))
        assert [roles["sw4"], roles["sw6"], roles["sw1"]] in paths
        lengths = {len(p) for p in paths}
        assert lengths == {3}

    def test_lexicographic_order(self):
        topo = mesh_2d(2, 2)
        s = topo.switches()
        # Two shortest paths between opposite corners of a 2x2 mesh.
        paths = list(all_shortest_switch_paths(topo, s[0], s[3]))
        assert len(paths) == 2
        assert paths == sorted(paths)

    def test_limit_respected(self):
        topo = mesh_2d(3, 3)
        s = topo.switches()
        paths = list(all_shortest_switch_paths(topo, s[0], s[8], limit=2))
        assert len(paths) == 2

    def test_identity_path(self, fig1):
        topo, roles = fig1
        assert list(all_shortest_switch_paths(topo, roles["sw2"], roles["sw2"])) \
            == [[roles["sw2"]]]

    def test_host_endpoint_rejected(self, fig1):
        topo, roles = fig1
        with pytest.raises(RouteError):
            list(all_shortest_switch_paths(topo, roles["host_on_sw0"],
                                           roles["sw1"]))


class TestMinimalRouter:
    def test_takes_the_shortcut(self, fig1):
        topo, roles = fig1
        router = MinimalRouter(topo)
        r = router.route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert list(r.switch_path) == [roles["sw4"], roles["sw6"], roles["sw1"]]
        assert topo.walk_route(r.src, list(r.ports)) == r.dst

    def test_distance(self, fig1):
        topo, roles = fig1
        router = MinimalRouter(topo)
        assert router.distance(roles["host_on_sw4"], roles["host_on_sw1"]) == 3
        assert router.distance(roles["host_on_sw0"], roles["host_on_sw1"]) == 2

    def test_lengths_never_exceed_updown(self):
        from repro.routing.updown import UpDownRouter

        topo = random_irregular(12, seed=42)
        mn = MinimalRouter(topo)
        ud = UpDownRouter(topo)
        for s, d in itertools.permutations(topo.hosts(), 2):
            assert mn.route(s, d).n_switches <= ud.route(s, d).n_switches

    def test_same_host_rejected(self, fig1):
        topo, roles = fig1
        with pytest.raises(RouteError):
            MinimalRouter(topo).route(roles["host_on_sw0"],
                                      roles["host_on_sw0"])
