"""Batched all-pairs route construction vs the per-pair oracles.

Route construction runs per source: one tree per source switch and
flat topology tables resolved once per source.  The per-pair searches
live in :mod:`tests.routing_oracles`.  These tests pin the equivalence
— same routes, byte for byte, in the same insertion order — on every
topology family the repo ships, plus the cache, laziness and work-count
behaviors that ride on the batch path.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.routing.cache import RouteCache, topology_signature
from repro.routing.itb import ItbRouter, round_robin_policy
from repro.routing.minimal import MinimalRouter
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import (
    clos,
    fat_tree,
    fig1_topology,
    fig6_testbed,
    random_irregular,
    random_irregular_scaled,
    torus_2d,
)
from repro.topology.graph import Topology, TopologyError
from tests import routing_oracles


def _topologies():
    yield "fig6", fig6_testbed()[0]
    yield "fig1", fig1_topology()[0]
    yield "random", random_irregular(12, seed=3)
    yield "scaled", random_irregular_scaled(24, seed=7)
    yield "clos", clos(m=3, n=1, r=6)
    yield "fattree", fat_tree(k=4)
    yield "torus", torus_2d(3, 3)


TOPOLOGIES = list(_topologies())
IDS = [name for name, _ in TOPOLOGIES]


@pytest.mark.parametrize("topo", [t for _, t in TOPOLOGIES], ids=IDS)
class TestBatchedEqualsPairwise:
    def test_updown(self, topo):
        orientation = build_orientation(topo)
        batched = UpDownRouter(topo, orientation).all_pairs()
        oracle = routing_oracles.updown_all_pairs(
            UpDownRouter(topo, orientation))
        assert list(batched) == list(oracle)  # insertion order too
        assert batched == oracle

    def test_itb(self, topo):
        orientation = build_orientation(topo)
        batched = ItbRouter(topo, orientation).all_pairs()
        oracle = routing_oracles.itb_all_pairs(ItbRouter(topo, orientation))
        assert list(batched) == list(oracle)
        assert batched == oracle

    def test_minimal_routes_from(self, topo):
        router = MinimalRouter(topo)
        hosts = topo.hosts()
        src = hosts[0]
        routes = router.routes_from(src)
        for d in hosts:
            if d != src:
                assert routes[d] == router.route(src, d)


class TestBatchedStatefulPolicy:
    def test_round_robin_parity(self):
        """A stateful host policy sees the same call sequence batched
        and per-pair (plans never consult the policy; only builds do,
        once per host pair in destination order)."""
        topo = random_irregular(12, seed=3)
        orientation = build_orientation(topo)
        batched = ItbRouter(topo, orientation,
                            host_policy=round_robin_policy()).all_pairs()
        oracle = routing_oracles.itb_all_pairs(
            ItbRouter(topo, orientation, host_policy=round_robin_policy()))
        assert batched == oracle


class TestRoutesFromSubsets:
    def test_dests_subset_and_strict(self):
        topo = random_irregular(10, seed=5)
        router = UpDownRouter(topo)
        hosts = topo.hosts()
        src = hosts[0]
        subset = hosts[1:4]
        routes = router.routes_from(src, dests=subset)
        assert list(routes) == subset
        full = router.routes_from(src)
        assert {d: full[d] for d in subset} == routes

    def test_src_excluded(self):
        topo = random_irregular(8, seed=2)
        router = ItbRouter(topo)
        src = topo.hosts()[0]
        assert src not in router.routes_from(src)


class TestRouteCacheBatch:
    def test_routes_for_uses_batched_builder(self):
        topo = random_irregular(10, seed=4)
        cache = RouteCache(max_entries=4)
        _orient, pairs = cache.routes_for(topo, "itb")
        oracle = routing_oracles.itb_all_pairs(
            ItbRouter(topo, build_orientation(topo)))
        assert pairs == oracle

    def test_routes_from_counts_batch_hits(self):
        topo = random_irregular(10, seed=4)
        cache = RouteCache(max_entries=4)
        src = topo.hosts()[0]

        # Cold: a miss, no batch hit.
        _o, routes = cache.routes_from(topo, "updown", src)
        assert cache.stats()["batch_hits"] == 0
        assert cache.stats()["misses"] == 1

        # Warm per-source entry: a batch hit.
        _o, again = cache.routes_from(topo, "updown", src)
        assert again == routes
        assert cache.stats()["batch_hits"] == 1

        # A warm full table also serves per-source slices as batch hits.
        _o, pairs = cache.routes_for(topo, "updown")
        _o, sliced = cache.routes_from(topo, "updown", src)
        assert cache.stats()["batch_hits"] == 2
        assert sliced == {d: r for (s, d), r in pairs.items() if s == src}

    def test_batch_hits_in_reset(self):
        cache = RouteCache(max_entries=2)
        topo = random_irregular(8, seed=1)
        cache.routes_from(topo, "updown", topo.hosts()[0])
        cache.routes_from(topo, "updown", topo.hosts()[0])
        assert cache.batch_hits == 1
        cache.reset_stats()
        assert cache.batch_hits == 0


class TestLazyDerivedState:
    def test_build_does_not_compute_distance_maps(self):
        """Constructing and validating a topology must stay O(V+E):
        the per-source BFS distance maps are computed on first routing
        use, not eagerly (satellite of the scale tentpole — building
        512-switch fabrics is decoupled from routing them)."""
        topo = random_irregular_scaled(32, seed=9)
        topo.validate()
        assert not any(
            isinstance(k, tuple) and k[0] == "switch_distances"
            for k in topo._derived
        )
        build_orientation(topo)  # root election walks every source
        assert any(
            isinstance(k, tuple) and k[0] == "switch_distances"
            for k in topo._derived
        )

    def test_signature_memoized(self):
        topo = random_irregular(8, seed=6)
        a = topology_signature(topo)
        assert "topology_signature" in topo._derived
        assert topology_signature(topo) == a


class TestFlatTableWorkCount:
    """Batched construction resolves topology tables once per source
    (or once per batch), never once per host pair."""

    @pytest.mark.parametrize("router_cls", [UpDownRouter, ItbRouter],
                             ids=["updown", "itb"])
    def test_derived_lookups_scale_with_switches(self, router_cls):
        topo = random_irregular_scaled(64, seed=11)
        orientation = build_orientation(topo)
        n_switches = len(topo.switches())
        n_hosts = len(topo.hosts())
        with mock.patch.object(Topology, "derived", autospec=True,
                               side_effect=Topology.derived) as spy:
            pairs = router_cls(topo, orientation).all_pairs()
        assert len(pairs) == n_hosts * (n_hosts - 1)
        # One route-table fetch per source host, one shortest-path DAG
        # (and its distance map) per destination switch: a fixed
        # multiple of the switch count, far below the 4032 host pairs.
        assert n_hosts == n_switches
        assert spy.call_count <= 4 * n_switches

    def test_walk_route_errors_keep_their_text(self):
        topo = Topology()
        s1 = topo.add_switch(name="s1")
        s2 = topo.add_switch(name="s2")
        topo.connect(s1, 0, s2, 0)
        h1 = topo.attach_host(s1, 1, name="h1")
        h2 = topo.attach_host(s2, 1, name="h2")
        assert topo.walk_route(h1, [0, 1]) == h2
        with pytest.raises(TopologyError) as dangling:
            topo.walk_route(h1, [0, 5])
        assert str(dangling.value) == "route byte 1: s2 port 5 is not cabled"
        with pytest.raises(TopologyError) as at_host:
            topo.walk_route(h1, [0, 1, 0])
        assert str(at_host.value) == "route byte 2 consumed at non-switch h2"
