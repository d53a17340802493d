"""Tests for the ITB router — the paper's core routing contribution."""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.cdg import is_deadlock_free
from repro.routing.itb import ItbRouter, first_host_policy, round_robin_policy
from repro.routing.minimal import MinimalRouter, all_shortest_switch_paths
from repro.routing.routes import RouteError
from repro.routing.spanning_tree import build_orientation
from repro.routing.updown import UpDownRouter
from repro.topology.generators import fig1_topology, linear_switches, random_irregular
from repro.topology.graph import PortKind, Topology
from tests import routing_oracles


@pytest.fixture
def fig1_setup():
    topo, roles = fig1_topology()
    orientation = build_orientation(topo, root=roles["sw0"])
    return topo, roles, ItbRouter(topo, orientation)


class TestShowcase:
    """The exact Figure 1 scenario."""

    def test_minimal_route_legalized_with_one_itb(self, fig1_setup):
        topo, roles, router = fig1_setup
        route = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert route.n_itbs == 1
        # The in-transit host sits on switch 6, where the down->up
        # transition occurs.
        assert topo.switch_of(route.itb_hosts[0]) == roles["sw6"]
        # Segment switch paths: 4->6 then 6->1.
        assert list(route.segments[0].switch_path) == [roles["sw4"], roles["sw6"]]
        assert list(route.segments[1].switch_path) == [roles["sw6"], roles["sw1"]]

    def test_uses_fewer_fabric_links_than_updown(self, fig1_setup):
        topo, roles, router = fig1_setup
        ud = UpDownRouter(topo, router.orientation)
        r_itb = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        r_ud = ud.route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert len(r_itb.switch_hops()) < len(r_ud.switch_hops())

    def test_segments_each_valid_updown(self, fig1_setup):
        topo, roles, router = fig1_setup
        route = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        for seg in route.segments:
            assert router.orientation.is_valid_updown_path(
                topo, list(seg.switch_path))


class TestAllPairs:
    def test_all_routes_valid_deliverable_deadlock_free(self, fig1_setup):
        topo, roles, router = fig1_setup
        routes = router.all_pairs()
        for (s, d), route in routes.items():
            assert route.src == s and route.dst == d
            current = s
            for seg in route.segments:
                assert topo.walk_route(current, list(seg.ports)) == seg.dst
                current = seg.dst
                assert router.orientation.is_valid_updown_path(
                    topo, list(seg.switch_path))
        assert is_deadlock_free(topo, routes.values())

    def test_inter_switch_hops_match_minimal_when_legalizable(self, fig1_setup):
        """With a host on every switch, ITB routing achieves minimal
        inter-switch hop counts for every pair (the paper's claim)."""
        topo, roles, router = fig1_setup
        mn = MinimalRouter(topo)
        for s, d in itertools.permutations(topo.hosts(), 2):
            route = router.itb_route(s, d)
            minimal = mn.route(s, d)
            assert len(route.switch_hops()) == len(minimal.switch_hops())

    def test_valid_paths_get_no_itbs(self, fig1_setup):
        """Pairs whose minimal path is already legal use zero ITBs."""
        topo, roles, router = fig1_setup
        route = router.itb_route(roles["host_on_sw0"], roles["host_on_sw1"])
        assert route.n_itbs == 0


class TestFallbacks:
    def _hostless_violation_topo(self):
        """Fig-1-like shortcut whose violation switch has NO host."""
        topo = Topology()
        sw = [topo.add_switch(n_ports=8) for i in range(5)]

        def join(a, b):
            topo.connect(sw[a], topo.free_port(sw[a]),
                         sw[b], topo.free_port(sw[b]), kind=PortKind.SAN)

        join(0, 1)
        join(0, 2)
        join(2, 4)
        join(1, 3)  # sw3 = the shortcut switch, kept hostless
        join(4, 3)
        hosts = {}
        for i in (0, 1, 2, 4):
            hosts[i] = topo.attach_host(sw[i], topo.free_port(sw[i]))
        topo.validate()
        return topo, sw, hosts

    def _fallback_pair(self, allow_longer):
        """The 4 -> 1 pair rooted at sw2: its only minimal path
        4 -> 3 -> 1 turns down->up at the hostless sw3."""
        topo, sw, hosts = self._hostless_violation_topo()
        orientation = build_orientation(topo, root=sw[2])
        router = ItbRouter(topo, orientation, allow_longer=allow_longer)
        (path,) = all_shortest_switch_paths(topo, sw[4], sw[1])
        assert path == [sw[4], sw[3], sw[1]]
        assert router.split_points(path) == [1]  # the violation at sw3
        return topo, hosts, router, UpDownRouter(topo, orientation)

    def _assert_consistent(self, topo, router, route, src, dst):
        assert route == routing_oracles.itb_route(router, src, dst)
        assert is_deadlock_free(topo, [route])

    def test_fallback_to_updown_when_no_host(self):
        topo, hosts, router, ud = self._fallback_pair(allow_longer=False)
        with mock.patch.object(router._updown, "itb_route",
                               wraps=router._updown.itb_route) as spy:
            route = router.itb_route(hosts[4], hosts[1])
        # The minimal path's split switch is hostless: plain up*/down*.
        spy.assert_called_once_with(hosts[4], hosts[1])
        assert route.n_itbs == 0
        assert route.segments[0].switch_path == \
            ud.route(hosts[4], hosts[1]).switch_path
        self._assert_consistent(topo, router, route, hosts[4], hosts[1])

    def test_allow_longer_finds_legalizable_path(self):
        """allow_longer searches longer paths with ITBs where that
        beats the up*/down* fallback; here it can't beat it, so the
        result must still be at least as short."""
        for a, b in ((4, 1), (1, 4)):
            topo, hosts, router, ud = self._fallback_pair(allow_longer=True)
            src, dst = hosts[a], hosts[b]
            with mock.patch.object(
                    ItbRouter, "_shortest_legalizable", autospec=True,
                    side_effect=ItbRouter._shortest_legalizable) as search, \
                 mock.patch.object(
                    ItbRouter, "_legal_tree_for", autospec=True,
                    side_effect=ItbRouter._legal_tree_for) as tree:
                route = router.itb_route(src, dst)
            assert search.call_count == 1 and tree.call_count == 1
            assert route.n_switches <= ud.route(src, dst).n_switches
            self._assert_consistent(topo, router, route, src, dst)

    def test_same_host_rejected(self, fig1_setup):
        _, roles, router = fig1_setup
        with pytest.raises(RouteError):
            router.itb_route(roles["host_on_sw0"], roles["host_on_sw0"])


class TestHostPolicies:
    def test_first_host_policy_deterministic(self):
        topo = linear_switches(2, hosts_per_switch=3)
        s = topo.switches()[0]
        assert first_host_policy(topo, s, -1, -1) == topo.hosts_on(s)[0]

    def test_first_host_policy_raises_on_hostless(self):
        topo = Topology()
        s1 = topo.add_switch()
        s2 = topo.add_switch()
        topo.connect(s1, 0, s2, 0)
        topo.attach_host(s2, 1)
        with pytest.raises(RouteError):
            first_host_policy(topo, s1, -1, -1)

    def test_round_robin_rotates(self):
        topo = linear_switches(2, hosts_per_switch=3)
        s = topo.switches()[0]
        policy = round_robin_policy()
        hosts = topo.hosts_on(s)
        picks = [policy(topo, s, -1, -1) for _ in range(6)]
        assert picks == hosts + hosts

    def test_router_accepts_policy(self, fig1_setup):
        topo, roles, _ = fig1_setup
        orientation = build_orientation(topo, root=roles["sw0"])
        router = ItbRouter(topo, orientation, host_policy=round_robin_policy())
        route = router.itb_route(roles["host_on_sw4"], roles["host_on_sw1"])
        assert route.n_itbs == 1


class TestPropertyBased:
    @given(n=st.integers(min_value=3, max_value=12),
           seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_random_topologies_routes_always_sound(self, n, seed):
        """On any random irregular COW: every ITB route is deliverable,
        every segment is up*/down*-valid, the route set is deadlock-free,
        and inter-switch hop counts never exceed up*/down*'s."""
        topo = random_irregular(n, seed=seed)
        orientation = build_orientation(topo)
        router = ItbRouter(topo, orientation)
        ud = UpDownRouter(topo, orientation)
        routes = router.all_pairs()
        for (s, d), route in routes.items():
            current = s
            for seg in route.segments:
                assert topo.walk_route(current, list(seg.ports)) == seg.dst
                assert router.orientation.is_valid_updown_path(
                    topo, list(seg.switch_path))
                current = seg.dst
            assert current == d
            assert len(route.switch_hops()) <= \
                len(ud.route(s, d).switch_hops())
        assert is_deadlock_free(topo, routes.values())
