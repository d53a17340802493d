"""Tests for BFS spanning tree and up/down orientation."""

from __future__ import annotations

import pytest

from repro.routing.routes import Direction, RouteError
from repro.routing.spanning_tree import build_orientation, choose_root
from repro.topology.generators import fig1_topology, linear_switches, random_irregular
from repro.topology.graph import Topology


class TestBuildOrientation:
    def test_levels_from_root(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        assert o.level[roles["sw0"]] == 0
        assert o.level[roles["sw1"]] == 1
        assert o.level[roles["sw2"]] == 1
        assert o.level[roles["sw4"]] == 2
        assert o.level[roles["sw6"]] == 2

    def test_up_end_is_closer_to_root(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        link = topo.links_between(roles["sw0"], roles["sw1"])[0]
        assert o.up_end[link.link_id] == roles["sw0"]

    def test_tie_broken_by_lower_id(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        # sw4 and sw6 are both level 2; lower id wins the up end.
        link = topo.links_between(roles["sw4"], roles["sw6"])[0]
        assert o.up_end[link.link_id] == min(roles["sw4"], roles["sw6"])

    def test_every_fabric_link_oriented(self):
        topo = random_irregular(12, seed=1)
        o = build_orientation(topo)
        fabric = [l for l in topo.links
                  if topo.is_switch(l.node_a) and topo.is_switch(l.node_b)]
        assert set(o.up_end) == {l.link_id for l in fabric}

    def test_bad_root_rejected(self):
        topo, roles = fig1_topology()
        with pytest.raises(RouteError):
            build_orientation(topo, root=roles["host_on_sw0"])

    def test_no_switches_rejected(self):
        topo = Topology()
        with pytest.raises(RouteError):
            build_orientation(topo)


class TestDirection:
    def test_direction_semantics(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        link = topo.links_between(roles["sw0"], roles["sw1"])[0]
        assert o.direction(link.link_id, roles["sw1"], roles["sw0"]) is Direction.UP
        assert o.direction(link.link_id, roles["sw0"], roles["sw1"]) is Direction.DOWN

    def test_host_link_has_no_direction(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        host_link = topo.host_link(roles["host_on_sw0"])
        with pytest.raises(RouteError):
            o.direction(host_link.link_id, roles["sw0"], roles["host_on_sw0"])

    def test_transition_rule(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        assert o.is_valid_transition(None, Direction.UP)
        assert o.is_valid_transition(None, Direction.DOWN)
        assert o.is_valid_transition(Direction.UP, Direction.DOWN)
        assert o.is_valid_transition(Direction.UP, Direction.UP)
        assert o.is_valid_transition(Direction.DOWN, Direction.DOWN)
        assert not o.is_valid_transition(Direction.DOWN, Direction.UP)


class TestPathValidity:
    def test_fig1_shortcut_invalid(self):
        """The paper's Figure 1 situation: 4 -> 6 -> 1 is forbidden."""
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        path = [roles["sw4"], roles["sw6"], roles["sw1"]]
        assert not o.is_valid_updown_path(topo, path)
        assert o.violations(topo, path) == [1]  # at sw6

    def test_fig1_updown_alternative_valid(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        path = [roles["sw4"], roles["sw2"], roles["sw0"], roles["sw1"]]
        assert o.is_valid_updown_path(topo, path)
        assert o.violations(topo, path) == []

    def test_single_switch_path_valid(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        assert o.is_valid_updown_path(topo, [roles["sw3"]])

    def test_broken_path_rejected(self):
        topo, roles = fig1_topology()
        o = build_orientation(topo, root=roles["sw0"])
        with pytest.raises(RouteError):
            o.violations(topo, [roles["sw4"], roles["sw3"]])


class TestChooseRoot:
    def test_min_eccentricity_on_chain(self):
        topo = linear_switches(5)
        root = choose_root(topo)
        # Middle of a 5-chain minimizes eccentricity.
        assert root == topo.switches()[2]

    def test_deterministic(self):
        topo = random_irregular(10, seed=5)
        assert choose_root(topo) == choose_root(topo)
