"""Route plans: the routers' one primitive, and scoring without routes.

A router's per-pair plan is ``(switch_path, splits, itb_hosts)``.
``routes_from`` materialises plans into the routes a NIC stamps; the
scale study scores plans directly.  This module pins the three promises
that split rests on:

* plan-scored scale rows equal the older route-object scorer
  (``tests/routing_oracles.py``) field for field;
* scoring builds no route object at all, and a zero-load reselection
  pass builds none either — counted, not timed;
* every check materialisation runs has a plan-level counterpart that
  fails with the same error text.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict

import pytest

from repro.gm.mapper import ItbReselector
from repro.harness.scale_study import (family_topology, measure_scale_point,
                                       score_plans)
from repro.harness.throughput import build_load_network
from repro.routing import ItbRouter, UpDownRouter
from repro.routing.routes import (ItbRoute, RouteError, SourceRoute,
                                  check_plan, materialise, plan_of)
from repro.routing.selectors import MapCongestionView, make_selector
from repro.routing.spanning_tree import build_orientation
from repro.topology.generators import random_irregular
from repro.topology.graph import PortKind, Topology, TopologyError
from tests import routing_oracles

ROUTERS = {"updown": UpDownRouter, "itb": ItbRouter}


@contextmanager
def count_route_objects(monkeypatch):
    """Count :class:`SourceRoute` and :class:`ItbRoute` constructions."""
    counts = {"SourceRoute": 0, "ItbRoute": 0}
    for cls in (SourceRoute, ItbRoute):
        original = cls.__post_init__

        def counted(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    yield counts
    monkeypatch.undo()


def _score_both(topo, make_router, root=None):
    """(plan-scored, route-object-scored) metrics of one router kind."""
    orientation = build_orientation(topo, root=root)
    plans = score_plans(topo, orientation, make_router(topo, orientation))
    pairs = make_router(topo, orientation).itb_all_pairs()
    return plans, routing_oracles.score_routes(topo, orientation, pairs)


def _hostless_violation_topo():
    """Five switches whose shortcut switch (sw3) carries no host: with
    root sw2, the only minimal path sw4 -> sw3 -> sw1 turns down->up at
    sw3, so no in-transit host can legalize it."""
    topo = Topology()
    sw = [topo.add_switch(n_ports=8) for _ in range(5)]
    for a, b in ((0, 1), (0, 2), (2, 4), (1, 3), (4, 3)):
        topo.connect(sw[a], topo.free_port(sw[a]), sw[b],
                     topo.free_port(sw[b]), kind=PortKind.SAN)
    for i in (0, 1, 2, 4):
        topo.attach_host(sw[i], topo.free_port(sw[i]))
    topo.validate()
    return topo, sw


class TestPlanScoringOracle:
    @pytest.mark.parametrize("routing", ["updown", "itb"])
    @pytest.mark.parametrize("family, target", [
        ("irregular", 16), ("irregular", 32), ("clos", 32), ("fattree", 32),
    ])
    def test_plan_scores_equal_route_scores(self, family, target, routing):
        topo = family_topology(family, target, seed=11)
        plans, routes = _score_both(topo, ROUTERS[routing])
        assert plans == routes

    def test_itb_updown_fallback_scores_equal(self):
        """With longer legalizable paths off, a violation at a hostless
        switch sends the pair down the plain up*/down* path."""
        topo, sw = _hostless_violation_topo()
        routers = []

        def make(topo, orientation):
            routers.append(ItbRouter(topo, orientation, allow_longer=False))
            return routers[-1]

        plans, routes = _score_both(topo, make, root=sw[2])
        assert plans == routes
        assert routers[0]._plans[(sw[4], sw[1])] is None  # the fallback ran
        assert plans["minimal_coverage"] < 1.0  # on a non-minimal path

    @pytest.mark.parametrize("routing", ["updown", "itb"])
    def test_measure_scale_point_matches_oracle_row(self, routing):
        row = asdict(measure_scale_point("irregular", 32, routing,
                                         topo_seed=11, dynamic_max=0))
        topo = family_topology("irregular", 32, seed=11)
        _plans, oracle = _score_both(topo, ROUTERS[routing])
        assert {k: row[k] for k in oracle} == oracle


class TestNoRouteObjects:
    @pytest.mark.parametrize("routing", ["updown", "itb"])
    def test_scale_point_builds_no_route_object(self, monkeypatch, routing):
        with count_route_objects(monkeypatch) as counts:
            row = measure_scale_point("irregular", 64, routing,
                                      topo_seed=11, dynamic_max=0)
        assert row.n_pairs == 64 * 63
        assert counts == {"SourceRoute": 0, "ItbRoute": 0}

    def test_the_counter_sees_materialised_routes(self, monkeypatch):
        topo = family_topology("irregular", 16, seed=11)
        router = ItbRouter(topo, build_orientation(topo))
        with count_route_objects(monkeypatch) as counts:
            routes = router.routes_from(topo.hosts()[0])
        assert counts["ItbRoute"] == len(routes)
        assert counts["SourceRoute"] == sum(len(r.segments)
                                            for r in routes.values())

    def test_zero_load_reselection_builds_no_route(self, monkeypatch):
        net = build_load_network(
            random_irregular(8, seed=11, hosts_per_switch=2), "itb")
        reselector = ItbReselector(
            net, make_selector("least-loaded", view=MapCongestionView()))
        with count_route_objects(monkeypatch) as counts:
            assert reselector.reselect() == 0
        assert counts == {"SourceRoute": 0, "ItbRoute": 0}
        assert reselector.decisions > 0  # the selector was still asked

    def test_loaded_reselection_builds_only_changed_routes(self,
                                                           monkeypatch):
        net = build_load_network(
            random_irregular(8, seed=11, hosts_per_switch=2), "itb")
        view = MapCongestionView()
        reselector = ItbReselector(net, make_selector("least-loaded",
                                                      view=view))
        for src in sorted(net.nics):
            table = net.nics[src].route_table
            for dst in table.destinations():
                for host in table.entries[dst].itb_hosts:
                    view.set_load(host, 1e6)
        with count_route_objects(monkeypatch) as counts:
            changed = reselector.reselect()
        assert changed > 0
        assert counts["ItbRoute"] == changed


class TestPlans:
    @pytest.mark.parametrize("routing", ["updown", "itb"])
    def test_routes_materialise_their_plans(self, routing):
        topo = random_irregular(8, seed=11, hosts_per_switch=2)
        router = ROUTERS[routing](topo, build_orientation(topo))
        src = topo.hosts()[3]
        plans = dict(router.plans_from(src))
        routes = router.routes_from(src)
        assert list(plans) == list(routes)
        for d, route in routes.items():
            if isinstance(route, SourceRoute):
                route = ItbRoute((route,))
            assert plan_of(route) == plans[d]


def _itb_plan(topo):
    """An ITB pair with one cut, and its plan."""
    router = ItbRouter(topo, build_orientation(topo))
    for s in topo.hosts():
        for d, plan in router.plans_from(s):
            if plan[1]:
                return s, d, plan
    raise AssertionError("no ITB pair on the test fabric")


def _same_error(topo, s, d, plan, exc_type):
    """check_plan and materialise fail alike on ``plan``."""
    tables = topo.route_tables()
    with pytest.raises(exc_type) as at_plan:
        check_plan(topo, tables, s, d, plan)
    with pytest.raises(exc_type) as at_route:
        materialise(topo, tables, s, d, plan)
    assert str(at_plan.value) == str(at_route.value)
    return str(at_plan.value)


class TestPlanChecks:
    @pytest.fixture
    def fabric(self):
        topo = random_irregular(8, seed=11, hosts_per_switch=2)
        return (topo, *_itb_plan(topo))

    def test_valid_plan_passes_both(self, fabric):
        topo, s, d, plan = fabric
        tables = topo.route_tables()
        check_plan(topo, tables, s, d, plan)
        assert plan_of(ItbRoute(materialise(topo, tables, s, d, plan))) \
            == plan

    def test_corrupted_hop(self, fabric):
        topo, s, d, (path, splits, hosts) = fabric
        adjacency = topo.switch_adjacency()
        stray = next(x for x in topo.switches()
                     if x != path[0] and x not in adjacency[path[0]])
        bad = (path[:1] + (stray,) + path[2:], splits, hosts)
        text = _same_error(topo, s, d, bad, TopologyError)
        assert text.startswith("no link between")

    def test_corrupted_endpoint(self, fabric):
        topo, s, d, (path, splits, hosts) = fabric
        other = next(x for x in topo.switches() if x != path[-1])
        bad = (path[:-1] + (other,), splits, hosts)
        text = _same_error(topo, s, d, bad, RouteError)
        assert text == "switch_path endpoints do not match hosts"

    def test_in_transit_host_off_its_switch(self, fabric):
        topo, s, d, (path, splits, hosts) = fabric
        elsewhere = next(h for h in topo.hosts()
                         if topo.switch_of(h) != path[splits[0]])
        bad = (path, splits, (elsewhere,) + hosts[1:])
        text = _same_error(topo, s, d, bad, TopologyError)
        assert text.startswith("no link between")
