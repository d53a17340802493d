"""EXP-A5: spanning-tree root placement sensitivity.

up*/down* quality depends on where the BFS root lands — a poorly
placed root (a leaf-ish switch) lengthens valid paths and worsens the
concentration.  ITB routing keeps minimal paths regardless of the
root, so its advantage *grows* under a bad root.  This pins the
robustness argument quantitatively.
"""

from __future__ import annotations

import itertools

import pytest

from repro.routing.itb import ItbRouter
from repro.routing.minimal import MinimalRouter
from repro.routing.spanning_tree import build_orientation, choose_root
from repro.routing.updown import UpDownRouter
from repro.topology.generators import linear_switches, random_irregular


def _avg_hops(router_route, hosts):
    total = 0
    n = 0
    for s, d in itertools.permutations(hosts, 2):
        route = router_route(s, d)
        hops = route.switch_hops() if hasattr(route, "switch_hops") else []
        total += len(hops)
        n += 1
    return total / n


def _worst_root(topo):
    """The root maximizing BFS eccentricity — the anti-optimal choice."""
    def ecc(s):
        return max(topo.switch_distances(s).values())

    return max(topo.switches(), key=lambda s: (ecc(s), s))


class TestRootPlacement:
    @pytest.fixture(scope="class")
    def topo(self):
        return random_irregular(12, seed=21, hosts_per_switch=1)

    def test_bad_root_lengthens_updown_paths(self, topo):
        hosts = topo.hosts()
        good = build_orientation(topo, root=choose_root(topo))
        bad = build_orientation(topo, root=_worst_root(topo))
        ud_good = UpDownRouter(topo, good)
        ud_bad = UpDownRouter(topo, bad)
        assert _avg_hops(ud_bad.route, hosts) >= \
            _avg_hops(ud_good.route, hosts)

    def test_itb_immune_to_root_choice(self, topo):
        """ITB fabric-hop counts are root-independent whenever every
        violation switch carries a host (every switch does here)."""
        hosts = topo.hosts()
        good = build_orientation(topo, root=choose_root(topo))
        bad = build_orientation(topo, root=_worst_root(topo))
        itb_good = ItbRouter(topo, good)
        itb_bad = ItbRouter(topo, bad)
        mn = MinimalRouter(topo)
        minimal = _avg_hops(mn.route, hosts)
        assert _avg_hops(itb_good.itb_route, hosts) == pytest.approx(minimal)
        assert _avg_hops(itb_bad.itb_route, hosts) == pytest.approx(minimal)

    def test_advantage_grows_under_bad_root(self, topo):
        """The ITB-vs-UD hop saving is at least as large under the
        anti-optimal root as under the optimal one."""
        hosts = topo.hosts()
        savings = {}
        for label, root in (("good", choose_root(topo)),
                            ("bad", _worst_root(topo))):
            orientation = build_orientation(topo, root=root)
            ud = UpDownRouter(topo, orientation)
            itb = ItbRouter(topo, orientation)
            savings[label] = (_avg_hops(ud.route, hosts)
                              - _avg_hops(itb.itb_route, hosts))
        assert savings["bad"] >= savings["good"] - 1e-9

    def test_chain_extreme(self):
        """On a chain rooted at one end, up*/down* still routes every
        pair minimally (a path graph has unique paths) — the pathology
        needs cycles, which the irregular fixture provides."""
        topo = linear_switches(6, hosts_per_switch=1)
        end_root = topo.switches()[0]
        orientation = build_orientation(topo, root=end_root)
        ud = UpDownRouter(topo, orientation)
        mn = MinimalRouter(topo)
        hosts = topo.hosts()
        assert _avg_hops(ud.route, hosts) == pytest.approx(
            _avg_hops(mn.route, hosts))
