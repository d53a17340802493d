"""The route-batch collector pause (:func:`repro.routing.route_batch`).

Route batches build tens of thousands of acyclic objects, so the cyclic
collector is paused over them.  These tests pin the two halves of that
contract: the collector's prior state always comes back (on, off,
nested, on error), and a batched all-pairs build runs no collection at
all, counted with ``gc.callbacks`` rather than timed.
"""

from __future__ import annotations

import gc

import pytest

import repro.harness.scale_study as scale_study
from repro.routing import ItbRouter, RouteError, UpDownRouter, route_batch
from repro.routing.spanning_tree import build_orientation
from repro.topology.generators import random_irregular_scaled
from tests.helpers import count_collections


@pytest.fixture(autouse=True)
def _restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorState:
    def test_pauses_and_restores_an_enabled_collector(self):
        gc.enable()
        with route_batch():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with route_batch():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_batches_resume_only_at_the_outermost_exit(self):
        gc.enable()
        with route_batch():
            with route_batch():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_a_route_error_propagates(self):
        gc.enable()
        with pytest.raises(RouteError):
            with route_batch():
                raise RouteError("unroutable")
        assert gc.isenabled()

    def test_decorated_router_restores_on_route_error(self):
        """The routers' batch entry points are decorated; a failing
        build leaves the collector as it found it."""
        gc.enable()
        topo = random_irregular_scaled(16, seed=3)
        router = UpDownRouter(topo)
        router.routes_from = _raise_route_error
        with pytest.raises(RouteError):
            router.itb_all_pairs()
        assert gc.isenabled()


def _raise_route_error(*_args, **_kwargs):
    raise RouteError("no valid up*/down* path")


@pytest.mark.parametrize("router_cls", [UpDownRouter, ItbRouter])
def test_batched_build_runs_no_full_collection(router_cls):
    """A 64-switch all-pairs build runs zero full (generation-2)
    collections and at most one collection in all: the young sweep
    the collector owes when it resumes.  The same routes built source
    by source outside a batch trigger many."""
    gc.enable()
    topo = random_irregular_scaled(64, seed=7)
    orientation = build_orientation(topo)
    gc.collect()  # zero every generation's count: a deterministic start
    with count_collections() as batched:
        pairs = router_cls(topo, orientation).itb_all_pairs()
    assert batched[2] == 0
    assert sum(batched.values()) <= 1
    assert gc.isenabled()

    router = router_cls(topo, orientation)
    with count_collections() as unbatched:
        per_source = [router.routes_from(s) for s in topo.hosts()]
    assert unbatched[0] > 1  # the counter sees the collections it should
    assert sum(len(r) for r in per_source) == len(pairs)


@pytest.mark.parametrize("target, dynamic", [(16, True), (32, False)])
def test_measure_scale_point_resumes_the_collector(monkeypatch, target,
                                                   dynamic):
    """The collector is on again when the point returns, and the
    simulated traffic point runs outside the pause."""
    seen = []
    drive = scale_study.drive_traffic

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return drive(*args, **kwargs)

    monkeypatch.setattr(scale_study, "drive_traffic", spy)
    gc.enable()
    row = scale_study.measure_scale_point(
        "irregular", target, "itb", topo_seed=11, dynamic_max=16,
        duration_ns=10_000.0, warmup_ns=2_000.0)
    assert gc.isenabled()
    assert (row.dynamic is not None) == dynamic
    assert seen == ([True] if dynamic else [])
