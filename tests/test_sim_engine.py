"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Timeout,
)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callbacks_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("b"))
        sim.schedule(5, lambda: fired.append("a"))
        sim.schedule(20, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 20.0

    def test_equal_times_fifo(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(7, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_run_until_stops_clock(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == []
        assert sim.now == 50.0
        sim.run()
        assert fired == [1]

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_priority_breaks_ties(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append("low"), priority=1)
        sim.schedule(5, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event("x")
        seen = []

        def proc():
            value = yield ev
            seen.append(value)

        sim.process(proc())
        sim.schedule(5, lambda: ev.succeed(42))
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_trigger_still_runs(self, sim):
        ev = sim.event()
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["v"]

    def test_failed_event_raises_in_waiter(self, sim):
        ev = sim.event()

        def proc():
            with pytest.raises(ValueError):
                yield ev
            return "survived"

        p = sim.process(proc())
        sim.schedule(1, lambda: ev.fail(ValueError("boom")))
        sim.run()
        assert p.returned == "survived"

    def test_ok_property(self, sim):
        ev = sim.event()
        assert not ev.ok
        ev.succeed()
        assert ev.ok
        ev2 = sim.event()
        try:
            raise RuntimeError("x")
        except RuntimeError as e:
            ev2.fail(e)
        assert not ev2.ok


class TestProcesses:
    def test_timeout_advances_clock(self, sim):
        times = []

        def proc():
            yield Timeout(5)
            times.append(sim.now)
            yield Timeout(7.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [5.0, 12.5]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-0.1)

    def test_join_returns_value(self, sim):
        def child():
            yield Timeout(3)
            return "result"

        def parent():
            value = yield sim.process(child())
            return value

        p = sim.process(parent())
        sim.run()
        assert p.returned == "result"
        assert not p.alive

    def test_join_already_finished_process(self, sim):
        def child():
            yield Timeout(1)
            return 7

        c = sim.process(child())

        def parent():
            yield Timeout(10)  # child long done
            value = yield c
            return value

        p = sim.process(parent())
        sim.run()
        assert p.returned == 7

    def test_crash_propagates_from_run(self, sim):
        def bad():
            yield Timeout(1)
            raise RuntimeError("firmware bug")

        sim.process(bad())
        with pytest.raises(SimulationError, match="firmware bug"):
            sim.run()

    def test_yield_garbage_is_error(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="non-waitable"):
            sim.run()

    def test_interrupt_delivers_cause(self, sim):
        causes = []

        def waiter():
            try:
                yield Timeout(1000)
            except Interrupt as i:
                causes.append((sim.now, i.cause))
                return "interrupted"

        p = sim.process(waiter())

        def interrupter():
            yield Timeout(5)
            p.interrupt(cause="stop now")

        sim.process(interrupter())
        sim.run()
        # Interrupt delivered at t=5, long before the 1000 ns timeout
        # (whose stale timer pops harmlessly later).
        assert causes == [(5.0, "stop now")]
        assert p.returned == "interrupted"

    def test_interrupt_dead_process_is_error(self, sim):
        def quick():
            yield Timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_immediate_return_process(self, sim):
        def noop():
            return "done"
            yield  # pragma: no cover

        p = sim.process(noop())
        sim.run()
        assert p.returned == "done"


class TestComposites:
    def test_all_of_waits_for_all(self, sim):
        e1, e2 = sim.event(), sim.event()
        seen = []

        def proc():
            values = yield AllOf([e1, e2])
            seen.append((sim.now, values))

        sim.process(proc())
        sim.schedule(3, lambda: e1.succeed("a"))
        sim.schedule(9, lambda: e2.succeed("b"))
        sim.run()
        assert seen == [(9.0, ["a", "b"])]

    def test_all_of_empty_fires_immediately(self, sim):
        seen = []

        def proc():
            values = yield AllOf([])
            seen.append(values)

        sim.process(proc())
        sim.run()
        assert seen == [[]]

    def test_any_of_returns_first(self, sim):
        e1, e2 = sim.event(), sim.event()
        seen = []

        def proc():
            idx, value = yield AnyOf([e1, e2])
            seen.append((sim.now, idx, value))

        sim.process(proc())
        sim.schedule(4, lambda: e2.succeed("fast"))
        sim.schedule(8, lambda: e1.succeed("slow"))
        sim.run()
        assert seen == [(4.0, 1, "fast")]


class TestRunUntilEvent:
    def test_returns_value(self, sim):
        ev = sim.event()
        sim.schedule(12, lambda: ev.succeed("payload"))
        assert sim.run_until_event(ev) == "payload"
        assert sim.now == 12.0

    def test_deadlock_detected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_event(ev)

    def test_failed_event_raises(self, sim):
        ev = sim.event()
        sim.schedule(1, lambda: ev.fail(ValueError("bad")))
        with pytest.raises(ValueError):
            sim.run_until_event(ev)


class TestWindowedDrain:
    """``next_time`` / ``run_window``: draining strictly before a bound."""

    def test_next_time_empty_calendar(self, sim):
        assert sim.next_time() is None

    def test_next_time_is_earliest_heap_entry(self, sim):
        sim.schedule(30, lambda: None)
        sim.schedule(10, lambda: None)
        assert sim.next_time() == 10.0

    def test_next_time_is_now_with_immediate_work(self, sim):
        sim.schedule(10, lambda: None)
        sim.run(until=4)
        sim.schedule(0, lambda: None)  # zero-delay: the immediate lane
        assert sim.next_time() == sim.now == 4.0

    def test_events_at_t_end_stay_queued(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append(5))
        sim.schedule(10, lambda: fired.append(10))
        sim.run_window(10)
        assert fired == [5]
        assert sim.pending == 1
        sim.run()
        assert fired == [5, 10]

    def test_clock_stays_at_last_dispatched_event(self, sim):
        sim.schedule(3, lambda: None)
        sim.schedule(50, lambda: None)
        sim.run_window(20)
        assert sim.now == 3.0

    def test_empty_window_leaves_clock(self, sim):
        sim.schedule(50, lambda: None)
        assert sim.run_window(20) == 50.0
        assert sim.now == 0.0

    def test_same_instant_spawned_work_settles(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0, lambda: fired.append("spawned"))
            sim.schedule(0, lambda: fired.append("low"), priority=1)

        sim.schedule(7, first)
        sim.schedule(12, lambda: fired.append("later"))
        sim.run_window(8)
        assert fired == ["first", "spawned", "low"]
        assert sim.now == 7.0
        assert sim.next_time() == 12.0

    def test_return_value_is_next_time(self, sim):
        sim.schedule(2, lambda: None)
        sim.schedule(9, lambda: None)
        sim.schedule(15, lambda: None)
        result = sim.run_window(9)
        assert result == sim.next_time() == 9.0
        assert sim.run_window(100) is None
        assert sim.next_time() is None
        assert sim.now == 15.0
