"""Unit tests for the simulation kernel (events, timeouts, conditions)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_schedule_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(3.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_nan_delay_rejected():
    """``nan < 0`` and ``nan == 0`` are both false: a NaN delay used to be
    heap-pushed at time NaN, which compares false against everything and
    silently breaks the heap's ordering."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.timeout(float("nan"))
    assert not sim._heap and not sim._nowq


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, True)
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [True]


def test_run_max_events_guards_against_livelock():
    sim = Simulator()

    def reschedule():
        sim.schedule(0.0, reschedule)

    sim.schedule(0.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_event_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed(42)
    assert seen == [42]
    assert event.triggered and event.ok
    assert event.value == 42


def test_event_callback_after_trigger_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("x")
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(ValueError("boom"))


def test_event_fail_propagates_exception_on_value_access():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError):
        _ = event.value


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_timeout_fires_at_the_right_time():
    sim = Simulator()
    timeout = sim.timeout(7.5, value="done")
    stamps = []
    timeout.add_callback(lambda e: stamps.append((sim.now, e.value)))
    sim.run()
    assert stamps == [(7.5, "done")]


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.1)


def test_any_of_fires_on_first_event():
    sim = Simulator()
    slow = sim.timeout(10.0, value="slow")
    fast = sim.timeout(2.0, value="fast")
    any_of = sim.any_of([slow, fast])
    sim.run()
    assert any_of.triggered
    assert any_of.value is fast
    assert any_of.value.value == "fast"


def test_any_of_with_pretriggered_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("now")
    any_of = sim.any_of([done, sim.timeout(5.0)])
    assert any_of.triggered
    assert any_of.value is done


def test_all_of_collects_all_values_in_order():
    sim = Simulator()
    events = [sim.timeout(3.0, "a"), sim.timeout(1.0, "b"), sim.timeout(2.0, "c")]
    all_of = sim.all_of(events)
    sim.run()
    assert all_of.value == ["a", "b", "c"]
    assert sim.now == 3.0


def test_all_of_with_all_pretriggered():
    sim = Simulator()
    e1, e2 = sim.event(), sim.event()
    e1.succeed(1)
    e2.succeed(2)
    all_of = sim.all_of([e1, e2])
    assert all_of.triggered
    assert all_of.value == [1, 2]


def test_condition_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.any_of([])
    with pytest.raises(SimulationError):
        sim.all_of([])


def test_events_handled_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_handled == 5


# -- PR 5 regression tests: condition detach, bounded runs, fast path ----


def test_any_of_detaches_check_from_losing_children():
    sim = Simulator()
    slow = sim.timeout(10.0)
    fast = sim.timeout(2.0)
    any_of = sim.any_of([slow, fast])
    sim.run(until=5.0)
    assert any_of.triggered
    # The losing child must not keep a reference to the condition's
    # _check callback for the rest of the run (callback leak).
    assert slow._callbacks == []


def test_any_of_detach_leaves_other_waiters_attached():
    sim = Simulator()
    slow = sim.timeout(10.0)
    fast = sim.timeout(2.0)
    sim.any_of([slow, fast])
    seen = []
    slow.add_callback(seen.append)
    sim.run()
    # Detach removes only the condition's own callback, not others'.
    assert seen == [slow]


def test_all_of_detaches_check_from_remaining_children_on_failure():
    sim = Simulator()
    pending = sim.event("never")
    doomed = sim.event("doomed")
    all_of = sim.all_of([pending, doomed])
    doomed.fail(RuntimeError("boom"))
    assert all_of.triggered and not all_of.ok
    assert pending._callbacks == []


def test_all_of_children_empty_after_success():
    sim = Simulator()
    events = [sim.timeout(1.0), sim.timeout(2.0), sim.timeout(3.0)]
    all_of = sim.all_of(events)
    sim.run()
    assert all_of.triggered
    assert all(e._callbacks == [] for e in events)


def test_run_until_clamps_time_when_heap_drains_early():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    end = sim.run(until=10.0)
    # The heap drained at t=3, but the caller asked for "up to 10":
    # bounded runs report the bound, not the last event's timestamp.
    assert end == 10.0
    assert sim.now == 10.0


def test_run_until_never_moves_time_backwards():
    sim = Simulator()
    sim.schedule(7.0, lambda: None)
    sim.run()
    assert sim.now == 7.0
    assert sim.run(until=3.0) == 7.0


def test_bounded_run_skips_deadlock_watchdog():
    from repro.sim import spawn

    sim = Simulator()

    def stuck(sim):
        yield sim.event("never-triggered")

    spawn(sim, stuck(sim), name="stuck")
    # Deliberately truncated run: no deadlock diagnosis.
    assert sim.run(until=100.0) == 100.0
    # The unbounded drain of the same state IS a deadlock.
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run()


def test_zero_delay_fastpath_interleaves_with_heap_in_seq_order():
    sim = Simulator()
    order = []
    # Mixed zero/nonzero scheduling at the same instant must preserve
    # global insertion order once time reaches that instant.
    sim.schedule(0.0, order.append, "z1")
    sim.schedule(0.0, order.append, "z2")
    sim.run()
    assert order == ["z1", "z2"]

    order.clear()

    def at_t5():
        order.append("heap@5")
        sim.schedule(0.0, order.append, "now@5-a")
        sim.schedule(0.0, order.append, "now@5-b")

    sim.schedule(5.0, at_t5)
    sim.schedule(5.0, order.append, "heap@5-later")
    sim.run()
    assert order == ["heap@5", "heap@5-later", "now@5-a", "now@5-b"]


def test_zero_delay_entries_count_as_handled_events():
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_handled == 2


def test_schedule_at_runs_at_the_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: sim.schedule_at(7.5, lambda: seen.append(sim.now)))
    sim.run()
    # 7.5, not 2.0 + 7.5: the argument is a timestamp, not a delay.
    assert seen == [7.5]


def test_schedule_at_is_fifo_among_equal_times_and_with_schedule():
    sim = Simulator()
    order = []
    sim.schedule_at(3.0, order.append, "at-1")
    sim.schedule(3.0, order.append, "delay-2")
    sim.schedule_at(3.0, order.append, "at-3")
    sim.schedule_at(1.0, order.append, "early")
    sim.run()
    assert order == ["early", "at-1", "delay-2", "at-3"]


def test_schedule_at_now_interleaves_with_the_zero_delay_queue():
    sim = Simulator()
    order = []

    def at_t5():
        order.append("heap@5")
        sim.schedule(0.0, order.append, "now-a")
        sim.schedule_at(sim.now, order.append, "now-b")
        sim.schedule(0.0, order.append, "now-c")

    sim.schedule_at(5.0, at_t5)
    # Queued for t=5 before any of the "now" entries existed: runs first.
    sim.schedule_at(5.0, order.append, "heap@5-later")
    sim.run()
    assert order == ["heap@5", "heap@5-later", "now-a", "now-b", "now-c"]
    assert sim.events_handled == 5


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule(4.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(3.999, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    sim.schedule_at(4.0, lambda: None)  # the present is fine


def test_schedule_at_honours_run_until():
    sim = Simulator()
    seen = []
    sim.schedule_at(5.0, seen.append, "in")
    sim.schedule_at(15.0, seen.append, "out")
    assert sim.run(until=10.0) == 10.0
    assert seen == ["in"]
    sim.run()
    assert seen == ["in", "out"] and sim.now == 15.0
