"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator, spawn


def test_process_advances_through_timeouts():
    sim = Simulator()
    trace = []

    def body():
        trace.append(("start", sim.now))
        yield sim.timeout(5.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(3.0)
        trace.append(("end", sim.now))

    spawn(sim, body())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 5.0), ("end", 8.0)]


def test_process_receives_event_values():
    sim = Simulator()
    received = []

    def body():
        value = yield sim.timeout(1.0, value="hello")
        received.append(value)

    spawn(sim, body())
    sim.run()
    assert received == ["hello"]


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        return 99

    proc = spawn(sim, body())
    sim.run()
    assert proc.value == 99


def test_process_can_wait_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "child-result"

    def parent():
        result = yield spawn(sim, child())
        return f"got {result}"

    proc = spawn(sim, parent())
    sim.run()
    assert proc.value == "got child-result"
    assert sim.now == 4.0


def test_process_exception_fails_the_process_event():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("worker died")

    proc = spawn(sim, body())
    caught = []
    proc.add_callback(lambda e: caught.append(e))  # someone is watching
    sim.run()
    assert proc.triggered and not proc.ok
    assert caught
    with pytest.raises(RuntimeError):
        _ = proc.value


def test_unobserved_process_exception_crashes_the_run():
    """A fire-and-forget process must not die silently."""
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("nobody is watching")

    spawn(sim, body())
    with pytest.raises(RuntimeError):
        sim.run()


def test_failed_event_is_thrown_into_waiting_process():
    sim = Simulator()
    caught = []

    def body():
        failing = sim.event()
        sim.schedule(1.0, failing.fail, ValueError("bad"))
        try:
            yield failing
        except ValueError as exc:
            caught.append(str(exc))

    spawn(sim, body())
    sim.run()
    assert caught == ["bad"]


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def body():
        yield 42  # type: ignore[misc]

    proc = spawn(sim, body())
    sim.run()
    with pytest.raises(SimulationError):
        _ = proc.value


@pytest.mark.parametrize(
    "bad", [True, -1.0, float("nan"), float("-inf"), "5.0", None], ids=repr
)
def test_bad_yields_fail_the_process(bad):
    """The contract is "an Event or a non-negative float": ``bool`` and
    ``int`` are not holds, and a negative or NaN hold never reaches the
    heap."""
    sim = Simulator()

    def body():
        yield bad

    proc = spawn(sim, body())
    sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(SimulationError, match="non-negative float"):
        _ = proc.value
    assert sim.events_handled == 1  # the start tick only: nothing was scheduled


def test_hold_resumes_after_the_delay_with_no_value():
    sim = Simulator()
    log = []

    def body():
        got = yield 5.0
        log.append((sim.now, got))
        got = yield 0.0  # a zero hold is one same-tick step, like timeout(0)
        log.append((sim.now, got))
        return "done"

    proc = spawn(sim, body())
    sim.run()
    assert log == [(5.0, None), (5.0, None)]
    assert proc.value == "done"
    assert sim.events_handled == 3  # start + two holds: one entry per hold


def _mixed_run(seed, wait):
    """A seeded mix of processes whose pure delays go through ``wait``,
    interleaved with zero-delay schedules, ``schedule_at`` ties on the
    instants the processes wake at, event hand-offs and bounded runs."""
    import random

    rng = random.Random(seed)
    sim = Simulator()
    log = []
    delays = [0.0, 0.0, 1.0, 2.5, 2.5, 7.0]  # repeats make same-instant ties common

    def poke(tag):
        log.append((sim.now, "poke", tag))

    def worker(tag, mailbox):
        for step in range(rng.randrange(2, 7)):
            choice = rng.random()
            if choice < 0.6:
                yield wait(sim, rng.choice(delays))
            elif choice < 0.75:
                got = yield sim.timeout(rng.choice(delays), value=(tag, step))
                log.append((sim.now, "value", got))
            elif choice < 0.9:
                sim.schedule(0.0, poke, (tag, step))
                sim.schedule_at(sim.now + rng.choice(delays), poke, (tag, step, "at"))
            else:
                yield mailbox
            log.append((sim.now, "step", tag, step))
        return tag

    mailbox = sim.event()
    procs = [spawn(sim, worker(tag, mailbox)) for tag in range(8)]
    sim.schedule(4.0, mailbox.succeed, "mail")
    for bound in (1.0, 2.5, 6.0):
        sim.run(until=bound)
        log.append((sim.now, "bound", sim.events_handled))
    sim.run()
    return log, sim.events_handled, sim.now, [p.value for p in procs]


@pytest.mark.parametrize("seed", range(12))
def test_hold_takes_the_sequence_slot_of_the_timeout_it_replaces(seed):
    """``yield d`` and ``yield sim.timeout(d)`` order identically against
    everything else on the heap and the zero-delay queue, and cost the
    same number of handled events."""
    held = _mixed_run(seed, lambda sim, delay: delay)
    timed = _mixed_run(seed, lambda sim, delay: sim.timeout(delay))
    assert held == timed
    assert any(entry[1] == "poke" for entry in held[0])


def test_cancel_group_turns_a_pending_hold_into_a_no_op():
    sim = Simulator()
    log = []

    def body(tag):
        try:
            yield 10.0
            log.append(("resumed", tag))
        finally:
            log.append(("closed", tag, sim.now))

    victim = spawn(sim, body("victim"), group="node0")
    spawn(sim, body("bystander"), group="node1")
    sim.run(until=4.0)
    assert sim.cancel_groups(["node0"]) == 1
    assert log == [("closed", "victim", 4.0)]  # the finally ran at the cancel
    assert not victim.is_alive and not victim.triggered
    before = sim.events_handled
    sim.run()
    # The victim's step still pops at t=10 and does nothing.
    assert sim.events_handled == before + 2
    assert log == [("closed", "victim", 4.0), ("resumed", "bystander"), ("closed", "bystander", 10.0)]


def test_finished_process_keeps_no_bound_methods():
    sim = Simulator()

    def body():
        yield 1.0

    proc = spawn(sim, body())
    sim.run()
    assert proc._wake is None and proc._step is None  # no reference cycle


def test_is_alive_tracks_lifecycle():
    sim = Simulator()

    def body():
        yield sim.timeout(3.0)

    proc = spawn(sim, body())
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_processes_start_lazily_on_next_tick():
    sim = Simulator()
    started = []

    def body():
        started.append(sim.now)
        yield sim.timeout(0.0)

    spawn(sim, body())
    assert started == []  # not started synchronously
    sim.run()
    assert started == [0.0]
