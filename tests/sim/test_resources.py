"""Unit tests for Resource."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, spawn


def hold(res, duration, priority=0):
    yield res.acquire(priority)
    try:
        yield res.sim.timeout(duration)
    finally:
        res.release()


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grant = res.acquire()
    assert grant.triggered
    assert res.in_use == 1


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    trace = []

    def worker(tag, hold):
        yield res.acquire()
        trace.append((tag, "in", sim.now))
        yield sim.timeout(hold)
        res.release()
        trace.append((tag, "out", sim.now))

    spawn(sim, worker("a", 5.0))
    spawn(sim, worker("b", 3.0))
    sim.run()
    # The grant to "b" dispatches synchronously inside release(), so at
    # t=5 "b in" is logged before "a out"; the times are what matter.
    assert trace == [
        ("a", "in", 0.0),
        ("b", "in", 5.0),
        ("a", "out", 5.0),
        ("b", "out", 8.0),
    ]


def test_resource_capacity_allows_parallel_holders():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(tag):
        yield from hold(res, 10.0)
        done.append((tag, sim.now))

    for tag in ("a", "b", "c"):
        spawn(sim, worker(tag))
    sim.run()
    # a and b run in parallel; c waits for one of them.
    assert done == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_resource_priority_orders_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    def waiter(tag, priority):
        yield sim.timeout(1.0)  # let the holder get in first
        yield res.acquire(priority=priority)
        order.append(tag)
        res.release()

    spawn(sim, holder())
    spawn(sim, waiter("low", priority=5))
    spawn(sim, waiter("high", priority=0))
    sim.run()
    assert order == ["high", "low"]


def test_resource_release_when_idle_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_wait_statistics():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        yield from hold(res, 4.0)

    spawn(sim, worker())
    spawn(sim, worker())
    sim.run()
    assert res.total_grants == 2
    assert res.total_wait_time == pytest.approx(4.0)


def test_try_acquire_takes_a_free_unit_in_place():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    assert res.in_use == 1 and res.total_grants == 1 and res.total_wait_time == 0.0
    # Busy: refused, and nothing changes.
    assert not res.try_acquire()
    assert res.in_use == 1 and res.total_grants == 1 and res.queue_length == 0
    res.release()
    assert res.in_use == 0


def test_try_acquire_does_not_jump_the_queue():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire() and res.try_acquire()
    waiter = res.acquire()
    assert not waiter.triggered
    # A unit frees up, but it belongs to the queued waiter.
    res.release()
    assert waiter.triggered and res.in_use == 2
    assert not res.try_acquire()
