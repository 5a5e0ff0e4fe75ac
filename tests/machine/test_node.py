"""Unit tests for the node model: CPU charging, handler priority."""

import pytest

from repro.errors import ConfigError
from repro.machine import Cluster, CostModel
from repro.metrics.counters import Category
from repro.network import Message, MessageKind
from repro.sim import spawn


def test_cluster_builds_nodes():
    cluster = Cluster(num_nodes=4, page_size=4096)
    assert len(cluster.nodes) == 4
    assert cluster.node(2).node_id == 2


def test_cluster_validation():
    with pytest.raises(ConfigError):
        Cluster(num_nodes=1)
    with pytest.raises(ConfigError):
        Cluster(num_nodes=2, page_size=100)
    with pytest.raises(ConfigError):
        Cluster(num_nodes=2).node(9)


def test_occupy_charges_category():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)

    def work():
        yield from node.occupy(100.0, Category.BUSY)
        yield from node.occupy(30.0, Category.DSM)

    spawn(cluster.sim, work())
    cluster.run()
    assert node.breakdown.times[Category.BUSY] == pytest.approx(100.0)
    assert node.breakdown.times[Category.DSM] == pytest.approx(30.0)
    assert node.breakdown.charged_cpu == pytest.approx(130.0)


def test_occupy_serializes_on_one_cpu():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    finish_times = []

    def work(tag):
        yield from node.occupy(50.0, Category.BUSY)
        finish_times.append(cluster.sim.now)

    spawn(cluster.sim, work("a"))
    spawn(cluster.sim, work("b"))
    cluster.run()
    assert finish_times == [50.0, 100.0]


def test_zero_duration_occupy_is_free():
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)

    def work():
        yield from node.occupy(0.0, Category.BUSY)

    proc = spawn(cluster.sim, work())
    cluster.run()
    assert proc.triggered
    assert node.breakdown.total == 0.0


def test_message_send_charges_dsm_and_delivers():
    cluster = Cluster(num_nodes=2)
    sender, receiver = cluster.node(0), cluster.node(1)
    seen = []
    receiver.set_message_handler(lambda msg: iter(seen.append(msg) or ()))

    def work():
        accepted = yield from sender.send_message(
            Message(src=0, dst=1, kind=MessageKind.LOCK_REQUEST, size_bytes=64)
        )
        assert accepted

    spawn(cluster.sim, work())
    cluster.run()
    assert len(seen) == 1
    # A lock request is tracked and one-way: the receiver acks it, so
    # each side pays one send and one receive.
    costs = sender.costs
    for node in (sender, receiver):
        assert node.breakdown.times[Category.DSM] == pytest.approx(
            costs.msg_send_cpu + costs.msg_recv_cpu
        )


def test_mt_mode_adds_async_arrival_cost():
    plain = Cluster(num_nodes=2)
    plain.node(1).set_message_handler(lambda m: iter(()))

    def send(cluster):
        def work():
            yield from cluster.node(0).send_message(
                Message(src=0, dst=1, kind=MessageKind.LOCK_REQUEST, size_bytes=64)
            )

        spawn(cluster.sim, work())
        cluster.run()
        return cluster.node(1).breakdown.times[Category.DSM]

    base_cost = send(plain)
    mt = Cluster(num_nodes=2)
    mt.node(1).set_message_handler(lambda m: iter(()))
    mt.node(1).mt_mode = True
    mt_cost = send(mt)
    assert mt_cost == pytest.approx(base_cost + mt.costs.async_arrival_extra)


def test_cost_model_validation_and_overrides():
    with pytest.raises(ConfigError):
        CostModel(context_switch=-1)
    with pytest.raises(ConfigError):
        CostModel(cpu_mhz=0)
    faster = CostModel().with_overrides(context_switch=10.0)
    assert faster.context_switch == 10.0
    assert CostModel().context_switch == 110.0


def test_cost_model_helpers():
    costs = CostModel()
    assert costs.cycles_us(133.0) == pytest.approx(1.0)
    assert costs.diff_create_us(4096, 0) > 0
    assert costs.diff_apply_us(100) > costs.diff_apply_us(0)


def _occupy_via_events(node, duration, category, priority):
    """``Node.occupy`` as it was before the in-place grant and the hold:
    always an acquire event, even on a free CPU, and a ``Timeout`` object
    per charge."""
    yield node.cpu.acquire(priority)
    try:
        started = node.sim.now
        yield node.sim.timeout(duration)
        node.breakdown.charge(category, duration)
        node.sim.trace.slice(started, duration, "cpu", category.value, node.node_id)
    finally:
        node.cpu.release()


@pytest.mark.parametrize("seed", range(8))
def test_in_place_grant_matches_event_grant(seed):
    """The same random mix of idle-CPU and contended charges, once through
    ``occupy`` and once through an always-an-event reference: identical
    grant counts, wait time, breakdown, per-worker finish times, cpu trace
    slices and handled-event count."""
    import random

    from repro.machine.node import HANDLER_PRIORITY, THREAD_PRIORITY
    from repro.trace import Tracer

    def run(occupy):
        rng = random.Random(seed)
        cluster = Cluster(num_nodes=2)
        cluster.sim.trace = Tracer()
        node = cluster.node(0)
        finished = []

        def worker(tag):
            for _ in range(rng.randrange(1, 6)):
                yield cluster.sim.timeout(rng.choice([0.0, 5.0, 40.0, 300.0]))
                category = rng.choice([Category.BUSY, Category.DSM])
                priority = rng.choice([HANDLER_PRIORITY, THREAD_PRIORITY])
                yield from occupy(node, rng.choice([1.0, 25.0, 60.0]), category, priority)
            finished.append((tag, cluster.sim.now))

        for tag in range(6):
            spawn(cluster.sim, worker(tag))
        cluster.run()
        cpu = node.cpu
        slices = [(e.ts, e.dur, e.name, e.node) for e in cluster.sim.trace]
        return (
            finished,
            cpu.total_grants,
            cpu.total_wait_time,
            dict(node.breakdown.times),
            cpu.in_use,
            slices,
        )

    fast = run(lambda node, *args: node.occupy(*args))
    reference = run(_occupy_via_events)
    assert fast == reference
    assert fast[2] > 0  # the mix did contend
    assert len(fast[5]) == fast[1]  # one slice per charge


def test_uncontended_occupy_allocates_no_acquire_event(monkeypatch):
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    monkeypatch.setattr(node.cpu, "acquire", lambda priority=0: pytest.fail("acquire on a free CPU"))

    def work():
        yield from node.occupy(10.0, Category.BUSY)
        yield from node.occupy(5.0, Category.DSM)

    spawn(cluster.sim, work())
    cluster.run()
    assert node.cpu.total_grants == 2 and node.cpu.total_wait_time == 0.0
    assert node.cpu.in_use == 0


def test_occupy_holds_without_a_timeout_object(monkeypatch):
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    monkeypatch.setattr(cluster.sim, "timeout", lambda *a, **k: pytest.fail("Timeout per charge"))

    def work():
        yield from node.occupy(10.0, Category.BUSY)
        yield from node.occupy(5, Category.DSM)  # callers may charge an int

    proc = spawn(cluster.sim, work())
    cluster.run()
    assert proc.ok and cluster.sim.now == 15.0
    assert node.breakdown.times[Category.BUSY] == 10.0
    assert node.breakdown.times[Category.DSM] == 5
    assert cluster.sim.events_handled == 3  # the start tick and one entry per hold


def test_cancel_group_on_a_holding_charge_releases_the_cpu_once(monkeypatch):
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    sim = cluster.sim
    releases = []
    release = node.cpu.release
    monkeypatch.setattr(node.cpu, "release", lambda: (releases.append(sim.now), release()))

    def work():
        yield from node.occupy(100.0, Category.BUSY)

    spawn(sim, work(), group="node0")
    sim.run(until=30.0)
    assert node.cpu.in_use == 1
    sim.cancel_group("node0")
    assert releases == [30.0] and node.cpu.in_use == 0
    handled = sim.events_handled
    cluster.run()  # the cancelled hold's step pops at t=100 and does nothing
    assert sim.events_handled == handled + 1
    assert releases == [30.0]
    assert node.breakdown.times[Category.BUSY] == 0.0  # the charge never completed

    spawn(sim, work(), group="node0")  # the same CPU serves the next charge
    cluster.run()
    assert releases == [30.0, 200.0] and node.cpu.total_grants == 2


def test_handler_overtakes_a_queued_thread():
    from repro.machine.node import HANDLER_PRIORITY

    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    order = []

    def work(tag, start, priority=None):
        yield cluster.sim.timeout(start)
        if priority is None:
            yield from node.occupy(50.0, Category.BUSY)
        else:
            yield from node.occupy(50.0, Category.DSM, priority=priority)
        order.append((tag, cluster.sim.now))

    spawn(cluster.sim, work("holder", 0.0))  # takes the free CPU in place
    spawn(cluster.sim, work("thread", 1.0))  # queues
    spawn(cluster.sim, work("handler", 2.0, HANDLER_PRIORITY))  # queues later, served first
    cluster.run()
    assert order == [("holder", 50.0), ("handler", 100.0), ("thread", 150.0)]
    assert node.cpu.total_wait_time == pytest.approx(48.0 + 99.0)


@pytest.mark.parametrize("cancel_first", [True, False])
def test_reset_cpu_mid_hold_leaves_the_new_resource_clean(cancel_first):
    """Crash rollback cancels a node's processes and swaps its CPU.  A
    charge that was holding (or queueing for) the old CPU must release
    the old one, whichever of the two steps runs first."""
    cluster = Cluster(num_nodes=2)
    node = cluster.node(0)
    sim = cluster.sim

    def work():
        yield from node.occupy(100.0, Category.BUSY)

    spawn(sim, work(), group="node0")  # holds, granted in place
    spawn(sim, work(), group="node0")  # queues behind it
    sim.run(until=30.0)
    old = node.cpu
    assert old.in_use == 1 and old.queue_length == 1
    if cancel_first:
        sim.cancel_group("node0")
        node.reset_cpu()
    else:
        node.reset_cpu()
        sim.cancel_group("node0")
    assert node.cpu is not old
    assert (node.cpu.in_use, node.cpu.total_grants, node.cpu.queue_length) == (0, 0, 0)

    spawn(sim, work(), group="node0")
    cluster.run()
    assert (node.cpu.in_use, node.cpu.total_grants) == (0, 1)
    # Only the post-rollback charge completed.
    assert node.breakdown.times[Category.BUSY] == pytest.approx(100.0)
