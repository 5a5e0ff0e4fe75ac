"""Unit tests for the fault-injection layer (plan validation, each fault
kind, determinism, stats recording)."""

import pytest

from repro.errors import FaultConfigError
from repro.network import (
    BitCorruption,
    FaultPlan,
    FaultyNetwork,
    LinkConfig,
    LinkDegradation,
    LinkPartition,
    Message,
    MessageKind,
    NodeCrash,
    NodeStall,
)
from repro.sim import RandomSource, Simulator
from repro.trace import Tracer

from tests.network.test_network import msg_drops


def build(plan, num_nodes=4, seed=11, **link_kwargs):
    sim = Simulator()
    sim.trace = Tracer()
    net = FaultyNetwork(
        sim,
        num_nodes,
        plan,
        RandomSource(seed),
        link_config=LinkConfig(**link_kwargs),
    )
    inboxes = {n: [] for n in range(num_nodes)}
    for n in range(num_nodes):
        net.attach(n, lambda m, n=n: inboxes[n].append(m))
    return sim, net, inboxes


def msg(src, dst, size=64, kind=MessageKind.PREFETCH_REQUEST):
    return Message(src=src, dst=dst, kind=kind, size_bytes=size)


# -- plan validation -------------------------------------------------------


def test_plan_rejects_bad_probabilities():
    with pytest.raises(FaultConfigError):
        FaultPlan(drop_prob=1.5)
    with pytest.raises(FaultConfigError):
        FaultPlan(duplicate_prob=-0.1)
    with pytest.raises(FaultConfigError):
        FaultPlan(reorder_prob=0.5)  # jitter_us missing
    with pytest.raises(FaultConfigError):
        FaultPlan(jitter_us=-1.0)


def test_degradation_validation():
    with pytest.raises(FaultConfigError):
        LinkDegradation(start_us=100.0, end_us=50.0, bandwidth_factor=0.5)
    with pytest.raises(FaultConfigError):
        LinkDegradation(start_us=0.0, end_us=10.0, bandwidth_factor=0.0)
    with pytest.raises(FaultConfigError):
        LinkDegradation(start_us=0.0, end_us=10.0, bandwidth_factor=2.0)
    with pytest.raises(FaultConfigError):
        LinkDegradation(start_us=0.0, end_us=10.0)  # degrades nothing
    with pytest.raises(FaultConfigError):
        LinkDegradation(start_us=0.0, end_us=10.0, extra_latency_us=-5.0)


def test_stall_validation():
    with pytest.raises(FaultConfigError):
        NodeStall(node=-1, start_us=0.0, end_us=10.0)
    with pytest.raises(FaultConfigError):
        NodeStall(node=0, start_us=10.0, end_us=10.0)


def test_noop_plan():
    assert FaultPlan().is_noop
    assert not FaultPlan(drop_prob=0.1).is_noop


# -- fault kinds -----------------------------------------------------------


def test_drops_hit_roughly_the_configured_rate():
    sim, net, inboxes = build(FaultPlan(drop_prob=0.25))
    refused = 0
    for i in range(400):
        if not net.send(msg(0, 1)):
            refused += 1
    sim.run()
    dropped = net.stats.injected_count("drop")
    assert dropped == refused  # injected drops are sender-visible
    assert 60 <= dropped <= 140  # ~100 expected
    assert len(inboxes[1]) == 400 - dropped
    assert net.stats.drops_by_kind[MessageKind.PREFETCH_REQUEST] == dropped
    # A fault-dropped message is never counted as sent.
    assert net.stats.messages_by_kind[MessageKind.PREFETCH_REQUEST] == 400 - dropped
    # Each reported once, before any in-flight span: no ``msg``.
    assert net.total_drops() == dropped == len(msg_drops(sim))
    assert all(
        drop.args == {"kind": "prefetch_request", "dst": 1, "at": "fault"}
        for drop in msg_drops(sim)
    )


def test_tracked_kinds_drop_and_duplicate_too():
    """No kind is exempt: the transport above the fabric, not the
    fabric, makes a diff request arrive."""
    sim, net, inboxes = build(FaultPlan(drop_prob=1.0))
    assert [net.send(msg(0, 1, kind=MessageKind.DIFF_REQUEST)) for _ in range(10)] == [False] * 10
    sim.run()
    assert not inboxes[1]
    assert net.stats.injected_count("drop") == 10
    sim, net, inboxes = build(FaultPlan(duplicate_prob=1.0))
    for _ in range(10):
        assert net.send(msg(0, 1, kind=MessageKind.DIFF_REQUEST))
    sim.run()
    assert len(inboxes[1]) == 20
    assert net.stats.injected_count("duplicate") == 10


def test_duplicates_delivered_as_extra_copies():
    sim, net, inboxes = build(FaultPlan(duplicate_prob=1.0))
    net.send(msg(0, 1))
    sim.run()
    assert len(inboxes[1]) == 2
    assert net.stats.injected_count("duplicate") == 1
    # The ghost is a distinct wire message with the same logical content.
    a, b = inboxes[1]
    assert a.msg_id != b.msg_id
    assert a.payload is b.payload


def test_jitter_reorders_messages():
    plan = FaultPlan(reorder_prob=0.5, jitter_us=5_000.0)
    sim, net, inboxes = build(plan)
    for i in range(50):
        net.send(msg(0, 1, size=32, kind=MessageKind.PREFETCH_REQUEST))
        inboxes[1].clear
    sim.run()
    assert net.stats.injected_count("delay") > 0


def test_jitter_actually_changes_arrival_order():
    plan = FaultPlan(reorder_prob=0.5, jitter_us=5_000.0)
    sim, net, inboxes = build(plan)
    sent = []
    for i in range(50):
        m = msg(0, 1, size=32)
        m.payload["i"] = i
        sent.append(i)
        net.send(m)
    sim.run()
    arrived = [m.payload["i"] for m in inboxes[1]]
    assert sorted(arrived) == sorted(set(arrived))  # no duplication
    assert arrived != sorted(arrived)  # order was perturbed


def test_degradation_window_slows_affected_traffic():
    window = LinkDegradation(
        start_us=0.0, end_us=1e6, bandwidth_factor=0.25, extra_latency_us=500.0
    )
    sim, net, inboxes = build(FaultPlan(degradations=(window,)))
    net.send(msg(0, 1, size=4096))
    sim.run()
    degraded_latency = inboxes[1][0].latency

    sim2, net2, inboxes2 = build(FaultPlan())
    net2.send(msg(0, 1, size=4096))
    sim2.run()
    clean_latency = inboxes2[1][0].latency
    # 4x bandwidth cut: three extra serialization times plus the spike.
    expected_extra = 3 * net.link_config.serialization_us(4096) + 500.0
    assert degraded_latency == pytest.approx(clean_latency + expected_extra)
    assert net.stats.injected_count("degrade") == 1


def test_degradation_window_scoped_to_nodes():
    window = LinkDegradation(
        start_us=0.0, end_us=1e6, extra_latency_us=1000.0, nodes=frozenset({2})
    )
    sim, net, inboxes = build(FaultPlan(degradations=(window,)))
    net.send(msg(0, 1, size=64))
    net.send(msg(0, 2, size=64))
    sim.run()
    assert net.stats.injected_count("degrade") == 1
    assert inboxes[2][0].latency > inboxes[1][0].latency + 900.0


def test_degradation_window_expires():
    window = LinkDegradation(start_us=0.0, end_us=100.0, extra_latency_us=1000.0)
    sim, net, inboxes = build(FaultPlan(degradations=(window,)))
    sim.schedule(200.0, lambda: net.send(msg(0, 1)))
    sim.run()
    assert net.stats.injected_count("degrade") == 0


def test_stalled_destination_holds_delivery_until_window_end():
    stall = NodeStall(node=1, start_us=0.0, end_us=10_000.0)
    sim, net, inboxes = build(FaultPlan(stalls=(stall,)))
    net.send(msg(0, 1, size=32))
    net.send(msg(0, 2, size=32))
    sim.run()
    assert inboxes[1][0].delivered_at >= 10_000.0
    assert inboxes[2][0].delivered_at < 1_000.0
    assert net.stats.injected_count("stall") == 1


def test_stalled_source_holds_sends():
    stall = NodeStall(node=0, start_us=0.0, end_us=5_000.0)
    sim, net, inboxes = build(FaultPlan(stalls=(stall,)))
    net.send(msg(0, 1, size=32))
    sim.run()
    assert inboxes[1][0].delivered_at >= 5_000.0


def test_injection_is_deterministic():
    def run_once():
        sim, net, inboxes = build(
            FaultPlan(drop_prob=0.2, duplicate_prob=0.1, reorder_prob=0.3, jitter_us=500.0),
            seed=99,
        )
        for i in range(200):
            net.send(msg(0, 1, size=48))
        sim.run()
        return (
            sim.events_handled,
            len(inboxes[1]),
            net.stats.injected_count("drop"),
            net.stats.injected_count("duplicate"),
            net.stats.injected_count("delay"),
        )

    assert run_once() == run_once()


def test_kind_breakdown_reports_injected_faults():
    sim, net, _ = build(FaultPlan(drop_prob=1.0))
    net.send(msg(0, 1))
    sim.run()
    table = net.stats.kind_breakdown()
    row = table[MessageKind.PREFETCH_REQUEST.value]
    assert row["injected_drops"] == 1
    assert row["dropped"] == 1
    assert row["sent"] == 0


# -- partitions ------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(FaultConfigError, match="exactly one"):
        LinkPartition(start_us=0.0, end_us=10.0)
    with pytest.raises(FaultConfigError, match="exactly one"):
        LinkPartition(start_us=0.0, end_us=10.0, nodes={1}, links={(0, 1)})
    with pytest.raises(FaultConfigError):
        LinkPartition(start_us=10.0, end_us=10.0, nodes={1})
    with pytest.raises(FaultConfigError, match="at least one"):
        LinkPartition(start_us=0.0, end_us=10.0, nodes=frozenset())
    with pytest.raises(FaultConfigError, match="self-link"):
        LinkPartition(start_us=0.0, end_us=10.0, links={(1, 1)})
    with pytest.raises(FaultConfigError, match="negative"):
        LinkPartition(start_us=0.0, end_us=10.0, nodes={-1})


def test_crash_and_partition_of_same_node_rejected():
    crash = NodeCrash(node=2, at_us=5_000.0)
    cut = LinkPartition(start_us=1_000.0, end_us=9_000.0, nodes={2})
    with pytest.raises(FaultConfigError, match="node 2"):
        FaultPlan(crashes=(crash,), partitions=(cut,))
    # A partition that is fully over before the crash is fine...
    FaultPlan(
        crashes=(crash,),
        partitions=(LinkPartition(start_us=1_000.0, end_us=4_000.0, nodes={2}),),
    )
    # ...as is one cutting a different node across the crash instant.
    FaultPlan(
        crashes=(crash,),
        partitions=(LinkPartition(start_us=1_000.0, end_us=9_000.0, nodes={3}),),
    )


def test_partition_topology_validated_against_cluster_size():
    sim = Simulator()
    plan = FaultPlan(partitions=(LinkPartition(start_us=0.0, end_us=10.0, nodes={9}),))
    with pytest.raises(FaultConfigError, match="unknown node 9"):
        FaultyNetwork(sim, 4, plan, RandomSource(1))
    plan = FaultPlan(corruptions=(BitCorruption(start_us=0.0, end_us=10.0, prob=0.5, links={(0, 9)}),))
    with pytest.raises(FaultConfigError, match=r"unknown link \(0, 9\)"):
        FaultyNetwork(sim, 4, plan, RandomSource(1))


def test_node_partition_severs_boundary_both_ways_only():
    cut = LinkPartition(start_us=0.0, end_us=1e9, nodes={0, 1})
    plan = FaultPlan(partitions=(cut,))
    sim, net, inboxes = build(plan)
    net.send(msg(0, 2))  # crosses the boundary: severed
    net.send(msg(2, 0))  # severed in the other direction too
    net.send(msg(0, 1))  # within the cut group: flows
    net.send(msg(2, 3))  # within the remainder: flows
    sim.run()
    assert len(inboxes[2]) == 0 and len(inboxes[0]) == 0
    assert len(inboxes[1]) == 1 and len(inboxes[3]) == 1
    assert net.stats.injected_count("partition") == 2
    # Each severed send is one drop, reported once, with no span to name.
    assert net.total_drops() == 2
    assert [(drop.node, drop.args) for drop in msg_drops(sim)] == [
        (0, {"kind": "prefetch_request", "dst": 2, "at": "partition"}),
        (2, {"kind": "prefetch_request", "dst": 0, "at": "partition"}),
    ]


def test_link_partition_is_directed():
    cut = LinkPartition(start_us=0.0, end_us=1e9, links={(0, 1)})
    plan = FaultPlan(partitions=(cut,))
    sim, net, inboxes = build(plan)
    net.send(msg(0, 1))
    net.send(msg(1, 0))
    sim.run()
    assert len(inboxes[1]) == 0
    assert len(inboxes[0]) == 1


def test_partition_severs_even_reliable_messages_within_window_only():
    cut = LinkPartition(start_us=1_000.0, end_us=2_000.0, nodes={1})
    plan = FaultPlan(partitions=(cut,))
    sim, net, inboxes = build(plan)
    for when in (500.0, 1_500.0, 2_500.0):
        sim.schedule(when, net.send, msg(0, 1, kind=MessageKind.DIFF_REQUEST))
    sim.run()
    assert len(inboxes[1]) == 2  # only the in-window send vanished


# -- corruption ------------------------------------------------------------


def test_corruption_validation():
    with pytest.raises(FaultConfigError, match="prob"):
        BitCorruption(start_us=0.0, end_us=10.0, prob=0.0)
    with pytest.raises(FaultConfigError, match="prob"):
        BitCorruption(start_us=0.0, end_us=10.0, prob=1.5)
    with pytest.raises(FaultConfigError, match="at least one"):
        BitCorruption(start_us=0.0, end_us=10.0, prob=0.5, links=frozenset())


def test_corruption_marks_transmissions_inside_window():
    window = BitCorruption(start_us=0.0, end_us=1e9, prob=1.0)
    plan = FaultPlan(corruptions=(window,))
    sim, net, inboxes = build(plan)
    net.send(msg(0, 1))
    net.send(msg(0, 1, kind=MessageKind.DIFF_REQUEST))  # no kind is exempt
    sim.run()
    assert [m.corrupted for m in inboxes[1]] == [True, True]
    assert net.stats.injected_count("corrupt") == 2


def test_corruption_scoped_to_links():
    window = BitCorruption(start_us=0.0, end_us=1e9, prob=1.0, links={(0, 1)})
    plan = FaultPlan(corruptions=(window,))
    sim, net, inboxes = build(plan)
    net.send(msg(0, 1))
    net.send(msg(2, 3))
    sim.run()
    assert inboxes[1][0].corrupted
    assert not inboxes[3][0].corrupted


def test_overlapping_corruption_windows_combine_independently():
    a = BitCorruption(start_us=0.0, end_us=10.0, prob=0.5)
    b = BitCorruption(start_us=5.0, end_us=15.0, prob=0.5)
    plan = FaultPlan(corruptions=(a, b))
    assert plan.corruption_prob(0, 1, 2.0) == 0.5
    assert plan.corruption_prob(0, 1, 7.0) == 0.75
    assert plan.corruption_prob(0, 1, 12.0) == 0.5
    assert plan.corruption_prob(0, 1, 20.0) == 0.0


def test_clone_does_not_copy_corruption():
    message = msg(0, 1)
    message.corrupted = True
    assert not message.clone().corrupted


# -- serialization ---------------------------------------------------------


def test_plan_round_trips_through_dict():
    plan = FaultPlan(
        drop_prob=0.1,
        duplicate_prob=0.05,
        reorder_prob=0.2,
        jitter_us=300.0,
        degradations=(
            LinkDegradation(start_us=1.0, end_us=2.0, bandwidth_factor=0.5, nodes={1}),
        ),
        stalls=(NodeStall(node=2, start_us=3.0, end_us=4.0),),
        crashes=(NodeCrash(node=3, at_us=9.0),),
        partitions=(
            LinkPartition(start_us=5.0, end_us=6.0, nodes={1}),
            LinkPartition(start_us=7.0, end_us=8.0, links={(0, 2), (2, 0)}),
        ),
        corruptions=(BitCorruption(start_us=1.0, end_us=9.0, prob=0.25, links={(1, 2)}),),
        only_links={(0, 1)},
    )
    data = plan.to_dict()
    import json

    json.dumps(data)  # must be JSON-serializable as-is
    assert FaultPlan.from_dict(data) == plan
    assert FaultPlan.from_dict(json.loads(json.dumps(data))) == plan


def test_plan_from_empty_dict_is_noop():
    assert FaultPlan.from_dict({}).is_noop
