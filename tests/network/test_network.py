"""Integration tests for the full interconnect: switch, routing, hot-spotting."""

import pytest

from repro.errors import NetworkError
from repro.network import LinkConfig, Message, MessageKind, Network
from repro.sim import Simulator
from repro.trace import Tracer


def msg_drops(sim):
    """The ``msg_drop`` instants traced so far (``build`` installs a tracer)."""
    return [event for event in sim.trace.events if event.name == "msg_drop"]


def build(num_nodes=4, **link_kwargs):
    sim = Simulator()
    sim.trace = Tracer()
    net = Network(sim, num_nodes, link_config=LinkConfig(**link_kwargs))
    inboxes = {n: [] for n in range(num_nodes)}
    for n in range(num_nodes):
        net.attach(n, lambda m, n=n: inboxes[n].append(m))
    return sim, net, inboxes


def msg(src, dst, size=64, kind=MessageKind.DIFF_REQUEST):
    return Message(src=src, dst=dst, kind=kind, size_bytes=size)


def test_message_routed_to_destination():
    sim, net, inboxes = build()
    net.send(msg(0, 3))
    sim.run()
    assert len(inboxes[3]) == 1
    assert inboxes[3][0].src == 0
    assert not inboxes[0] and not inboxes[1] and not inboxes[2]


def test_delivery_timestamps_and_latency():
    sim, net, inboxes = build()
    net.send(msg(0, 1, size=4096))
    sim.run()
    delivered = inboxes[1][0]
    assert delivered.sent_at == 0.0
    assert delivered.delivered_at > 0
    # Two link traversals + switch latency: at least 2x serialization.
    min_latency = 2 * net.link_config.serialization_us(4096)
    assert delivered.latency >= min_latency


def test_attach_twice_rejected():
    sim = Simulator()
    net = Network(sim, 2)
    net.attach(0, lambda m: None)
    with pytest.raises(NetworkError):
        net.attach(0, lambda m: None)


def test_send_to_unattached_node_rejected():
    sim = Simulator()
    net = Network(sim, 3)
    net.attach(0, lambda m: None)
    with pytest.raises(NetworkError):
        net.send(msg(0, 2))


def test_too_small_network_rejected():
    with pytest.raises(NetworkError):
        Network(Simulator(), 1)


def test_traffic_stats_accumulate():
    sim, net, _ = build()
    net.send(msg(0, 1, size=100))
    net.send(msg(1, 2, size=200, kind=MessageKind.LOCK_REQUEST))
    sim.run()
    assert net.stats.total_messages == 2
    assert net.stats.total_bytes == 300
    assert net.stats.messages_by_kind[MessageKind.LOCK_REQUEST] == 1


def test_hot_spot_queueing_grows_latency():
    """All nodes blast the same destination: later messages queue at the
    destination downlink, so per-message latency grows — the paper's
    hot-spotting effect."""
    sim, net, inboxes = build(num_nodes=8, queue_capacity_bytes=1 << 20)
    for src in range(1, 8):
        for _ in range(10):
            net.send(msg(src, 0, size=4096))
    sim.run()
    latencies = [m.latency for m in inboxes[0]]
    assert len(latencies) == 70
    # The last delivery waited far longer than the first.
    assert max(latencies) > 3 * min(latencies)


def test_unreliable_dropped_under_hot_spot_congestion():
    """Traffic into a congested port gets dropped once the queues fill,
    whatever its kind: making a diff request arrive anyway is the
    transport's job, above the fabric."""
    sim, net, inboxes = build(num_nodes=4, queue_capacity_bytes=16 * 1024)
    for _ in range(30):
        net.send(msg(1, 0, size=4096, kind=MessageKind.PREFETCH_REQUEST))
        net.send(msg(2, 0, size=4096))
    sim.run()
    assert net.stats.drops_by_kind[MessageKind.PREFETCH_REQUEST] > 0
    assert net.stats.drops_by_kind[MessageKind.DIFF_REQUEST] > 0
    # Every message either arrived or was counted as a drop.
    assert len(inboxes[0]) + net.total_drops() == 60


def test_bidirectional_traffic_is_independent():
    sim, net, inboxes = build()
    net.send(msg(0, 1))
    net.send(msg(1, 0))
    sim.run()
    assert len(inboxes[0]) == 1 and len(inboxes[1]) == 1


def test_mean_latency_per_kind():
    sim, net, _ = build()
    net.send(msg(0, 1, size=64))
    net.send(msg(0, 1, size=64))
    sim.run()
    assert net.stats.mean_latency(MessageKind.DIFF_REQUEST) > 0
    assert net.stats.mean_latency(MessageKind.LOCK_REQUEST) == 0.0


def test_uplink_rejected_message_not_counted_as_sent():
    """Regression: a message the uplink refuses (queue full) must be
    recorded as a drop, never as a send."""
    sim, net, inboxes = build(num_nodes=2, queue_capacity_bytes=1000)
    # One message fills the source uplink queue.
    assert net.send(msg(0, 1, size=800))
    assert not net.send(msg(0, 1, size=900, kind=MessageKind.PREFETCH_REQUEST))
    assert net.stats.messages_by_kind.get(MessageKind.PREFETCH_REQUEST, 0) == 0
    assert net.stats.drops_by_kind[MessageKind.PREFETCH_REQUEST] == 1
    assert net.stats.total_messages == 1
    # Reported once, and before the in-flight span opened: no ``msg``.
    assert net.total_drops() == 1
    (drop,) = msg_drops(sim)
    assert drop.node == 0
    assert drop.args == {"kind": "prefetch_request", "dst": 1, "at": "uplink"}
    sim.run()
    assert len(inboxes[1]) == 1  # only the accepted message arrived


def test_switch_downlink_drop_recorded_and_invisible_to_sender():
    """An unreliable message accepted at the uplink can still die at a
    congested switch downlink: counted as sent AND dropped, and the
    send() call reported success."""
    sim, net, inboxes = build(num_nodes=4, queue_capacity_bytes=16 * 1024)
    # Pace each source at its own uplink rate: uplinks stay shallow, but
    # the shared destination downlink sees 3x its drain rate.
    gap = net.link_config.serialization_us(4096) * 1.05
    accepted = []
    for src in (1, 2, 3):
        for i in range(10):
            sim.schedule(
                i * gap,
                lambda src=src: accepted.append(
                    net.send(msg(src, 0, size=4096, kind=MessageKind.PREFETCH_REPLY))
                ),
            )
    sim.run()
    assert all(accepted)  # the uplinks took everything
    dropped = net.dropped_at_switch()
    assert dropped > 0
    assert net.stats.drops_by_kind[MessageKind.PREFETCH_REPLY] == dropped
    assert net.stats.messages_by_kind[MessageKind.PREFETCH_REPLY] == 30
    assert len(inboxes[0]) == 30 - dropped
    assert net.stats.delivered_by_kind[MessageKind.PREFETCH_REPLY] == 30 - dropped
    # Each reported once, naming the in-flight span it leaves open.
    assert net.total_drops() == dropped == len(msg_drops(sim))
    spans = {e.id for e in sim.trace.events if e.ph == "b"} - {
        e.id for e in sim.trace.events if e.ph == "e"
    }
    assert all(drop.args["at"] == "switch" for drop in msg_drops(sim))
    assert {drop.args["msg"] for drop in msg_drops(sim)} == spans


@pytest.mark.parametrize("reason", ["stale", "fenced", "down"])
def test_delivery_time_drop_is_reported_once(reason):
    """Traffic of a rolled-back incarnation, or touching a fenced or a
    crashed node, is eaten where it would have been delivered."""
    sim, net, inboxes = build()
    message = msg(0, 1)
    net.send(message)
    if reason == "stale":
        net.incarnation += 1
    elif reason == "fenced":
        net.fence_node(1)
    else:
        net.mark_down(1)
    sim.run()
    assert not inboxes[1]
    assert net.total_drops() == 1
    (drop,) = msg_drops(sim)
    assert drop.node == 0
    assert drop.args == {
        "kind": "diff_request",
        "dst": 1,
        "at": reason,
        "msg": f"m{message.msg_id}",
    }


def test_kind_breakdown_reconciles_sent_delivered_dropped():
    sim, net, _ = build(num_nodes=4, queue_capacity_bytes=16 * 1024)
    gap = net.link_config.serialization_us(4096) * 1.05
    for src in (1, 2, 3):
        for i in range(10):
            sim.schedule(
                i * gap,
                lambda src=src: net.send(
                    msg(src, 0, size=4096, kind=MessageKind.PREFETCH_REPLY)
                ),
            )
    sim.run()
    row = net.stats.kind_breakdown()[MessageKind.PREFETCH_REPLY.value]
    assert row["sent"] == 30  # paced sends: no uplink drops
    assert row["sent"] == row["delivered"] + row["dropped"]
    assert row["mean_latency_us"] > 0
