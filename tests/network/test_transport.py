"""Unit tests for the reliable transport: acks, retries, backoff, dedup.

The transport is exercised on a two-node cluster with a FaultyNetwork
underneath, so loss/duplication comes from the real injection layer.
"""

import pytest

from repro.machine import Cluster
from repro.network import FaultPlan, Message, MessageKind, TransportConfig
from repro.network import transport as reliable
from repro.network.transport import DEDUP_WINDOW, _ReceiveWindow
from repro.sim import RandomSource, spawn


def build(plan=None, transport=TransportConfig(), seed=7, num_nodes=2):
    cluster = Cluster(
        num_nodes=num_nodes,
        fault_plan=plan,
        transport=transport,
        rng=RandomSource(seed),
    )
    inboxes = {n: [] for n in range(num_nodes)}
    for n in range(num_nodes):
        cluster.node(n).set_message_handler(lambda m, n=n: iter(inboxes[n].append(m) or ()))
    return cluster, inboxes


def send_from(cluster, node_id, message):
    spawn(cluster.sim, cluster.node(node_id).send_message(message))


def msg(src, dst, size=64, kind=MessageKind.LOCK_REQUEST, payload=None):
    return Message(src=src, dst=dst, kind=kind, size_bytes=size, payload=payload or {})


def test_clean_network_delivers_once_with_ack_and_no_retransmit():
    cluster, inboxes = build()
    send_from(cluster, 0, msg(0, 1))
    cluster.run()
    assert len(inboxes[1]) == 1
    assert cluster.node(0).events.retransmissions == 0
    assert cluster.node(1).events.acks_sent == 1
    # The ack arrived: nothing is left awaiting one.
    assert cluster.transports[0]._pending == {}
    # The ack is visible in traffic stats, but never dispatched.
    assert cluster.network.stats.messages_by_kind[MessageKind.ACK] == 1
    assert not inboxes[0]


def test_reliable_message_survives_heavy_loss(monkeypatch):
    monkeypatch.setattr(reliable, "TIMEOUT_US", 500.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 30)
    cluster, inboxes = build(plan=FaultPlan(drop_prob=0.5))
    for i in range(20):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert len(inboxes[1]) == 20
    assert sorted(m.payload["i"] for m in inboxes[1]) == list(range(20))
    events = cluster.node(0).events
    assert events.retransmissions > 0
    assert events.transport_timeouts >= events.retransmissions
    assert cluster.network.stats.total_retransmits == events.retransmissions


def test_duplicates_are_suppressed_not_dispatched():
    cluster, inboxes = build(plan=FaultPlan(duplicate_prob=1.0, jitter_us=50.0))
    for i in range(5):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    # Every data message was duplicated in the network, yet the
    # protocol saw each exactly once.
    assert len(inboxes[1]) == 5
    assert cluster.node(1).events.duplicates_suppressed >= 5


def test_retransmit_timing_uses_exponential_backoff(monkeypatch):
    # 100% drop: nothing is ever delivered; watch the retry clock.
    monkeypatch.setattr(reliable, "TIMEOUT_US", 1000.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 3)
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    cluster, _ = build(plan=FaultPlan(drop_prob=1.0))
    send_from(cluster, 0, msg(0, 1))
    cluster.run()
    assert cluster.node(0).events.retransmissions == 3
    # Timeouts at 1ms, 2ms, 4ms, 8ms: the give-up fires after ~15ms.
    assert cluster.sim.now == pytest.approx(15_000.0, rel=0.01)


def test_exhausted_retries_give_up_gracefully(monkeypatch):
    # A dead peer does not crash the run:
    # the message is abandoned and the give-up is recorded per kind.
    monkeypatch.setattr(reliable, "TIMEOUT_US", 200.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 2)
    cluster, inboxes = build(plan=FaultPlan(drop_prob=1.0))
    suspected = []
    cluster.transports[0].on_give_up = lambda dst, message: suspected.append(
        (dst, message.kind)
    )
    send_from(cluster, 0, msg(0, 1, kind=MessageKind.LOCK_GRANT))
    cluster.run()
    assert len(inboxes[1]) == 0
    assert cluster.node(0).events.retries_exhausted == 1
    assert suspected == [(1, MessageKind.LOCK_GRANT)]
    assert cluster.transports[0]._pending == {}


def test_unreliable_messages_bypass_the_transport():
    cluster, inboxes = build()
    send_from(
        cluster,
        0,
        Message(src=0, dst=1, kind=MessageKind.PREFETCH_REQUEST, size_bytes=64),
    )
    cluster.run()
    assert len(inboxes[1]) == 1
    assert inboxes[1][0].seq == -1
    assert cluster.transports[0]._next_seq == {}  # no sequence number drawn
    assert cluster.network.stats.messages_by_kind.get(MessageKind.ACK, 0) == 0


def test_receive_window_dedups_out_of_order():
    window = _ReceiveWindow()
    assert window.accept(0, DEDUP_WINDOW)
    assert window.accept(2, DEDUP_WINDOW)
    assert not window.accept(0, DEDUP_WINDOW)
    assert not window.accept(2, DEDUP_WINDOW)
    assert window.accept(1, DEDUP_WINDOW)
    assert window.upto == 2 and window.above == set()
    assert not window.accept(1, DEDUP_WINDOW)


def test_transport_determinism_under_loss(monkeypatch):
    monkeypatch.setattr(reliable, "TIMEOUT_US", 500.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 30)

    def run_once():
        cluster, inboxes = build(
            plan=FaultPlan(drop_prob=0.3, duplicate_prob=0.1, reorder_prob=0.5, jitter_us=300.0),
            seed=123,
        )
        for i in range(30):
            send_from(cluster, 0, msg(0, 1, payload={"i": i}))
        wall = cluster.run()
        return (
            wall,
            cluster.sim.events_handled,
            cluster.node(0).events.retransmissions,
            [m.payload["i"] for m in inboxes[1]],
        )

    assert run_once() == run_once()


def test_receive_window_gc_bounds_sparse_set():
    window = _ReceiveWindow()
    # A permanently missing seq 0 would pin the watermark forever; the
    # horizon must force it forward and keep the sparse set bounded.
    for seq in range(1, 10_001):
        assert window.accept(seq, window=256)
    assert window.upto >= 10_000 - 256
    assert len(window.above) <= 256 + 1


def test_receive_window_duplicates_inside_window_still_suppressed():
    window = _ReceiveWindow()
    for seq in range(1, 2_000):
        window.accept(seq, window=256)
    # A late duplicate below the advanced watermark is suppressed...
    assert not window.accept(5, window=256)
    # ...and so is a recent one still inside the window.
    assert not window.accept(1_999, window=256)
    # A genuinely new seq is still accepted.
    assert window.accept(2_000, window=256)


def test_receive_window_contiguous_stream_never_grows():
    window = _ReceiveWindow()
    for seq in range(5_000):
        assert window.accept(seq, DEDUP_WINDOW)
        assert not window.above  # compaction keeps it empty
    assert window.upto == 4_999
    assert not window.accept(123, DEDUP_WINDOW)
