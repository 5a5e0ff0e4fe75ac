"""Unit tests for the reliable transport: acks, retries, backoff, dedup.

The transport is exercised on a two-node cluster with a FaultyNetwork
underneath, so loss/duplication comes from the real injection layer.
"""

import hashlib
import math
import os
import subprocess
import sys

import pytest

from repro.machine import Cluster
from repro.network import FaultPlan, Message, MessageKind, TransportConfig
from repro.network import transport as reliable
from repro.network.faults import LinkPartition
from repro.network.transport import DEDUP_WINDOW, _ReceiveWindow
from repro.sim import RandomSource, spawn
from repro.trace import Tracer


def build(plan=None, transport=TransportConfig(), seed=7, num_nodes=2, tracer=None):
    cluster = Cluster(
        num_nodes=num_nodes,
        fault_plan=plan,
        transport=transport,
        rng=RandomSource(seed),
        tracer=tracer,
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


def test_a_dropped_request_is_retransmitted_at_its_jittered_deadline():
    # The link is cut only while the first copy leaves.
    plan = FaultPlan(partitions=(LinkPartition(start_us=0.0, end_us=1_000.0, links={(0, 1)}),))
    cluster, inboxes = build(plan=plan, tracer=Tracer())
    send_from(cluster, 0, msg(0, 1))
    cluster.run()
    assert len(inboxes[1]) == 1
    assert cluster.node(0).events.retransmissions == 1
    at = {event.name: event.ts for event in cluster.sim.trace.events if event.cat == "transport"}
    timeout = cluster.transports[0]._timeout_us(1, 0, 1)
    assert reliable.TIMEOUT_US < timeout < reliable.TIMEOUT_US * (1 + reliable.JITTER_FRAC)
    assert at["transport_timeout"] == at["track"] + timeout
    # The copy leaves once the handler has paid the send charge.
    assert at["retransmit"] == at["transport_timeout"] + cluster.node(0).costs.msg_send_cpu


def live_timer_entries(cluster, node_id):
    """Per peer of ``node_id``: the kernel heap's timer entries that
    would act when they fire (an entry with an older serial is a no-op)."""
    transport = cluster.transports[node_id]
    live = {id(peer): 0 for peer in transport._peers.values()}
    for time, _seq, fn, args in cluster.sim._heap:
        peer, serial = args if fn == transport._on_timer else (None, None)
        if peer is not None and serial == peer.timer:
            assert time == peer.timer_at
            live[id(peer)] += 1
    return transport, live


def test_each_peer_has_at_most_one_live_timer_entry(monkeypatch):
    monkeypatch.setattr(reliable, "TIMEOUT_US", 500.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 30)
    cluster, inboxes = build(plan=FaultPlan(drop_prob=0.2), num_nodes=3)
    for i in range(40):
        for dst in (1, 2):
            cluster.sim.schedule(60.0 * i + 1, send_from, cluster, 0, msg(0, dst, payload={"i": i}))
    until = 0.0
    while cluster.sim._heap or cluster.sim._nowq:
        until += 50.0
        cluster.sim.run(until=until)
        transport, live = live_timer_entries(cluster, 0)
        for peer in transport._peers.values():
            assert live[id(peer)] <= 1
            earliest = min((p.timeout_at for p in peer.pending.values()), default=math.inf)
            if earliest < math.inf:
                # An unacked copy on the wire is covered, never late.
                assert live[id(peer)] == 1 and peer.timer_at <= earliest
    assert [len(inboxes[n]) for n in (1, 2)] == [40, 40]
    assert cluster.node(0).events.retransmissions > 0


_REPORT_DIGEST = """
import hashlib
from repro import DsmRuntime, RunConfig
from repro.experiments.runner import make_configured_app
from repro.network import FaultPlan
config = RunConfig(num_nodes=4, threads_per_node=4, prefetch=True, protocol="hlrc",
                   fault_plan=FaultPlan(drop_prob=0.05), profile=True)
report = DsmRuntime(config).execute(make_configured_app("RADIX", "small", "4TP"))
assert report.retransmissions > 0
print(hashlib.sha256(report.to_json().encode()).hexdigest())
"""


def test_a_lossy_run_reports_the_same_bytes_under_every_hash_seed():
    """Nothing in the transport's timers or jitter reads ``hash()``."""
    digests = set()
    for hash_seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run(
            [sys.executable, "-c", _REPORT_DIGEST], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout)
    assert len(digests) == 1


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
