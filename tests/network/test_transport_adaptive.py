"""Unit tests for the adaptive transport layer.

RTT estimation (Jacobson/Karn + decayed-peak filter), AIMD windowing
with pacing, Eifel undo, backpressure, give-up parking with probes,
and evidence-driven fast re-flight — exercised on a real cluster with
the fault-injection layer underneath, like tests/network/test_transport.
"""

import pytest

from repro import Compute, DsmRuntime, Program, RunConfig
from repro.machine import Cluster
from repro.metrics.counters import Category
from repro.network import FaultPlan, Message, MessageKind, TransportConfig
from repro.network import transport as reliable
from repro.network.faults import BitCorruption, LinkDegradation, LinkPartition, NodeStall
from repro.network.link import LinkConfig
from repro.sim import RandomSource, spawn
from repro.trace import Tracer


def build(plan=None, transport=None, seed=7, num_nodes=2, link_config=None):
    cluster = Cluster(
        num_nodes=num_nodes,
        fault_plan=plan,
        transport=transport or TransportConfig(adaptive=True),
        rng=RandomSource(seed),
        link_config=link_config,
    )
    inboxes = {n: [] for n in range(num_nodes)}
    for n in range(num_nodes):
        cluster.node(n).set_message_handler(
            lambda m, n=n: iter(inboxes[n].append((cluster.sim.now, m)) or ())
        )
    return cluster, inboxes


def send_from(cluster, node_id, message):
    spawn(cluster.sim, cluster.node(node_id).send_message(message))


def send_at(cluster, when_us, node_id, message):
    cluster.sim.schedule(when_us, send_from, cluster, node_id, message)


def msg(src, dst, size=64, kind=MessageKind.LOCK_REQUEST, payload=None):
    return Message(src=src, dst=dst, kind=kind, size_bytes=size, payload=payload or {})


def payloads(inbox):
    return sorted(m.payload["i"] for _t, m in inbox)


def test_rto_converges_near_link_latency_on_clean_link(monkeypatch):
    # Drop the RTO floor out of the way so the estimator itself is
    # visible, and space the sends out so each round trip is queue-free.
    monkeypatch.setattr(reliable, "MIN_RTO_US", 1.0)
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    link = LinkConfig()
    cluster, inboxes = build()
    for i in range(60):
        send_at(cluster, 2_000.0 * i, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(60))
    transport = cluster.transports[0]
    assert cluster.node(0).events.retransmissions == 0
    peer = transport._peers[1]
    # One round trip is wire time (serialization + propagation, both
    # ways) plus the responder's receive/ack CPU; the converged SRTT
    # must sit within the same order of magnitude as the wire floor —
    # hundreds of microseconds, not the 10 ms static timeout — and
    # pinned tight to the best observed round trip (queue-free sends,
    # so the variance term collapses).
    rtt_floor = 2 * (link.serialization_us(64) + link.propagation_us)
    assert rtt_floor < peer.srtt < 20 * rtt_floor
    assert peer.min_rtt <= peer.srtt <= 1.01 * peer.min_rtt
    est = transport._estimator_rto(peer)
    assert peer.rto == est  # no retained backoff on a clean link
    assert peer.srtt < est < 10 * peer.srtt


def test_clean_burst_has_no_spurious_retransmits_with_default_floor():
    # An incast-style burst (everything at t=0) serializes replies at
    # the responder, so round trips spike far above the converged SRTT.
    # The RTO floor plus the decayed-peak filter must cover the tail:
    # any retransmission on a fault-free fabric is spurious.
    cluster, inboxes = build()
    for i in range(200):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(200))
    events = cluster.node(0).events
    assert events.retransmissions == 0
    assert events.transport_timeouts == 0


def test_window_bounds_in_flight_and_paces_excess(monkeypatch):
    monkeypatch.setattr(reliable, "CWND_INIT", 2)
    monkeypatch.setattr(reliable, "CWND_MAX", 8)
    cluster, inboxes = build()
    for i in range(50):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(50))
    stats = cluster.transports[0].stats
    assert stats.max_in_flight <= 8
    assert stats.paced >= 50 - 8  # everything beyond the window queued
    assert cluster.transports[0]._peers[1].queued == set()


def test_acks_grow_window_and_timeouts_halve_it(monkeypatch):
    # Clean run: additive increase lifts cwnd above its initial value.
    monkeypatch.setattr(reliable, "CWND_INIT", 2)
    cluster, _ = build()
    for i in range(80):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert cluster.transports[0]._peers[1].cwnd > 2.0
    assert cluster.transports[0].stats.cwnd_halvings == 0

    # Lossy run: multiplicative decrease fires and is counted.
    cluster, inboxes = build(plan=FaultPlan(drop_prob=0.4), seed=11)
    for i in range(40):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(40))
    stats = cluster.transports[0].stats
    assert stats.cwnd_halvings > 0
    assert cluster.node(0).events.retransmissions > 0


def test_karn_backoff_retained_until_clean_sample(monkeypatch):
    # 100% loss: no ack ever arrives, so every timeout both halves the
    # window and walks the retained RTO up the multiplicative ladder,
    # clamped at the ceiling.
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    monkeypatch.setattr(reliable, "GIVE_UP_US", 200_000.0)
    cluster, _ = build(plan=FaultPlan(drop_prob=1.0))
    send_from(cluster, 0, msg(0, 1))
    cluster.run(until=120_000.0)
    transport = cluster.transports[0]
    peer = transport._peers[1]
    assert peer.rto == reliable.MAX_RTO_US  # ladder reached the clamp
    assert peer.srtt < 0  # Karn: no sample was ever taken
    assert transport.stats.rtt_samples == 0


def test_eifel_undo_reverts_spurious_halvings():
    # The fabric gains 20 ms of flat latency mid-run — far above the
    # converged RTO, with zero loss.  Every timeout in the window is
    # spurious: the original copy is still in flight.  The attempt echo
    # proves it (the ack names an earlier copy than the latest
    # retransmission), the halvings are reverted, and the inflated
    # round trip re-seeds the estimator.
    cluster, inboxes = build(
        plan=FaultPlan(
            degradations=(
                LinkDegradation(
                    start_us=30_000.0, end_us=200_000.0, extra_latency_us=20_000.0
                ),
            )
        ),
    )
    for i in range(20):
        send_at(cluster, 1_000.0 * i, 0, msg(0, 1, payload={"i": i}))
    for i in range(20, 30):
        send_at(cluster, 31_000.0 + 2_000.0 * (i - 20), 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(30))
    stats = cluster.transports[0].stats
    assert stats.spurious_timeouts > 0
    assert stats.cwnd_halvings >= stats.spurious_timeouts
    # Once the estimator has learned the shifted RTT, later messages
    # stop timing out: the retransmit count stays near the spike, not
    # one per message.
    assert cluster.node(0).events.retransmissions <= 6
    peer = cluster.transports[0]._peers[1]
    assert peer.srtt > 20_000.0  # learned the degraded round trip


def test_combined_hazards_on_one_link_stay_bounded():
    # Loss, corruption, and a degradation window all on the same
    # directed link: retransmit counts must stay bounded (no storm) and
    # every message must still arrive exactly once.
    link = frozenset({(0, 1)})
    plan = FaultPlan(
        drop_prob=0.15,
        only_links=link,
        corruptions=(
            BitCorruption(start_us=0.0, end_us=400_000.0, prob=0.15, links=link),
        ),
        degradations=(
            LinkDegradation(
                start_us=20_000.0,
                end_us=60_000.0,
                extra_latency_us=8_000.0,
                nodes=frozenset({1}),
            ),
        ),
    )
    cluster, inboxes = build(plan=plan, seed=5)
    for i in range(60):
        send_at(cluster, 1_500.0 * i, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(60))
    assert len(inboxes[1]) == 60  # exactly once: dedup caught the rest
    retransmissions = cluster.node(0).events.retransmissions
    assert retransmissions > 0  # the hazards actually bit
    # ~26% of transmissions vanish (drop or checksum discard); a
    # bounded recovery needs a small constant factor, not a storm.
    assert retransmissions <= 3 * 60
    assert cluster.transports[0].stats.max_in_flight <= reliable.CWND_MAX


def test_give_up_parks_then_probe_delivers_after_heal(monkeypatch):
    # The peer is unreachable from t=0; the give-up deadline parks the
    # message (reporting the peer as suspect), and the short park probe
    # keeps re-flighting it until the fabric heals.  No FT stack runs
    # here — the transport alone must not strand the message.
    plan = FaultPlan(
        partitions=(
            LinkPartition(start_us=0.0, end_us=50_000.0, nodes=frozenset({1})),
        )
    )
    monkeypatch.setattr(reliable, "GIVE_UP_US", 20_000.0)
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    cluster, inboxes = build(plan=plan)
    suspected = []
    cluster.transports[0].on_give_up = lambda dst, m: suspected.append(dst)
    send_from(cluster, 0, msg(0, 1, payload={"i": 0}))
    cluster.run()
    assert payloads(inboxes[1]) == [0]
    delivered_at = inboxes[1][0][0]
    assert 50_000.0 <= delivered_at < 62_000.0  # a probe cycle after heal
    assert cluster.node(0).events.retries_exhausted >= 1
    assert cluster.transports[0].stats.park_probes >= 1
    assert suspected and set(suspected) == {1}
    assert cluster.transports[0]._parked == {}
    assert cluster.transports[0]._pending == {}


def test_peer_evidence_triggers_fast_reflight_after_heal(monkeypatch):
    # A pending on a fully backed-off timer spans the heal.  The first
    # arrival from the healed peer is proof the path works, and must
    # trigger an immediate re-flight instead of waiting out the timer.
    plan = FaultPlan(
        partitions=(
            LinkPartition(start_us=0.0, end_us=50_000.0, nodes=frozenset({1})),
        )
    )
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    cluster, inboxes = build(plan=plan)
    send_from(cluster, 0, msg(0, 1, payload={"i": 0}))
    # Unprompted traffic from the healed peer, just after the heal.
    send_at(cluster, 51_000.0, 1, msg(1, 0, payload={"i": 100}))
    cluster.run()
    assert payloads(inboxes[1]) == [0]
    stats = cluster.transports[0].stats
    assert stats.fast_reflights >= 1
    delivered_at = inboxes[1][0][0]
    # Without evidence the retry ladder (10, 30, 70 ms under zero
    # jitter) would deliver at ~70 ms; the re-flight lands right after
    # the peer's 51 ms message arrives.
    assert delivered_at < 55_000.0


def test_under_pressure_tracks_retained_backoff_not_latency():
    # Heavy loss walks the RTO multiplicatively past the estimate:
    # pressure must be visible mid-run.  Pure latency (degradation,
    # clean samples) must NOT shed speculative traffic.
    samples = []

    def probe(cluster):
        samples.append(cluster.transports[0].under_pressure(1))

    cluster, _ = build(plan=FaultPlan(drop_prob=0.7), seed=3)
    for i in range(30):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    for t in range(5, 100, 5):
        cluster.sim.schedule(t * 1_000.0, probe, cluster)
    cluster.run()
    assert any(samples)

    samples.clear()
    cluster, _ = build(
        plan=FaultPlan(
            degradations=(
                LinkDegradation(
                    start_us=0.0, end_us=300_000.0, extra_latency_us=3_000.0
                ),
            )
        ),
    )
    for i in range(30):
        send_at(cluster, 2_000.0 * i, 0, msg(0, 1, payload={"i": i}))
    for t in range(5, 100, 5):
        cluster.sim.schedule(t * 1_000.0, probe, cluster)
    cluster.run()
    assert not any(samples)


def test_static_mode_is_inert(monkeypatch):
    # With the adaptive layer off nothing leaks into the wire format or
    # the backpressure signal: attempts are unstamped and pressure is
    # never reported, whatever the fabric does.
    monkeypatch.setattr(reliable, "TIMEOUT_US", 500.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 30)
    cluster, inboxes = build(plan=FaultPlan(drop_prob=0.5), transport=TransportConfig())
    for i in range(10):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert payloads(inboxes[1]) == list(range(10))
    assert all(m.attempt == 0 for _t, m in inboxes[1])
    assert not cluster.transports[0].under_pressure(1)
    stats = cluster.transports[0].stats
    assert stats.rtt_samples == 0
    assert stats.paced == 0


def test_health_snapshot_shape():
    cluster, _ = build()
    for i in range(20):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    snap = cluster.transports[0].health_snapshot()
    assert snap["unacked"] == 0
    assert snap["pacing_backlog"] == 0
    assert snap["parked_by_peer"] == {}
    assert snap["rtt_samples"] == 20
    peer = snap["peers"]["1"]
    for key in ("srtt_us", "rttvar_us", "rto_us", "cwnd", "in_flight", "queued"):
        assert key in peer
    for key in ("max_in_flight", "paced", "cwnd_halvings", "park_probes",
                "fast_reflights", "spurious_timeouts"):
        assert key in snap


def test_adaptive_determinism_under_combined_hazards():
    def run_once():
        plan = FaultPlan(
            drop_prob=0.25,
            duplicate_prob=0.1,
            reorder_prob=0.3,
            jitter_us=200.0,
            corruptions=(BitCorruption(start_us=0.0, end_us=100_000.0, prob=0.1),),
        )
        cluster, inboxes = build(plan=plan, seed=123)
        for i in range(30):
            send_from(cluster, 0, msg(0, 1, payload={"i": i}))
        wall = cluster.run()
        stats = cluster.transports[0].stats
        return (
            wall,
            cluster.sim.events_handled,
            cluster.node(0).events.retransmissions,
            stats.cwnd_halvings,
            stats.rtt_samples,
            [(t, m.payload["i"]) for t, m in inboxes[1]],
        )

    assert run_once() == run_once()


def test_restore_state_readmits_an_unacked_message_with_fresh_peer_state(monkeypatch):
    # A checkpoint cut while a message is unacked (the peer's NIC is
    # stalled): the restore drops the estimator state, re-admits the
    # pending into the in-flight count and gives it a fresh deadline.
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    cluster, inboxes = build(plan=FaultPlan(stalls=(NodeStall(1, 0.0, 12_000.0),)))
    transport = cluster.transports[0]
    send_from(cluster, 0, msg(0, 1, payload={"i": 0}))
    cluster.run(until=5_000.0)
    state = transport.snapshot_state()
    transport._peers[1].cwnd = 7.0  # state of the execution the restore discards
    cluster.run(until=6_000.0)
    transport.restore_state(state)
    assert transport.peer_gauges(1) == {
        "srtt_us": -1.0,
        "rttvar_us": 0.0,
        "rto_us": reliable.TIMEOUT_US,
        "cwnd": float(reliable.CWND_INIT),
        "in_flight": 1,
        "queued": 0,
    }
    assert transport._pending[(1, 0)].deadline_at == 6_000.0 + reliable.GIVE_UP_US
    cluster.run()
    assert payloads(inboxes[1]) == [0]
    # The pre-cut copy's ack retires the restored pending before its
    # re-armed timer fires, and its send time is unknown: no sample.
    assert cluster.node(0).events.retransmissions == 0
    assert transport.stats.rtt_samples == 0
    assert transport.gauges() == {"unacked": 0, "backlog": 0, "parked": 0}
    assert transport.peer_gauges(1)["in_flight"] == 0


def test_parked_messages_show_in_health_and_revive_all_reflights_them(monkeypatch):
    # Fenced peers refuse data-plane traffic: every message burns its
    # give-up deadline and stays parked (the park probe leaves fenced
    # peers to the membership layer) until the parking node rejoins.
    monkeypatch.setattr(reliable, "GIVE_UP_US", 20_000.0)
    cluster, inboxes = build(num_nodes=3)
    transport = cluster.transports[0]
    cluster.network.fence_node(1)
    cluster.network.fence_node(2)
    send_from(cluster, 0, msg(0, 2, payload={"i": 2}))
    for i in range(2):
        send_from(cluster, 0, msg(0, 1, payload={"i": i}))
    cluster.run()
    assert transport.parked_by_peer() == {1: 2, 2: 1}
    assert transport.gauges() == {"unacked": 0, "backlog": 0, "parked": 3}
    assert transport.health_snapshot()["parked_by_peer"] == {"1": 2, "2": 1}
    cluster.network.unfence_node(1)
    cluster.network.unfence_node(2)
    assert transport.revive_all() == 3
    cluster.run()
    assert payloads(inboxes[1]) == [0, 1]
    assert payloads(inboxes[2]) == [2]
    assert transport.gauges() == {"unacked": 0, "backlog": 0, "parked": 0}


def test_late_ack_retires_a_revival_still_in_the_pacing_queue(monkeypatch):
    # The peer's NIC stalls until 40 ms, so message 0 is acked only
    # then: after it gave up (30 ms) and the park probe revived it
    # (35 ms) into a pacing queue that message 1 holds full.  The late
    # ack of its first copy retires the queued revival unsent.
    monkeypatch.setattr(reliable, "GIVE_UP_US", 20_000.0)
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    monkeypatch.setattr(reliable, "CWND_INIT", 1)
    cluster, inboxes = build(plan=FaultPlan(stalls=(NodeStall(1, 0.0, 40_000.0),)))
    transport = cluster.transports[0]
    send_from(cluster, 0, msg(0, 1, payload={"i": 0}))
    send_at(cluster, 31_000.0, 0, msg(0, 1, payload={"i": 1}))
    cluster.run(until=36_000.0)
    assert transport.gauges() == {"unacked": 2, "backlog": 1, "parked": 0}
    assert transport.stats.park_probes == 1
    cluster.run()
    assert payloads(inboxes[1]) == [0, 1]
    assert cluster.node(0).events.retransmissions == 1  # the 10 ms timeout's copy only
    assert transport.gauges() == {"unacked": 0, "backlog": 0, "parked": 0}
    # The queued revival never held a window slot, so its ack neither
    # freed one nor grew the window: only message 1's ack did (1 -> 2).
    assert transport.peer_gauges(1)["in_flight"] == 0
    assert transport.peer_gauges(1)["cwnd"] == 2.0


def test_a_queued_revival_pays_for_its_send_and_is_traced(monkeypatch):
    # Message 0 parks toward a fenced peer.  After the unfence, message
    # 1 holds the one-slot window when message 0 is revived, so the
    # revival queues and leaves when message 1's ack drains the queue:
    # a retransmission, charged and traced like every other.
    monkeypatch.setattr(reliable, "GIVE_UP_US", 20_000.0)
    monkeypatch.setattr(reliable, "CWND_INIT", 1)
    tracer = Tracer()
    cluster = Cluster(
        num_nodes=2,
        transport=TransportConfig(adaptive=True),
        rng=RandomSource(7),
        tracer=tracer,
    )
    inbox = []
    cluster.node(1).set_message_handler(lambda m: iter(inbox.append(m.payload["i"]) or ()))
    transport, sender = cluster.transports[0], cluster.node(0)
    cluster.network.fence_node(1)
    send_from(cluster, 0, msg(0, 1, payload={"i": 0}))
    cluster.run()
    assert transport.parked_by_peer() == {1: 1}
    cluster.network.unfence_node(1)
    send_from(cluster, 0, msg(0, 1, payload={"i": 1}))
    cluster.sim.schedule(100.0, transport.revive, 1)
    cluster.run(until=cluster.sim.now + 150.0)
    assert transport.gauges()["backlog"] == 1  # the revival waits for the window
    cluster.run()
    assert sorted(inbox) == [0, 1]
    retransmits = [e for e in tracer.events if e.name == "retransmit" and e.node == 0]
    assert len(retransmits) == sender.events.retransmissions
    assert retransmits[-1].args["seq"] == 0  # the revival, on its way out of the queue
    # Two first sends and every retransmission paid msg_send_cpu; two
    # acks came back.
    costs = sender.costs
    assert sender.breakdown.times[Category.DSM] == pytest.approx(
        (2 + sender.events.retransmissions) * costs.msg_send_cpu + 2 * costs.msg_recv_cpu
    )


class _Idle(Program):
    name = "idle"

    def setup(self, runtime):
        pass

    def thread_body(self, runtime, tid):
        yield Compute(1_000.0)

    def verify(self, runtime):
        pass


def test_runtime_counts_parked_messages_toward_live_peers_only(monkeypatch):
    # Node 0 parks one message toward each of two fenced peers.  Node 1
    # is unfenced before the run ends, node 2 is not: only the park
    # toward node 1 counts toward the no-livelock invariant.
    monkeypatch.setattr(reliable, "GIVE_UP_US", 20_000.0)
    runtime = DsmRuntime(RunConfig(num_nodes=3, transport=TransportConfig(adaptive=True)))
    network = runtime.cluster.network
    for dst in (1, 2):
        network.fence_node(dst)
        send_from(runtime.cluster, 0, msg(0, dst))
    runtime.cluster.sim.schedule(50_000.0, network.unfence_node, 1)
    health = runtime.execute(_Idle()).transport_health
    assert health["per_node"]["0"]["parked_by_peer"] == {"1": 1, "2": 1}
    assert health["parked_live"] == 1
