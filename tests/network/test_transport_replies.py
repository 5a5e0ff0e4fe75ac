"""A reply is its request's acknowledgement.

A request of a kind the protocol answers directly (``ANSWERED``) gets no
``ACK`` on its first arrival: the reply names it (``reply_to``, plus the
``echo`` of the copy that arrived) and settles it at the requester
exactly as an ``ACK`` does.  A duplicate request is acked explicitly,
and replies are tracked and acked like any one-way message.  Node 1
below is a server that answers every request after ``hold_us``.
"""

import pytest

from repro.machine import Cluster
from repro.network import FaultPlan, Message, MessageKind, TransportConfig
from repro.network import transport as reliable
from repro.network.faults import LinkPartition
from repro.network.message import ANSWERED
from repro.sim import RandomSource, spawn


def build(plan=None, transport=TransportConfig(), hold_us=0.0, answer=True):
    cluster = Cluster(num_nodes=2, fault_plan=plan, transport=transport, rng=RandomSource(7))
    server, replies = cluster.node(1), []

    def serve(request):
        if hold_us:
            yield hold_us
        if answer:
            reply = Message(
                1, 0, MessageKind.DIFF_REPLY, 64, reply_to=request.seq, echo=request.attempt
            )
            yield from server.send_message(reply)

    server.set_message_handler(serve)
    cluster.node(0).set_message_handler(lambda m: iter(replies.append(m) or ()))
    request = Message(0, 1, MessageKind.DIFF_REQUEST, 64)
    spawn(cluster.sim, cluster.node(0).send_message(request))
    return cluster, request, replies


def severed(start_us, end_us, link):
    return FaultPlan(partitions=(LinkPartition(start_us, end_us, links=frozenset({link})),))


def test_the_answered_kinds_are_the_four_direct_requests():
    assert ANSWERED == {
        MessageKind.DIFF_REQUEST,
        MessageKind.PAGE_REQUEST,
        MessageKind.HOME_UPDATE,
        MessageKind.SC_INVAL,
    }
    assert all(kind.is_tracked for kind in ANSWERED)


def test_first_arrival_gets_no_ack_and_the_reply_settles_the_request():
    cluster, request, replies = build()
    cluster.run()
    assert len(replies) == 1 and replies[0].reply_to == request.seq == 0
    assert cluster.node(1).events.acks_sent == 0  # the reply was the ack
    assert cluster.node(0).events.acks_sent == 1  # the reply is acked
    assert cluster.network.stats.messages_by_kind[MessageKind.ACK] == 1
    assert cluster.node(0).events.retransmissions == 0
    assert cluster.transports[0]._pending == cluster.transports[1]._pending == {}


def test_a_duplicate_request_gets_an_explicit_ack(monkeypatch):
    # A server that never answers: the request times out once, and its
    # retransmission, a duplicate, is acked.
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    cluster, _request, _replies = build(answer=False)
    cluster.run()
    assert cluster.node(0).events.retransmissions == 1
    assert cluster.node(1).events.duplicates_suppressed == 1
    assert cluster.node(1).events.acks_sent == 1
    assert cluster.transports[0]._pending == {}


def test_a_lost_reply_is_resent_and_the_retransmitted_request_acked():
    # Every reply copy and ack from the server is lost for 15 ms: the
    # requester retransmits, the server acks the duplicate, and its
    # timer resends the reply until a copy gets through.
    cluster, _request, replies = build(plan=severed(0.0, 15_000.0, (1, 0)))
    cluster.run()
    assert len(replies) == 1  # dispatched once, however many copies landed
    server = cluster.node(1).events
    assert server.retransmissions >= 1  # the reply
    assert cluster.node(0).events.retransmissions >= 1  # the request
    # The server acked duplicates only: never a first arrival.
    assert server.acks_sent == server.duplicates_suppressed >= 1
    assert cluster.transports[0]._pending == cluster.transports[1]._pending == {}


def test_the_echo_gives_an_exact_rtt_sample():
    cluster, request, replies = build(transport=TransportConfig(adaptive=True))
    cluster.run()
    transport = cluster.transports[0]
    assert transport.stats.rtt_samples == 1
    # Settled once the reply's receive cost is paid, on an idle CPU.
    rtt = replies[0].delivered_at + cluster.costs.msg_recv_cpu - request.sent_at
    assert transport._peers[1].srtt == pytest.approx(rtt, abs=1e-9)
    assert replies[0].echo == request.attempt == 1


def test_a_reply_to_the_first_copy_undoes_a_spurious_timeout():
    # The server answers 12 ms late, past the 10 ms initial RTO; the
    # retransmission is lost, so the reply echoes the first copy and
    # proves the timeout spurious (Eifel undo).
    cluster, _request, replies = build(
        plan=severed(5_000.0, 20_000.0, (0, 1)),
        transport=TransportConfig(adaptive=True),
        hold_us=12_000.0,
    )
    cluster.run()
    assert len(replies) == 1 and replies[0].echo == 1
    stats = cluster.transports[0].stats
    assert stats.cwnd_halvings == 1
    assert stats.spurious_timeouts == 1
    peer = cluster.transports[0]._peers[1]
    assert peer.cwnd > reliable.CWND_INIT  # halving undone, then grown
    assert peer.srtt > 12_000.0  # the first copy's round trip


def test_a_late_reply_retires_a_parked_request(monkeypatch):
    # Every retransmission is lost and the requester gives up after
    # one; the reply, sent from the first copy, lands afterwards.
    monkeypatch.setattr(reliable, "JITTER_FRAC", 0.0)
    monkeypatch.setattr(reliable, "TIMEOUT_US", 1_000.0)
    monkeypatch.setattr(reliable, "MAX_RETRIES", 1)
    cluster, _request, replies = build(plan=severed(500.0, 5_000.0, (0, 1)), hold_us=8_000.0)
    cluster.run(until=6_000.0)
    transport = cluster.transports[0]
    assert cluster.node(0).events.retries_exhausted == 1
    assert len(transport._parked) == 1
    cluster.run()
    assert len(replies) == 1
    assert transport._parked == {} and transport._pending == {}
    assert cluster.transports[1]._pending == {}
