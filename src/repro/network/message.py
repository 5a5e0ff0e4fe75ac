"""Message model for the cluster interconnect.

Every protocol interaction (page requests, diffs, write notices, lock
and barrier traffic, prefetches) travels as a :class:`Message`.  Sizes
are in *payload* bytes; the wire adds per-message protocol headers and
ATM cell framing (see :class:`repro.network.link.Link`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = [
    "MessageKind",
    "Message",
    "PRIORITY_DEMAND",
    "PRIORITY_NOTICE",
    "PRIORITY_PREFETCH",
]

_message_ids = itertools.count()


def restart_message_ids() -> None:
    """Number the next message 0 again; a ``Cluster`` does so when built.

    Ids name a trace's ``msg:*`` spans and ``pag_edge`` labels, so they
    have to be a function of the run and not of whatever the process
    simulated before it.  One counter per process still: build a
    cluster, run it, then build the next.
    """
    global _message_ids
    _message_ids = itertools.count()


#: Traffic classes for the adaptive transport's backpressure machinery
#: (repro.network.transport).  Lower value = more urgent.  Demand
#: traffic — page faults, diffs, synchronization — is paced but never
#: shed; membership/write-notice announcements rank below it; prefetch
#: traffic is speculative and is shed first under congestion.
PRIORITY_DEMAND = 0
PRIORITY_NOTICE = 1
PRIORITY_PREFETCH = 2


class MessageKind(str, Enum):
    """The message vocabulary of the DSM protocol.

    The split mirrors TreadMarks: everything is reliable except prefetch
    traffic, which the paper deliberately leaves droppable (Section 3.1,
    footnote 3), and the transport's and the failure detector's own
    datagrams (see :attr:`is_tracked`).
    """

    DIFF_REQUEST = "diff_request"
    DIFF_REPLY = "diff_reply"
    LOCK_REQUEST = "lock_request"
    LOCK_FORWARD = "lock_forward"
    LOCK_GRANT = "lock_grant"
    BARRIER_ARRIVE = "barrier_arrive"
    BARRIER_RELEASE = "barrier_release"
    PREFETCH_REQUEST = "prefetch_request"
    PREFETCH_REPLY = "prefetch_reply"
    #: Transport-level acknowledgement: a reply with no body (see
    #: repro.network.transport).
    ACK = "ack"
    #: Failure-detector liveness datagram (unreliable, see repro.ft).
    HEARTBEAT = "heartbeat"
    #: Coordinator's membership announcements (datagrams: a lost one is
    #: repaired by the next verdict).
    FT_DOWN = "ft_down"
    FT_UP = "ft_up"
    #: Coordinator -> healed node: partition is over, here is the
    #: authoritative membership (see repro.ft partition handling).
    FT_REJOIN = "ft_rejoin"
    #: Home-based LRC (repro.dsm.hlrc): whole-page fetch round trip to
    #: the page's home, and the eager diff flush that feeds the home.
    PAGE_REQUEST = "page_request"
    PAGE_REPLY = "page_reply"
    HOME_UPDATE = "home_update"
    #: Home's confirmation that an update is applied: the releaser
    #: blocks on it, so a barrier cut can never strand an un-applied
    #: diff in flight (the checkpoint would lose it forever).
    HOME_UPDATE_ACK = "home_update_ack"
    #: SC single-writer invalidate (repro.dsm.sc): directory-serialized
    #: ownership transactions — request to the page's manager, fetch
    #: forwarded to the owner, whole-page data to the requester,
    #: invalidation round trips, write grant, completion notice.
    SC_REQ = "sc_req"
    SC_FETCH = "sc_fetch"
    SC_DATA = "sc_data"
    SC_INVAL = "sc_inval"
    SC_INVAL_ACK = "sc_inval_ack"
    SC_GRANT = "sc_grant"
    SC_DONE = "sc_done"

    @property
    def is_prefetch(self) -> bool:
        return self in (MessageKind.PREFETCH_REQUEST, MessageKind.PREFETCH_REPLY)

    @property
    def is_tracked(self) -> bool:
        """Whether the reliable transport owns this kind: a sequence
        number, an ack, retransmission until acked.  The other kinds
        (:data:`UNTRACKED`) are bare datagrams that a drop loses."""
        return self not in UNTRACKED

    @property
    def is_control(self) -> bool:
        """Membership/liveness/ack traffic that a *fenced* node may still
        exchange: fencing rejects a suspect's data-plane writes but must
        keep the control plane open, or a partitioned node could never
        prove it healed (see repro.ft)."""
        return self in (
            MessageKind.ACK,
            MessageKind.HEARTBEAT,
            MessageKind.FT_DOWN,
            MessageKind.FT_UP,
            MessageKind.FT_REJOIN,
        )


#: Kinds the reliable transport leaves alone: prefetch traffic (the paper
#: drops it rather than retransmit it), acks, and the failure detector's
#: heartbeats and membership verdicts (a lost one is repaired by the next).
UNTRACKED = frozenset(
    kind for kind in MessageKind if kind.is_prefetch or kind.is_control
)


#: Kinds whose handler answers the sender directly: the answer carries
#: the acknowledgement (``Message.reply_to``), so the transport sends no
#: ``ACK`` for their first arrival.
ANSWERED = frozenset(
    {
        MessageKind.DIFF_REQUEST,
        MessageKind.PAGE_REQUEST,
        MessageKind.HOME_UPDATE,
        MessageKind.SC_INVAL,
    }
)


#: Default backpressure class per message kind.  Demand faults, diffs
#: and synchronization outrank membership/notice announcements, which
#: outrank speculative prefetch traffic.
_DEFAULT_PRIORITY = {
    MessageKind.DIFF_REQUEST: PRIORITY_DEMAND,
    MessageKind.DIFF_REPLY: PRIORITY_DEMAND,
    MessageKind.LOCK_REQUEST: PRIORITY_DEMAND,
    MessageKind.LOCK_FORWARD: PRIORITY_DEMAND,
    MessageKind.LOCK_GRANT: PRIORITY_DEMAND,
    MessageKind.BARRIER_ARRIVE: PRIORITY_DEMAND,
    MessageKind.BARRIER_RELEASE: PRIORITY_DEMAND,
    MessageKind.ACK: PRIORITY_DEMAND,
    MessageKind.HEARTBEAT: PRIORITY_NOTICE,
    MessageKind.FT_DOWN: PRIORITY_NOTICE,
    MessageKind.FT_UP: PRIORITY_NOTICE,
    MessageKind.FT_REJOIN: PRIORITY_NOTICE,
    MessageKind.PREFETCH_REQUEST: PRIORITY_PREFETCH,
    MessageKind.PREFETCH_REPLY: PRIORITY_PREFETCH,
    # HLRC: a faulting thread stalls on the page round trip, and a home
    # update unblocks parked fetches — all demand class.
    MessageKind.PAGE_REQUEST: PRIORITY_DEMAND,
    MessageKind.PAGE_REPLY: PRIORITY_DEMAND,
    MessageKind.HOME_UPDATE: PRIORITY_DEMAND,
    MessageKind.HOME_UPDATE_ACK: PRIORITY_DEMAND,
    # SC: every kind sits on some thread's fault critical path.
    MessageKind.SC_REQ: PRIORITY_DEMAND,
    MessageKind.SC_FETCH: PRIORITY_DEMAND,
    MessageKind.SC_DATA: PRIORITY_DEMAND,
    MessageKind.SC_INVAL: PRIORITY_DEMAND,
    MessageKind.SC_INVAL_ACK: PRIORITY_DEMAND,
    MessageKind.SC_GRANT: PRIORITY_DEMAND,
    MessageKind.SC_DONE: PRIORITY_DEMAND,
}


@dataclass(slots=True)
class Message:
    """A single datagram between two nodes.

    Attributes:
        src: sending node id.
        dst: receiving node id.
        kind: protocol message type.
        size_bytes: payload size (headers added by the link model).
        payload: protocol-specific content (diff lists, vector clocks...).
        seq: transport sequence number; ``-1`` for untracked datagrams
            (kinds that are not :attr:`MessageKind.is_tracked`).  Every
            message can drop on the wire; a tracked one arrives because
            :class:`~repro.network.transport.ReliableTransport`
            retransmits it.
        incarnation: the cluster incarnation the message was sent in,
            stamped by the network at send time.  Recovery bumps the
            cluster incarnation; deliveries from an older incarnation
            (in-flight traffic of a discarded execution) are dropped.
        corrupted: this *transmission* suffered injected bit corruption
            in the fabric (``repro.network.faults.BitCorruption``).  The
            flag models an end-to-end checksum: the receiving node
            verifies every arrival and discards corrupted frames before
            any protocol code (or liveness observer) sees them, exactly
            as a CRC mismatch would — a 32-bit CRC misses flips with
            probability ~2^-32, which rounds to never at our traffic
            volumes, so the simulation does not model silent passes.
            Per-transmission by construction: retransmissions and
            duplicate ghosts are :meth:`clone`\\ s, which reset it.
    """

    src: int
    dst: int
    kind: MessageKind
    size_bytes: int
    payload: dict[str, Any] = field(default_factory=dict)
    seq: int = -1
    incarnation: int = 0
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    sent_at: float = -1.0
    delivered_at: float = -1.0
    corrupted: bool = False
    #: Backpressure class (PRIORITY_*): defaults from the kind, may be
    #: tagged explicitly at construction.  -1 = derive from kind.
    priority: int = -1
    #: Which transmission attempt this wire copy is (1 = first flight).
    #: Stamped per copy by the adaptive transport and echoed back in
    #: the answer, pinning it to one copy — TCP timestamps in
    #: miniature, so retransmitted messages still yield unambiguous
    #: round-trip samples.  0 = untagged (static transport, untracked
    #: datagrams); :meth:`clone` resets it, each copy stamps its own.
    attempt: int = 0
    #: The ``seq`` of the tracked message from ``dst`` this one answers
    #: (an ``ACK``, or a reply posted with ``answering=``); its arrival
    #: acknowledges that message.  -1 = answers nothing.
    reply_to: int = -1
    #: The ``attempt`` of the answered message's copy that arrived.
    echo: int = 0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"message to self: node {self.src}")
        if self.size_bytes < 0:
            raise ValueError(f"negative message size: {self.size_bytes}")
        if self.priority < 0:
            self.priority = _DEFAULT_PRIORITY[self.kind]

    def clone(self) -> "Message":
        """A fresh wire copy (new msg_id, clean timestamps).

        Used for retransmissions and injected duplicates: each physical
        transmission owns its timestamps, while payload and ``seq``
        (the logical identity) are shared.
        """
        return Message(
            src=self.src,
            dst=self.dst,
            kind=self.kind,
            size_bytes=self.size_bytes,
            payload=self.payload,
            seq=self.seq,
            incarnation=self.incarnation,
            priority=self.priority,
            reply_to=self.reply_to,
            echo=self.echo,
        )

    @property
    def latency(self) -> float:
        """Wire latency in microseconds (valid after delivery)."""
        if self.delivered_at < 0 or self.sent_at < 0:
            raise ValueError("message not delivered yet")
        return self.delivered_at - self.sent_at
