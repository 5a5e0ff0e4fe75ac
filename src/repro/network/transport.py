"""Request/reply reliability over unreliable datagrams.

TreadMarks runs over UDP: datagrams drop, duplicate and reorder, and the
DSM is correct anyway because a retransmitting transport sits between
the protocol and the wire (paper, Section 3).  This module is that
layer.  One :class:`ReliableTransport` per node:

- **sender side** — every message of a tracked kind
  (:attr:`~repro.network.message.MessageKind.is_tracked`) gets a per
  (sender, destination) sequence number and goes out as a droppable
  datagram; one timer per destination, armed at its earliest deadline,
  retransmits it with exponential backoff plus deterministic jitter
  until the destination acknowledges, up to a bounded retry count (then
  the message is abandoned: the give-up is counted in the node's
  ``EventCounters`` and reported to ``on_give_up`` so a failure
  detector can suspect the peer);
- **receiver side** — every tracked datagram is acknowledged, and
  duplicates — from retransmission races or injected faults — are
  suppressed before the protocol ever sees them.  A request the
  protocol answers directly (:data:`~repro.network.message.ANSWERED`)
  is acknowledged by its reply, as in TreadMarks' request/response
  protocol: the reply names the request (``reply_to``) and settles it
  on arrival exactly as an ``ACK`` does, and only a *duplicate* of such
  a request gets an explicit ``ACK``.  Every other tracked arrival,
  replies included, gets one.  Acks are themselves unreliable: a lost
  ack (or reply) just provokes a retransmission.

The DSM protocol above therefore never sees a loss: diff
requests/replies, write-notice propagation, lock grants and barrier
messages arrive although every datagram on the wire can drop.  Prefetch
traffic deliberately bypasses the transport — the paper drops
prefetches rather than retransmit them.

Adaptive mode (``TransportConfig.adaptive``) replaces the static
timeout/retry policy with a feedback-driven one, per peer:

- **RTT estimation** — SRTT/RTTVAR via Jacobson's algorithm, giving
  ``RTO = SRTT + 4*RTTVAR`` clamped to ``[MIN_RTO_US, MAX_RTO_US]``.
  Each wire copy is stamped with its attempt number and the ack (or
  reply) echoes it back (TCP timestamps in miniature), so even
  retransmitted messages yield unambiguous samples; echo-less acks fall
  back to Karn's rule (sample only single-flight frames).  A degraded link
  inflates the RTO instead of provoking spurious retransmits; a
  healthy one converges near the true round trip.
- **AIMD congestion control** — at most ``cwnd`` messages are in
  flight per peer: a timeout halves the window, a clean ack grows it
  additively.  Excess sends wait in a deterministic pacing queue,
  drained in priority order (demand before notices; prefetch traffic
  never reaches the transport — the prefetch engine sheds it at the
  source under pressure, see :mod:`repro.prefetch.engine`).
- **Deadline give-up** — a message is abandoned once it has been
  unacked for ``GIVE_UP_US`` (wall deadline, not a retry count);
  parked messages toward a live, unfenced peer are re-probed so a
  transient partition that never matured into a fence cannot strand
  them forever.

With ``adaptive=False`` (the default) every code path, jitter draw and
timer computation is identical to the static transport, so reports are
byte-identical to runs that predate the adaptive layer.

CPU accounting: initial sends are charged by the caller as before;
retransmissions and acks charge ``msg_send_cpu`` at handler priority,
so reliability overhead shows up in the DSM share of the breakdown.
(A pacing-queue drain injects a first flight without a second send
charge: the CPU cost was spent preparing the message at
``send_tracked`` time; only its NIC injection was deferred.  A queued
revival is a retransmission and pays like one.)
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.network.message import ANSWERED, Message, MessageKind, PRIORITY_NOTICE
from repro.metrics.counters import Category
from repro.network.stats import TransportExtremes
from repro.sim import spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.node import Node

__all__ = ["TransportConfig", "TransportStats", "ReliableTransport"]

#: Matches repro.machine.node.HANDLER_PRIORITY (not imported: the
#: machine package imports repro.network, so importing back would cycle).
_HANDLER_PRIORITY = 0

#: Wire size of an acknowledgement (src, dst, seq + framing handled by
#: the link model like any other datagram).
ACK_BYTES = 16

# The timer policy's numbers are module constants.  Other modules read
# them through this module (``transport.CWND_MAX``), never through a
# ``from`` import that copies the value, so a test can ``monkeypatch``
# one for a single scenario.

#: Base retransmission timeout.  Generous relative to the fabric's
#: RTT (a 4 KB diff costs ~230 us of serialization each way) so a
#: fault-free run never retransmits spuriously.  In adaptive mode
#: this is only the *initial* RTO, replaced by the Jacobson
#: estimate after the first clean sample, so it must lie inside the
#: ``[MIN_RTO_US, MAX_RTO_US]`` clamp.
TIMEOUT_US = 10_000.0

#: Multiplier applied to the timeout after every expiry.
BACKOFF = 2.0

#: Retransmissions per message before the transport gives up on it.
#: (Adaptive mode gives up on the ``GIVE_UP_US`` deadline instead;
#: the retry count remains a backstop for checkpoint-restored
#: pendings whose original send time predates the rollback.)
MAX_RETRIES = 10

#: Timeout jitter: each deadline is stretched by up to this fraction,
#: hashed from the run seed and the copy's (src, dst, seq, attempt), so
#: no endpoint pair's traffic can shift another pair's deadlines.
JITTER_FRAC = 0.1

#: Dedup horizon, in sequence numbers per peer: the receive window
#: remembers at most this many seqs below the highest seen, so long
#: chaos runs don't grow the table without bound.  A duplicate older
#: than the horizon would be re-delivered — the window must exceed
#: the per-link pipeline depth (a handful of messages) plus any
#: parked-and-revived backlog, which this covers by orders of magnitude.
DEDUP_WINDOW = 4096

#: RTO clamp ceiling (adaptive): also caps the per-attempt backoff,
#: so a degraded peer is probed at least this often.  The ceiling
#: bounds the worst post-heal wait after an outage (a retry timer
#: armed just before the fabric heals burns at most one ceiling
#: before probing again), so it is set as low as the slowest
#: *learnable* fabric allows: it must stay above the estimator's
#: converged RTO on the committed degraded fabric (~15 ms each way
#: -> ~35-40 ms RTO), or every message there would retransmit
#: spuriously forever.
MAX_RTO_US = 45_000.0

#: RTO clamp floor (adaptive): the estimator never retransmits
#: faster than this, whatever the variance says.  The floor must
#: cover the fabric's benign queuing tail (an ack serialized behind
#: a multi-KB diff transfer), not just the smoothed RTT — variance
#: decays between rare spikes, so ``SRTT + 4*RTTVAR`` alone would
#: retransmit spuriously on a clean fabric.
MIN_RTO_US = 5_000.0

#: Initial AIMD window, in messages, per peer (adaptive).
CWND_INIT = 4

#: AIMD window ceiling (adaptive); also the bound the chaos
#: harness's bounded-in-flight invariant checks against.
CWND_MAX = 64

#: Unacked-age deadline after which an adaptive transport abandons
#: a message (parks it and reports the peer to ``on_give_up``).
#: With the park probe below, the deadline is the cadence at which
#: an unreachable peer is re-probed *and* re-reported — shorter
#: means faster post-outage recovery (park -> short probe beats
#: riding out a fully backed-off ladder) at the cost of more
#: suspicion reports during a real outage.
GIVE_UP_US = 100_000.0

#: Parked messages toward a live, unfenced peer are re-probed this
#: long after the give-up (adaptive): a partition that healed
#: before any fence/rejoin cycle must not strand them forever.
#: Deliberately short (the RTO floor): toward a peer that still
#: looks alive, a park is then just one more ladder step with a
#: fresh give-up deadline — the ``on_give_up`` suspicion report
#: still fires every deadline burn — while dead or fenced peers
#: are guarded by the probe's down/fenced check and stay parked
#: for rollback/rejoin.  A long interval here would turn every
#: post-heal park into a stall an order of magnitude above the
#: RTO ceiling.
PARK_PROBE_US = 5_000.0

#: Receiver-pressure signal (adaptive): a peer whose current RTO
#: has inflated to at least this multiple of what the estimator
#: alone would set is reported congested to
#: :meth:`ReliableTransport.under_pressure` (the prefetch engine
#: sheds speculative traffic on it).  Measuring *retained backoff*
#: — not the RTO's absolute value — separates congestion from a
#: fabric that is merely slow: a sustained latency shift re-derives
#: the RTO from clean samples (no backoff retained, no pressure),
#: while loss or an outage walks the RTO up multiplicatively past
#: the estimate.  This fires after one retained doubling.
PRESSURE_RTT_FACTOR = 2.0

#: Headroom multiplier over the decayed peak RTT (adaptive).  The
#: RTO must cover the recent *tail* of the RTT distribution, and
#: ``SRTT + 4*RTTVAR`` structurally underestimates it when spikes
#: are bursty: the variance term decays between bursts, so the
#: second burst retransmits spuriously even though the first one
#: was observed in full.  A decaying per-peer maximum — the same
#: max-filter idea BBR applies to its bandwidth estimate — keeps
#: the RTO above recently seen worst-case round trips.
PEAK_MARGIN = 1.25

#: Per-sample decay of the peak-RTT filter.  After a degradation
#: episode ends, a few dozen clean samples walk the peak back down
#: so both the RTO and the pressure signal recover instead of
#: remembering the worst round trip forever.
PEAK_DECAY = 0.95

_MASK64 = (1 << 64) - 1


def _mix(word: int) -> int:
    """splitmix64's finalizer: a bijection on 64-bit words in which
    every output bit depends on every input bit."""
    word = (word + 0x9E3779B97F4A7C15) & _MASK64
    word = ((word ^ (word >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    word = ((word ^ (word >> 27)) * 0x94D049BB133111EB) & _MASK64
    return word ^ (word >> 31)


@dataclass(frozen=True)
class TransportConfig:
    """Which timer policy the reliable transport runs."""

    #: Enable the adaptive layer: RTT-estimated RTO, AIMD windowing,
    #: pacing, and deadline-based give-up.  Off by default — the static
    #: path is byte-identical to the pre-adaptive transport.
    adaptive: bool = False


@dataclass
class TransportStats:
    """Per-node adaptive-layer counters, read by :meth:`ReliableTransport.
    health_snapshot` (all zero with adaptive off).  What every transport
    counts (retransmissions, timeouts, acks, duplicates, give-ups) the
    node's ``EventCounters`` and the network's ``TrafficStats`` hold,
    and the trace carries."""

    #: Sends deferred into the pacing queue by a full AIMD window.
    paced: int = 0
    #: Clean (Karn-admissible) RTT samples folded into the estimator.
    rtt_samples: int = 0
    #: AIMD multiplicative decreases (one per retransmission timeout).
    cwnd_halvings: int = 0
    #: High-water mark of per-peer in-flight unacked messages.
    max_in_flight: int = 0
    #: Parked messages re-flighted by the park probe (peer still live).
    park_probes: int = 0
    #: Retained-backoff retransmissions cut short by liveness evidence
    #: (an arrival from the peer while a pending sat on a backed-off
    #: timer; see :meth:`ReliableTransport._on_peer_evidence`).
    fast_reflights: int = 0
    #: Timeouts later proven spurious by an ack of a pre-retransmission
    #: copy (the Eifel undo reverts their AIMD halvings).
    spurious_timeouts: int = 0


@dataclass
class _Pending:
    """One in-flight tracked message awaiting its ack."""

    message: Message
    attempts: int = 1
    #: When the latest copy times out (inf: none on the wire).
    timeout_at: float = math.inf
    #: First transmission time (profiling and RTT sampling; -1 for
    #: pendings never transmitted yet — pacing-queued — or restored
    #: from a checkpoint, whose original send predates the rollback,
    #: and for revived re-flights, which Karn's rule excludes anyway).
    first_sent_at: float = -1.0
    #: Adaptive give-up deadline (absolute sim time; -1 = use the
    #: static retry-count policy).
    deadline_at: float = -1.0
    #: Transmission time of each wire copy, keyed by attempt number.
    #: The attempt echo of an ack or reply looks up the matching copy
    #: here, turning each — retransmitted messages included — into an
    #: exact round-trip sample.  Cleared on park/revive (fresh flights).
    send_times: dict[int, float] = field(default_factory=dict)
    #: AIMD halvings this message's timeouts caused, undone if the ack
    #: proves them spurious (see the Eifel undo in ``_settle``).
    halved: int = 0


@dataclass
class _PeerState:
    """Everything the transport keeps toward one destination: its
    unacked and parked messages, its timer, and (adaptive) the RTT
    estimator and congestion window."""

    pending: dict[int, _Pending] = field(default_factory=dict)  # unacked, by seq
    #: Given up on, by seq; :meth:`ReliableTransport.revive` re-flights them.
    parked: dict[int, _Pending] = field(default_factory=dict)
    #: Time (inf: none) and serial of the one live kernel entry.
    timer_at: float = math.inf
    timer: int = 0
    srtt: float = -1.0  # -1 until the first Karn-clean sample
    rttvar: float = 0.0
    rto: float = 0.0
    #: Smallest clean sample ever (the RTT-inflation baseline).
    min_rtt: float = -1.0
    #: Decaying maximum of recent samples (the burst tail the RTO must
    #: cover; see :data:`PEAK_MARGIN`).
    peak_rtt: float = 0.0
    cwnd: float = 1.0
    in_flight: int = 0
    #: Pacing queues of seqs by priority class (demand, then notices);
    #: ``queued`` is the membership set so an ack or a park can lazily
    #: remove an entry without a deque scan.
    queues: tuple[deque, deque] = field(default_factory=lambda: (deque(), deque()))
    queued: set[int] = field(default_factory=set)


@dataclass
class _ReceiveWindow:
    """Duplicate suppression state for one peer.

    Sequence numbers from a peer are delivered exactly once: a
    contiguous watermark plus the sparse set of out-of-order arrivals
    above it.  The sparse set is garbage-collected against a horizon
    ``window`` below the highest seq seen — without it, a permanently
    missing seq (a sender give-up that was never revived) would pin the
    watermark forever and the set would grow for the rest of the run.
    """

    upto: int = -1
    above: set[int] = field(default_factory=set)
    #: Highest seq ever seen from this peer (drives the GC horizon).
    high: int = -1

    def accept(self, seq: int, window: int) -> bool:
        """Record ``seq``; True if this is its first arrival.

        ``window`` is the horizon: :data:`DEDUP_WINDOW` from the transport.
        """
        if seq <= self.upto or seq in self.above:
            return False
        self.above.add(seq)
        if seq > self.high:
            self.high = seq
        self._compact()
        floor = self.high - window
        if floor > self.upto:
            # Anything at or below the horizon is assumed seen: a gap
            # that old is an abandoned send, not an in-flight one.  (A
            # first arrival from below the horizon *would* be wrongly
            # suppressed — the window is sized so that cannot happen.)
            self.upto = floor
            self.above = {s for s in self.above if s > floor}
            self._compact()
        return True

    def _compact(self) -> None:
        while self.upto + 1 in self.above:
            self.upto += 1
            self.above.remove(self.upto)


class ReliableTransport:
    """Sequence numbers, acks, timeouts and retries for one node."""

    def __init__(self, node: "Node", config: TransportConfig, seed: int) -> None:
        self.node = node
        self.sim = node.sim
        self.network = node.network
        self.stats = TransportStats()
        self.extremes = TransportExtremes()
        #: The jitter hash's key for this sender (see :meth:`_timeout_us`).
        self._jitter_key = _mix(_mix(seed) ^ node.node_id)
        self._adaptive = config.adaptive
        self._next_seq: dict[int, int] = {}  # destination -> next seq
        #: destination -> its messages, timer and (adaptive) estimator.
        self._peers: dict[int, _PeerState] = {}
        self._windows: dict[int, _ReceiveWindow] = {}  # source -> dedup state
        #: Called as ``on_give_up(dst, message)`` when retries run out
        #: (wired to the failure detector's suspicion path under FT).
        self.on_give_up = None

    @property
    def adaptive(self) -> bool:
        return self._adaptive

    @property
    def _pending(self) -> dict[tuple[int, int], _Pending]:
        """Every unacked message, keyed (dst, seq)."""
        return {(dst, seq): p for dst, q in self._peers.items() for seq, p in q.pending.items()}

    @property
    def _parked(self) -> dict[tuple[int, int], _Pending]:
        """Every parked message, keyed (dst, seq)."""
        return {(dst, seq): p for dst, q in self._peers.items() for seq, p in q.parked.items()}

    def _mark(self, name: str, queues: bool = False, **args) -> None:
        """Trace one transport fact.  It holds the tracer's guard for
        the loss-driven ones (a timeout, give-up, retransmission, park
        probe or suppressed duplicate), which run once per datagram the
        fabric lost or doubled; the ones that grow with the traffic
        (``track``, ``settle``, ``rto_update``, ``transport_paced``)
        keep theirs at the site.

        ``queues=True`` marks a change of what the message queues hold:
        the event also carries ``gauges`` (:meth:`gauges`' values) and,
        adaptive, ``peer`` (:meth:`peer_gauges` toward its ``dst`` plus
        the messages parked for it), which the telemetry fold reads.
        Every such change is traced so: a tracked send (``track``), an
        ack or reply (``settle``), a timeout's window halving, a
        give-up, a revival (``unpark``), a rollback (``restore``).
        """
        if self.sim.trace_on:
            if queues:
                args["gauges"] = self._counts()
                if self._adaptive:
                    dst = args["dst"]
                    args["peer"] = (*self.peer_gauges(dst).values(), len(self._peers[dst].parked))
            self.sim.trace.instant(self.sim.now, "transport", name, self.node.node_id, **args)

    # -- sender side -------------------------------------------------------

    def send_tracked(self, message: Message) -> bool:
        """Take ownership of a tracked message and transmit it.

        Called by :meth:`Node.send_message` after the send CPU cost has
        been charged.  The message leaves as a droppable datagram; the
        transport guarantees (eventual) delivery, not this transmission.
        In adaptive mode a full congestion window defers the actual
        transmission into the pacing queue instead.
        """
        dst = message.dst
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        message.seq = seq
        pending = _Pending(message)
        peer = self._peer(dst)
        peer.pending[seq] = pending
        queued = False
        if self._adaptive:
            pending.deadline_at = self.sim.now + GIVE_UP_US
            queued = peer.in_flight >= int(peer.cwnd)
            if queued:
                self._enqueue(peer, pending)
            else:
                self._admit(peer)
                message.attempt = 1
                pending.send_times[1] = self.sim.now
        if self.sim.trace_on:
            self._mark("track", queues=True, dst=dst, seq=seq)
        if not queued:
            pending.first_sent_at = self.sim.now
            self.network.send(message)
            self._arm(peer, pending)
        return True

    def _peer(self, dst: int) -> _PeerState:
        peer = self._peers.get(dst)
        if peer is None:
            # The peak filter starts pessimistic — the tail is assumed
            # as bad as the initial RTO until samples decay it down —
            # so a first burst toward a freshly warmed-up peer (low
            # SRTT, but incast queuing an order of magnitude above it)
            # is covered without spurious retransmissions.
            peer = _PeerState(
                rto=TIMEOUT_US, cwnd=float(CWND_INIT), peak_rtt=TIMEOUT_US / PEAK_MARGIN**2
            )
            self._peers[dst] = peer
        return peer

    def _admit(self, peer: _PeerState) -> None:
        peer.in_flight += 1
        if peer.in_flight > self.stats.max_in_flight:
            self.stats.max_in_flight = peer.in_flight

    def _enqueue(self, peer: _PeerState, pending: _Pending) -> None:
        """Defer a transmission until the AIMD window opens (adaptive)."""
        message = pending.message
        peer.queues[min(message.priority, PRIORITY_NOTICE)].append(message.seq)
        peer.queued.add(message.seq)
        self.extremes.observe_backlog(len(peer.queued))
        self.stats.paced += 1
        self.node.events.messages_paced += 1
        self.network.stats.record_paced(message)
        if self.sim.trace_on:
            self._mark(
                "transport_paced",
                dst=message.dst,
                seq=message.seq,
                priority=message.priority,
                kind=message.kind.value,
            )

    def _dequeue(self, peer: _PeerState) -> Optional[int]:
        for queue in peer.queues:
            while queue:
                seq = queue.popleft()
                if seq in peer.queued:
                    peer.queued.discard(seq)
                    return seq
        return None

    def _drain(self, peer: _PeerState) -> None:
        """Transmit paced messages while the window has room (adaptive)."""
        while peer.in_flight < int(peer.cwnd):
            seq = self._dequeue(peer)
            if seq is None:
                return
            pending = peer.pending.get(seq)
            if pending is None:
                continue
            self._admit(peer)
            # The give-up clock starts at transmission, not at enqueue:
            # a message that sat out an outage in the pacing queue gets
            # its full deadline on the wire, instead of parking on its
            # first timeout after the fabric already healed.
            pending.deadline_at = self.sim.now + GIVE_UP_US
            message = pending.message
            if message.sent_at >= 0:
                # A revived re-flight that queued: a retransmission,
                # charged and traced as one (Karn's rule already
                # excludes it from sampling: first_sent_at stays -1).
                self._resend(peer, pending, "revive")
                continue
            pending.first_sent_at = self.sim.now
            message.attempt = pending.attempts
            pending.send_times[pending.attempts] = self.sim.now
            self.network.send(message)
            self._arm(peer, pending)

    def _timeout_us(self, dst: int, seq: int, attempts: int) -> float:
        if self._adaptive:
            # The peer RTO alone — every timeout already multiplies it
            # by ``BACKOFF`` (Karn retention in :meth:`_timeout`), so
            # stacking an attempts exponent on top would back off
            # *doubly*: the ladder would blow past the give-up deadline
            # during an outage the singly-backed-off ladder (capped at
            # ``MAX_RTO_US``) rides out and delivers through.
            base = min(MAX_RTO_US, self._peer(dst).rto)
        else:
            base = TIMEOUT_US * BACKOFF ** (attempts - 1)
        # u in [0, 1): the top 53 bits of the copy's hash (the key holds
        # seed and sender; below 2**16 nodes and attempts, 2**32 seqs).
        word = _mix(self._jitter_key ^ (dst << 48) ^ (seq << 16) ^ attempts)
        return base * (1.0 + JITTER_FRAC * ((word >> 11) * 2.0**-53))

    def _arm(self, peer: _PeerState, pending: _Pending) -> None:
        """Time out ``pending``'s latest copy; the peer's timer gets a new
        kernel entry only if this is now its earliest deadline."""
        timeout = self._timeout_us(pending.message.dst, pending.message.seq, pending.attempts)
        pending.timeout_at = self.sim.now + timeout
        if pending.timeout_at < peer.timer_at:
            self._arm_at(peer, pending.timeout_at)

    def _arm_at(self, peer: _PeerState, when: float) -> None:
        peer.timer_at = when
        peer.timer += 1
        self.sim.schedule_at(when, self._on_timer, peer, peer.timer)

    def _on_timer(self, peer: _PeerState, serial: int) -> None:
        """Time out every unacked message due by now, then re-arm at the
        earliest deadline left (an acked message has left the table)."""
        if serial != peer.timer:
            return  # superseded by an earlier deadline
        now = self.sim.now
        due = [pending for pending in peer.pending.values() if pending.timeout_at <= now]
        peer.timer_at = -math.inf  # the timeouts' resends arm nothing ...
        for pending in due:
            self._timeout(peer, pending)
        peer.timer_at = math.inf  # ... the earliest of all is armed once
        earliest = min((pending.timeout_at for pending in peer.pending.values()), default=now)
        if now < earliest < math.inf:
            self._arm_at(peer, earliest)

    def _give_up_due(self, pending: _Pending) -> bool:
        if self._adaptive and pending.deadline_at >= 0:
            return self.sim.now >= pending.deadline_at
        return pending.attempts > MAX_RETRIES

    def _timeout(self, peer: _PeerState, pending: _Pending) -> None:
        message = pending.message
        dst, seq = message.dst, message.seq
        self.node.events.transport_timeouts += 1
        self._mark(
            "transport_timeout",
            dst=dst,
            seq=seq,
            attempts=pending.attempts,
            kind=message.kind.value,
            msg=f"m{message.msg_id}",
        )
        if self._give_up_due(pending):
            # Give up gracefully: the message is parked, the give-up is
            # recorded, and the peer is reported as suspect.  Raising
            # here would unwind the whole simulation out of a timer
            # callback; a dead peer is a liveness problem for the
            # failure detector (or the deadlock watchdog), not a crash.
            # If the peer turns out to be partitioned rather than dead,
            # revive() puts the parked message back in flight.
            del peer.pending[seq]
            pending.timeout_at = math.inf
            peer.parked[seq] = pending
            self.node.events.retries_exhausted += 1
            if self._adaptive:
                peer.in_flight = max(0, peer.in_flight - 1)
                # A give-up must never leave a fenced-in pacing backlog
                # behind: the freed window slot re-flights the queue.
                self._drain(peer)
                # Self-healing probe: a partition can heal before any
                # fence (so no rejoin ever revives this message).  The
                # probe re-flights it if the peer still looks alive;
                # crashed/fenced peers are left to rollback/rejoin.
                self.sim.schedule(PARK_PROBE_US, self._probe_parked, dst, seq)
            self._mark(
                "retries_exhausted",
                queues=True,
                dst=dst,
                seq=seq,
                attempts=pending.attempts,
                kind=message.kind.value,
            )
            if self.on_give_up is not None:
                self.on_give_up(dst, message)
            return
        if self._adaptive:
            peer.cwnd = max(1.0, peer.cwnd / 2.0)
            pending.halved += 1
            self.stats.cwnd_halvings += 1
            self.extremes.observe_cwnd(peer.cwnd)
            # Karn's other half: the backed-off RTO is retained for
            # subsequent messages until a fresh clean sample replaces
            # it.  Without this, a latency jump above the estimate
            # strands the estimator — every message gets retransmitted,
            # Karn's rule rejects every sample, and the RTO never
            # learns.  With it, a few timeouts walk the peer RTO up
            # past the new RTT, the next message survives un-resent,
            # and its sample re-seeds the estimator at the true value.
            peer.rto = min(MAX_RTO_US, peer.rto * BACKOFF)
            self.extremes.observe_rto(peer.rto)
            self._mark("cwnd_halved", queues=True, dst=dst, cwnd=round(peer.cwnd, 3))
        pending.attempts += 1
        self._resend(peer, pending, "rexmit")

    def _resend(self, peer: _PeerState, pending: _Pending, name: str) -> None:
        """Re-arm the deadline (first: a copy stuck behind a busy CPU must
        stay covered), then spawn a ``name`` process that sends the copy."""
        self._arm(peer, pending)
        spawn(
            self.sim,
            self._retransmit(peer, pending.message.seq),
            name=f"{name}[{self.node.node_id}]",
            group=f"node{self.node.node_id}",
        )

    def _retransmit(self, peer: _PeerState, seq: int) -> Generator:
        pending = peer.pending.get(seq)
        if pending is None:
            return
        yield from self.node.occupy(
            self.node.costs.msg_send_cpu, Category.DSM, priority=_HANDLER_PRIORITY
        )
        if seq not in peer.pending:
            return  # acked while waiting for the CPU, or rolled back
        dst = pending.message.dst
        self.node.events.retransmissions += 1
        copy = pending.message.clone()
        self._mark(
            "retransmit",
            dst=dst,
            seq=seq,
            attempts=pending.attempts,
            kind=copy.kind.value,
            # The wire copy's own correlation id: its msg:* async
            # span in the trace belongs to a retransmission, which
            # the critical-path analyzer blames as such.
            msg=f"m{copy.msg_id}",
            # When the message first left (the retransmit delay's
            # start); -1 once a revival cleared it.
            since=pending.first_sent_at,
        )
        self.network.stats.record_retransmit(copy)
        if self._adaptive:
            copy.attempt = pending.attempts
            pending.send_times[pending.attempts] = self.sim.now
        self.network.send(copy)

    def _probe_parked(self, dst: int, seq: int) -> None:
        """Adaptive park probe: re-flight a give-up whose peer is alive.

        Fenced peers are revived by the membership layer's rejoin, and
        crashed peers by checkpoint rollback — the probe covers the gap
        between them: a peer that was unreachable long enough to burn
        the give-up deadline but came back before any fence.
        """
        peer = self._peers.get(dst)
        if peer is None or seq not in peer.parked:
            return
        if self.network.is_down(dst) or self.network.is_fenced(dst):
            return
        self.stats.park_probes += 1
        self._mark("park_probe", dst=dst, seq=seq)
        self._revive(dst, peer, [seq])

    def _on_peer_evidence(self, src: int) -> None:
        """Fast re-flight (adaptive): an arrival from ``src`` proves the
        path to it works *now*.

        During an outage the retained Karn backoff walks the peer RTO to
        its ceiling, so pendings sent just before the fabric healed sit
        on ceiling-length timers while a static transport's fresh exponential
        ladder would have recovered in a fraction of that.  Evidence of
        liveness cuts the wait: pendings that have gone unacked longer
        than the *estimator's* RTO (the retained backoff excluded) are
        retransmitted immediately, and parked give-ups toward the peer
        are revived without waiting for the park probe.  On a clean
        fabric the retained RTO equals the estimator's and this is a
        no-op; after a re-flight the pending's fresh send time keeps
        subsequent arrivals from re-triggering, so there is no storm.
        """
        peer = self._peers.get(src)
        if peer is None or self.network.is_down(src) or self.network.is_fenced(src):
            return  # revival toward down or fenced peers belongs to rollback/rejoin
        if peer.parked:
            self.stats.park_probes += len(peer.parked)
            self._revive(src, peer, sorted(peer.parked))
        est = self._estimator_rto(peer)
        if peer.rto <= est:
            return  # no retained backoff to cut
        for seq in sorted(peer.pending):
            if seq in peer.queued:
                continue  # pacing-queued, not on the wire
            pending = peer.pending[seq]
            last = max(pending.send_times.values(), default=pending.first_sent_at)
            if last < 0 or self.sim.now - last < est:
                continue
            self.stats.fast_reflights += 1
            pending.attempts += 1
            self._resend(peer, pending, "reflight")

    def _revive(self, dst: int, peer: _PeerState, seqs: list[int]) -> int:
        """Re-flight parked messages (shared by revive and the probe)."""
        for seq in seqs:
            pending = peer.parked.pop(seq)
            pending.attempts = 1
            peer.pending[seq] = pending
            if self._adaptive:
                # A fresh give-up deadline and a clean attempt ledger:
                # the revived flight re-numbers from attempt 1, and any
                # straggler ack of a pre-park copy must not be allowed
                # to match a stale send time.
                pending.first_sent_at = -1.0
                pending.send_times.clear()
                pending.halved = 0
                pending.deadline_at = self.sim.now + GIVE_UP_US
                if peer.in_flight >= int(peer.cwnd):
                    self._enqueue(peer, pending)
                    continue
                self._admit(peer)
            self._resend(peer, pending, "revive")
        if seqs:
            self._mark("unpark", queues=True, dst=dst, count=len(seqs))
        return len(seqs)

    def revive(self, dst: int) -> int:
        """Put every message parked for ``dst`` back in flight.

        Called by the membership layer when a fenced peer rejoins after
        a partition heals: the give-ups were wrong — the peer is alive —
        so each parked message gets a fresh retry budget and an
        immediate retransmission.  This is the targeted re-sync of the
        rejoin path: sequence numbers are unchanged, so the peer's
        dedup window delivers exactly the messages it missed and
        re-acks the ones that did land before the partition.
        """
        peer = self._peers.get(dst)
        return 0 if peer is None else self._revive(dst, peer, sorted(peer.parked))

    def revive_all(self) -> int:
        """Revive every parked message (the parking node itself rejoined:
        all its give-ups happened while it was cut off)."""
        return sum(self.revive(dst) for dst in sorted(self._peers))

    # -- adaptive estimator ------------------------------------------------

    def _estimator_rto(self, peer: _PeerState) -> float:
        """The clamped Jacobson RTO, ignoring any retained backoff.

        The peak-RTT term handles bursty queuing tails (an all-to-all
        exchange phase serializes replies at the responder, so round
        trips spike an order of magnitude above SRTT): Jacobson's
        variance decays between bursts, but the decayed-maximum filter
        remembers the tail long enough to cover the next one.
        """
        if peer.srtt < 0:
            return TIMEOUT_US
        return min(
            MAX_RTO_US,
            max(
                MIN_RTO_US,
                peer.srtt + 4.0 * peer.rttvar,
                PEAK_MARGIN * peer.peak_rtt,
            ),
        )

    def _rtt_sample(self, dst: int, peer: _PeerState, sample: float) -> None:
        """Fold one Karn-clean ack round trip into Jacobson's estimator."""
        self.stats.rtt_samples += 1
        if peer.srtt < 0:
            peer.srtt = sample
            peer.rttvar = sample / 2.0
        else:
            peer.rttvar = 0.75 * peer.rttvar + 0.25 * abs(peer.srtt - sample)
            peer.srtt = 0.875 * peer.srtt + 0.125 * sample
        if peer.min_rtt < 0 or sample < peer.min_rtt:
            peer.min_rtt = sample
        peer.peak_rtt = max(sample, peer.peak_rtt * PEAK_DECAY)
        peer.rto = self._estimator_rto(peer)
        self.extremes.observe_rto(peer.rto)
        if self.sim.trace_on:
            self._mark(
                "rto_update",
                dst=dst,
                sample_us=round(sample, 3),
                srtt_us=round(peer.srtt, 3),
                rttvar_us=round(peer.rttvar, 3),
                rto_us=round(peer.rto, 3),
                # Unrounded, for the profile's histograms.
                sample=sample,
                rto=peer.rto,
            )

    def under_pressure(self, dst: int) -> bool:
        """Backpressure signal for speculative senders (prefetch).

        True while the adaptive layer sees congestion toward ``dst``:
        either the AIMD window is saturated with a pacing backlog, or
        the peer is carrying retained timeout backoff — its RTO has
        been walked multiplicatively past what the estimator alone
        would set (loss or an outage does that; a fabric that is
        merely *slow* does not, because clean samples keep re-deriving
        the RTO, so speculative traffic is not shed just for latency).
        Always False with the adaptive layer off (the legacy
        drop-streak throttle applies instead).
        """
        peer = self._peers.get(dst)
        if not self._adaptive or peer is None:
            return False
        return bool(peer.queued) or peer.rto >= PRESSURE_RTT_FACTOR * self._estimator_rto(peer)

    def _counts(self) -> tuple[int, int, int]:
        unacked = backlog = parked = 0
        for peer in self._peers.values():
            unacked += len(peer.pending)
            backlog += len(peer.queued)
            parked += len(peer.parked)
        return unacked, backlog, parked

    def gauges(self) -> dict[str, int]:
        """Messages unacked, waiting in a pacing queue, and parked, now."""
        return dict(zip(("unacked", "backlog", "parked"), self._counts()))

    def parked_by_peer(self) -> dict[int, int]:
        """Parked messages per destination, in destination order."""
        return {dst: len(peer.parked) for dst, peer in sorted(self._peers.items()) if peer.parked}

    def peer_gauges(self, dst: int) -> dict:
        """Adaptive estimator and window state toward ``dst``, rounded
        for reports (placeholders before the first send to it)."""
        peer = self._peers.get(dst) or _PeerState(cwnd=0.0)
        return {
            "srtt_us": round(peer.srtt, 3),
            "rttvar_us": round(peer.rttvar, 3),
            "rto_us": round(peer.rto, 3),
            "cwnd": round(peer.cwnd, 3),
            "in_flight": peer.in_flight,
            "queued": len(peer.queued),
        }

    def health_snapshot(self) -> dict:
        """Adaptive-layer health for ``RunReport.transport_health``.

        Keys are JSON-safe (peer ids as strings); values are rounded so
        the section is stable under serialization.
        """
        gauges = self.gauges()
        return {
            "peers": {str(dst): self.peer_gauges(dst) for dst in sorted(self._peers)},
            "parked_by_peer": {str(dst): n for dst, n in self.parked_by_peer().items()},
            "unacked": gauges["unacked"],
            "pacing_backlog": gauges["backlog"],
            "max_in_flight": self.stats.max_in_flight,
            "paced": self.stats.paced,
            "rtt_samples": self.stats.rtt_samples,
            "cwnd_halvings": self.stats.cwnd_halvings,
            "park_probes": self.stats.park_probes,
            "fast_reflights": self.stats.fast_reflights,
            "spurious_timeouts": self.stats.spurious_timeouts,
            "extremes": self.extremes.as_dict(),
        }

    # -- receiver side -----------------------------------------------------

    def on_receive(self, message: Message) -> Generator:
        """Transport filter for every arriving message.

        Runs in the node's handler process (receive cost already
        charged).  Returns True if the message should be dispatched to
        the protocol, False if the transport consumed it (an ack or a
        suppressed duplicate).
        """
        if message.reply_to >= 0:
            self._settle(message)
        if self._adaptive:
            # Every arrival — heartbeat, datagram, data — is liveness
            # evidence for its sender (see _on_peer_evidence).
            self._on_peer_evidence(message.src)
        if message.seq < 0:
            # An ack, or an untracked kind (prefetch traffic, heartbeats).
            return message.kind is not MessageKind.ACK
        window = self._windows.setdefault(message.src, _ReceiveWindow())
        first = window.accept(message.seq, DEDUP_WINDOW)
        if not first:
            self.node.events.duplicates_suppressed += 1
            self._mark(
                "duplicate_suppressed", src=message.src, seq=message.seq, kind=message.kind.value
            )
        elif message.kind in ANSWERED:
            return True  # the protocol's reply is the acknowledgement
        # Ack every other arrival, and every duplicate: a duplicate
        # usually means our previous ack (or reply) was lost.
        yield from self.node.occupy(
            self.node.costs.msg_send_cpu, Category.DSM, priority=_HANDLER_PRIORITY
        )
        self.node.events.acks_sent += 1
        self.network.send(
            Message(
                src=self.node.node_id,
                dst=message.src,
                kind=MessageKind.ACK,
                size_bytes=ACK_BYTES,
                reply_to=message.seq,
                echo=message.attempt,
            )
        )
        return first

    def _settle(self, message: Message) -> None:
        """``message`` (an ack or a reply) acknowledges our ``reply_to``."""
        dst, seq = message.src, message.reply_to
        peer = self._peers.get(dst)
        if peer is None:
            return
        pending = peer.pending.pop(seq, None)
        # A very late ack can land after the give-up: the peer did
        # receive the message, so the parked copy is obsolete.
        parked = peer.parked.pop(seq, None)
        if self._adaptive and pending is not None:
            if seq in peer.queued:
                # Acked while still pacing-queued: only possible for a
                # revived message whose pre-park transmission was acked
                # very late.  It never consumed a window slot.
                peer.queued.discard(seq)
            else:
                peer.in_flight = max(0, peer.in_flight - 1)
                sent = pending.send_times.get(message.echo)
                if sent is not None:
                    # The attempt echo pins this ack to one wire copy, so
                    # the round trip is unambiguous even for retransmitted
                    # messages (where Karn's rule alone must discard the
                    # measurement).  The sample carries the disambiguation
                    # for free: a fast ack of the latest copy re-derives
                    # the RTO from the estimator after a loss episode,
                    # while a slow ack of the *first* copy measures the
                    # post-jump RTT directly and hoists the RTO past it in
                    # one update — no spurious-retransmission ladder walk.
                    self._rtt_sample(dst, peer, self.sim.now - sent)
                    if message.echo < pending.attempts and pending.halved:
                        # Eifel-style undo: the ack is for an *earlier* copy
                        # than the latest retransmission, so the message was
                        # never lost — the timeout was spurious (an RTT jump,
                        # not congestion) and its multiplicative decreases
                        # are reverted.  The sample above already re-derived
                        # the RTO from the new round trip.
                        self.stats.spurious_timeouts += pending.halved
                        peer.cwnd = min(float(CWND_MAX), peer.cwnd * (2.0 ** pending.halved))
                elif pending.attempts == 1 and pending.first_sent_at >= 0:
                    # Echo-less ack (e.g. for a copy predating a checkpoint
                    # rollback): fall back to Karn's rule — only frames
                    # transmitted exactly once yield an unambiguous sample.
                    self._rtt_sample(dst, peer, self.sim.now - pending.first_sent_at)
                if peer.cwnd < CWND_MAX:
                    # Additive increase: ~one window per RTT of clean acks.
                    peer.cwnd = min(float(CWND_MAX), peer.cwnd + 1.0 / peer.cwnd)
            self._drain(peer)
        if self.sim.trace_on and (pending or parked):
            self._mark("settle", queues=True, dst=dst, seq=seq)

    # -- checkpoint/recovery ----------------------------------------------

    def snapshot_state(self) -> dict:
        """Copy of the sequencing state for a coordinated checkpoint.

        The send windows (next_seq), unacked pendings and receive
        windows are cut at the same instant, so they are mutually
        consistent: a restored pending whose original datagram did
        arrive pre-crash is suppressed by the restored receive window at
        its destination and simply re-acked.
        """
        return {
            "next_seq": dict(self._next_seq),
            "pending": {
                key: (state.message, state.attempts) for key, state in self._pending.items()
            },
            "windows": {
                src: (window.upto, set(window.above)) for src, window in self._windows.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot and re-arm each peer's timer.

        The discarded execution's peer state goes: timers and resends
        armed before the rollback find nothing, parked messages are
        covered by the checkpointed pendings, and adaptive estimator
        and window state restart from their initial values.  Every
        restored pending re-enters the in-flight accounting.
        """
        self._next_seq = dict(state["next_seq"])
        self._windows = {
            src: _ReceiveWindow(
                upto=upto, above=set(above), high=max(above, default=upto)
            )
            for src, (upto, above) in state["windows"].items()
        }
        for peer in self._peers.values():
            peer.pending.clear()  # its timer and retransmissions find nothing
        self._peers = {}
        for (dst, seq), (message, attempts) in state["pending"].items():
            peer = self._peer(dst)
            pending = peer.pending[seq] = _Pending(message, attempts=attempts)
            if self._adaptive:
                pending.deadline_at = self.sim.now + GIVE_UP_US
                self._admit(peer)
            self._arm(peer, pending)
        for dst in sorted(self._peers):
            self._mark("restore", queues=True, dst=dst)
