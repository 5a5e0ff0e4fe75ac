"""Request/reply reliability over unreliable datagrams.

TreadMarks runs over UDP: datagrams drop, duplicate and reorder, and the
DSM is correct anyway because a retransmitting transport sits between
the protocol and the wire (paper, Section 3).  This module is that
layer.  One :class:`ReliableTransport` per node:

- **sender side** — every reliable protocol message gets a per
  (sender, destination) sequence number and goes out as a droppable
  datagram; a timer retransmits it with exponential backoff plus
  deterministic jitter until the destination acknowledges, up to a
  bounded retry count (then the message is abandoned: the give-up is
  counted in :class:`TransportStats` and reported to ``on_give_up`` so
  a failure detector can suspect the peer);
- **receiver side** — every tracked datagram is acknowledged (acks are
  themselves unreliable: a lost ack just provokes a retransmission),
  and duplicates — from retransmission races or injected faults — are
  suppressed before the protocol ever sees them.

The DSM protocol above is therefore unchanged: diff requests/replies,
write-notice propagation, lock grants and barrier messages simply stop
relying on the link model's "reliable messages are never lost" magic.
Prefetch traffic (``reliable=False``) deliberately bypasses the
transport — the paper drops prefetches rather than retransmit them.

Adaptive mode (``TransportConfig.adaptive``) replaces the static
timeout/retry policy with a feedback-driven one, per peer:

- **RTT estimation** — SRTT/RTTVAR via Jacobson's algorithm, giving
  ``RTO = SRTT + 4*RTTVAR`` clamped to ``[MIN_RTO_US, MAX_RTO_US]``.
  Each wire copy is stamped with its attempt number and the ack echoes
  it back (TCP timestamps in miniature), so even retransmitted
  messages yield unambiguous samples; echo-less acks fall back to
  Karn's rule (sample only single-flight frames).  A degraded link
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

With ``adaptive=False`` (the default) every code path, RNG draw and
timer computation is identical to the static transport, so reports are
byte-identical to runs that predate the adaptive layer.

CPU accounting: initial sends are charged by the caller as before;
retransmissions and acks charge ``msg_send_cpu`` at handler priority,
so reliability overhead shows up in the DSM share of the breakdown.
(A pacing-queue drain injects the already-paid-for datagram without a
second send charge: the CPU cost was spent preparing the message at
``send_tracked`` time; only its NIC injection was deferred.)
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.network.message import (
    Message,
    MessageKind,
    PRIORITY_NOTICE,
)
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

#: Timeout jitter: each timer is stretched by up to this fraction,
#: drawn from the experiment's seeded RNG (decorrelates senders).
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


@dataclass(frozen=True)
class TransportConfig:
    """Which timer policy the reliable transport runs."""

    #: Enable the adaptive layer: RTT-estimated RTO, AIMD windowing,
    #: pacing, and deadline-based give-up.  Off by default — the static
    #: path is byte-identical to the pre-adaptive transport.
    adaptive: bool = False


@dataclass
class TransportStats:
    """Per-node transport counters (aggregated into the run report)."""

    data_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    duplicates_suppressed: int = 0
    #: Messages abandoned after MAX_RETRIES, by message kind.  The
    #: transport no longer raises out of the sim loop on exhaustion: it
    #: records the give-up here and notifies ``on_give_up`` (the failure
    #: detector, when FT is on) so the peer can be suspected.  The
    #: message itself is *parked*, not destroyed: if the membership
    #: layer later decides the peer was merely partitioned and rejoins
    #: it, :meth:`ReliableTransport.revive` puts parked messages back in
    #: flight.
    retries_exhausted: dict[str, int] = field(default_factory=dict)
    #: Parked messages put back in flight after a peer rejoined.
    revived: int = 0
    # Adaptive-layer counters (all zero with adaptive off).
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
    """One in-flight reliable message awaiting its ack."""

    message: Message
    attempts: int = 1
    #: Bumped on every (re)send and on ack; stale timers check it.
    epoch: int = 0
    #: First transmission time (profiling and RTT sampling; -1 for
    #: pendings never transmitted yet — pacing-queued — or restored
    #: from a checkpoint, whose original send predates the rollback,
    #: and for revived re-flights, which Karn's rule excludes anyway).
    first_sent_at: float = -1.0
    #: Adaptive give-up deadline (absolute sim time; -1 = use the
    #: static retry-count policy).
    deadline_at: float = -1.0
    #: Transmission time of each wire copy, keyed by attempt number.
    #: The ack's attempt echo looks up the matching copy here, turning
    #: every ack — retransmitted messages included — into an exact
    #: round-trip sample.  Cleared on park/revive (fresh flights).
    send_times: dict[int, float] = field(default_factory=dict)
    #: AIMD halvings this message's timeouts caused, undone if the ack
    #: proves them spurious (see the Eifel undo in ``_on_ack``).
    halved: int = 0


@dataclass
class _PeerState:
    """Adaptive estimator + congestion state toward one destination."""

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
    #: Pacing queues by priority class (demand, then notices).  Keys
    #: are (dst, seq); ``queued`` is the membership set so an ack or a
    #: park can lazily remove an entry without a deque scan.
    queues: tuple[deque, deque] = field(default_factory=lambda: (deque(), deque()))
    queued: set[tuple[int, int]] = field(default_factory=set)


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

    def __init__(self, node: "Node", config: TransportConfig, rng) -> None:
        self.node = node
        self.sim = node.sim
        self.network = node.network
        self.stats = TransportStats()
        self.extremes = TransportExtremes()
        # Timeout jitter must be deterministic *per endpoint pair*: with
        # one stream per node, destination A's retry count would shift
        # which draws destination B's timers see, coupling unrelated
        # links.  Given a RandomSource, each destination gets its own
        # named stream; a bare numpy Generator (direct construction in
        # tests) falls back to node-wide draws.
        self._rng_source = rng
        #: destination -> its jitter generator (a timer is armed per
        #: reliable send; naming the stream each time costs an f-string).
        self._jitter_rngs: dict[int, np.random.Generator] = {}
        self._adaptive = config.adaptive
        self._next_seq: dict[int, int] = {}  # destination -> next seq
        self._pending: dict[tuple[int, int], _Pending] = {}  # (dst, seq) -> state
        #: Messages abandoned after MAX_RETRIES, keyed like _pending.
        #: They keep their seq: on revive the receiver's dedup window
        #: either delivers them (first arrival) or re-acks (the original
        #: did land before the give-up).
        self._parked: dict[tuple[int, int], _Pending] = {}
        self._windows: dict[int, _ReceiveWindow] = {}  # source -> dedup state
        #: Adaptive per-destination estimator/window state.
        self._peers: dict[int, _PeerState] = {}
        #: Source of timer epochs.  Transport-wide and monotonic — never
        #: rolled back — so timers armed before a crash rollback can
        #: never match a pending restored after it.
        self._timer_serial = 0
        #: Called as ``on_give_up(dst, message)`` when retries run out
        #: (wired to the failure detector's suspicion path under FT).
        self.on_give_up = None

    @property
    def adaptive(self) -> bool:
        return self._adaptive

    def _mark(self, name: str, **args) -> None:
        """Trace one loss-driven transport fact: a timeout, give-up,
        retransmission, park probe or suppressed duplicate.  It holds
        the tracer's guard because those run once per datagram the
        fabric lost or doubled; ``rto_update`` and ``transport_paced``
        grow with the traffic and keep theirs at the site."""
        if self.sim.trace_on:
            self.sim.trace.instant(self.sim.now, "transport", name, self.node.node_id, **args)

    # -- sender side -------------------------------------------------------

    def send_tracked(self, message: Message) -> bool:
        """Take ownership of a reliable message and transmit it.

        Called by :meth:`Node.send_message` after the send CPU cost has
        been charged.  The message leaves as a droppable datagram; the
        transport guarantees (eventual) delivery, not this transmission.
        In adaptive mode a full congestion window defers the actual
        transmission into the pacing queue instead.
        """
        seq = self._next_seq.get(message.dst, 0)
        self._next_seq[message.dst] = seq + 1
        message.seq = seq
        message.reliable = False
        pending = _Pending(message)
        self._pending[(message.dst, seq)] = pending
        self.stats.data_sent += 1
        if self._adaptive:
            pending.deadline_at = self.sim.now + GIVE_UP_US
            peer = self._peer(message.dst)
            if peer.in_flight >= int(peer.cwnd):
                self._enqueue(peer, message.dst, seq, pending)
                return True
            self._admit(peer)
            message.attempt = 1
            pending.send_times[1] = self.sim.now
        pending.first_sent_at = self.sim.now
        self.network.send(message)
        self._arm_timer(message.dst, seq, pending)
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

    def _enqueue(self, peer: _PeerState, dst: int, seq: int, pending: _Pending) -> None:
        """Defer a transmission until the AIMD window opens (adaptive)."""
        prio = min(pending.message.priority, PRIORITY_NOTICE)
        peer.queues[prio].append((dst, seq))
        peer.queued.add((dst, seq))
        self.extremes.observe_backlog(len(peer.queued))
        self.stats.paced += 1
        self.node.events.messages_paced += 1
        self.network.stats.record_paced(pending.message)
        if self.sim.profile_on:
            self.sim.profile.count(self.node.node_id, "transport_paced")
        if self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now,
                "transport",
                "transport_paced",
                self.node.node_id,
                dst=dst,
                seq=seq,
                priority=pending.message.priority,
                kind=pending.message.kind.value,
            )

    def _dequeue(self, peer: _PeerState) -> Optional[tuple[int, int]]:
        for queue in peer.queues:
            while queue:
                key = queue.popleft()
                if key in peer.queued:
                    peer.queued.discard(key)
                    return key
        return None

    def _drain(self, dst: int, peer: _PeerState) -> None:
        """Transmit paced messages while the window has room (adaptive)."""
        while peer.in_flight < int(peer.cwnd):
            key = self._dequeue(peer)
            if key is None:
                return
            pending = self._pending.get(key)
            if pending is None:
                continue
            self._admit(peer)
            message = pending.message
            if message.sent_at >= 0:
                # A revived re-flight that queued: each wire copy owns
                # its timestamps, and Karn's rule already excludes it
                # from sampling (first_sent_at stays -1).
                message = message.clone()
                self.stats.retransmissions += 1
                self.node.events.retransmissions += 1
                self.network.stats.record_retransmit(message)
            else:
                pending.first_sent_at = self.sim.now
            message.attempt = pending.attempts
            pending.send_times[pending.attempts] = self.sim.now
            # The give-up clock starts at transmission, not at enqueue:
            # a message that sat out an outage in the pacing queue gets
            # its full deadline on the wire, instead of parking on its
            # first timeout after the fabric already healed.
            pending.deadline_at = self.sim.now + GIVE_UP_US
            self.network.send(message)
            self._arm_timer(key[0], key[1], pending)

    def _jitter_rng(self, dst: int) -> np.random.Generator:
        rng = self._jitter_rngs.get(dst)
        if rng is None:
            rng = self._rng_source
            if not isinstance(rng, np.random.Generator):
                rng = rng.stream(f"transport[{self.node.node_id}->{dst}]")
            self._jitter_rngs[dst] = rng
        return rng

    def _timeout_us(self, dst: int, attempts: int) -> float:
        if self._adaptive:
            # The peer RTO alone — every timeout already multiplies it
            # by ``BACKOFF`` (Karn retention in :meth:`_on_timeout`), so
            # stacking an attempts exponent on top would back off
            # *doubly*: the ladder would blow past the give-up deadline
            # during an outage the singly-backed-off ladder (capped at
            # ``MAX_RTO_US``) rides out and delivers through.
            base = min(MAX_RTO_US, self._peer(dst).rto)
        else:
            base = TIMEOUT_US * BACKOFF ** (attempts - 1)
        jitter = 1.0 + JITTER_FRAC * float(self._jitter_rng(dst).random())
        return base * jitter

    def _arm_timer(self, dst: int, seq: int, pending: _Pending) -> None:
        self._timer_serial += 1
        pending.epoch = self._timer_serial
        self.sim.schedule(
            self._timeout_us(dst, pending.attempts), self._on_timeout, dst, seq, pending.epoch
        )

    def _give_up_due(self, pending: _Pending) -> bool:
        if self._adaptive and pending.deadline_at >= 0:
            return self.sim.now >= pending.deadline_at
        return pending.attempts > MAX_RETRIES

    def _on_timeout(self, dst: int, seq: int, epoch: int) -> None:
        pending = self._pending.get((dst, seq))
        if pending is None or pending.epoch != epoch:
            return  # acked (or resent) in the meantime
        self.stats.timeouts += 1
        self.node.events.transport_timeouts += 1
        self._mark(
            "transport_timeout",
            dst=dst,
            seq=seq,
            attempts=pending.attempts,
            kind=pending.message.kind.value,
            msg=f"m{pending.message.msg_id}",
        )
        if self._give_up_due(pending):
            # Give up gracefully: the message is parked, the give-up is
            # recorded, and the peer is reported as suspect.  Raising
            # here would unwind the whole simulation out of a timer
            # callback; a dead peer is a liveness problem for the
            # failure detector (or the deadlock watchdog), not a crash.
            # If the peer turns out to be partitioned rather than dead,
            # revive() puts the parked message back in flight.
            del self._pending[(dst, seq)]
            self._parked[(dst, seq)] = pending
            message = pending.message
            kind = message.kind.value
            self.stats.retries_exhausted[kind] = self.stats.retries_exhausted.get(kind, 0) + 1
            self.node.events.retries_exhausted += 1
            if self.sim.profile_on:
                pf = self.sim.profile
                # Named counters so chaos runs surface give-ups in the
                # compare CLI, per kind and in total.
                pf.count(self.node.node_id, "transport_retries_exhausted")
                pf.count(self.node.node_id, f"transport_retries_exhausted:{kind}")
            self._mark("retries_exhausted", dst=dst, seq=seq, attempts=pending.attempts, kind=kind)
            if self._adaptive:
                peer = self._peer(dst)
                peer.in_flight = max(0, peer.in_flight - 1)
                # A give-up must never leave a fenced-in pacing backlog
                # behind: the freed window slot re-flights the queue.
                self._drain(dst, peer)
                # Self-healing probe: a partition can heal before any
                # fence (so no rejoin ever revives this message).  The
                # probe re-flights it if the peer still looks alive;
                # crashed/fenced peers are left to rollback/rejoin.
                self.sim.schedule(PARK_PROBE_US, self._probe_parked, dst, seq)
            if self.on_give_up is not None:
                self.on_give_up(dst, message)
            return
        if self._adaptive:
            peer = self._peer(dst)
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
            self._mark("cwnd_halved", dst=dst, cwnd=round(peer.cwnd, 3))
        pending.attempts += 1
        self._resend(dst, seq, pending, "rexmit")

    def _resend(self, dst: int, seq: int, pending: _Pending, name: str) -> None:
        """Re-arm the timer, then spawn a ``name`` process that sends a copy.

        The timer goes first: a retransmission stuck behind a busy CPU
        must still be covered by a live timer.
        """
        self._arm_timer(dst, seq, pending)
        spawn(
            self.sim,
            self._retransmit(dst, seq),
            name=f"{name}[{self.node.node_id}]",
            group=f"node{self.node.node_id}",
        )

    def _retransmit(self, dst: int, seq: int) -> Generator:
        pending = self._pending.get((dst, seq))
        if pending is None:
            return
        yield from self.node.occupy(
            self.node.costs.msg_send_cpu, Category.DSM, priority=_HANDLER_PRIORITY
        )
        if (dst, seq) not in self._pending:
            return  # acked while waiting for the CPU
        self.stats.retransmissions += 1
        self.node.events.retransmissions += 1
        pf = self.sim.profile
        if pf.enabled and pending.first_sent_at >= 0:
            pf.observe(
                self.node.node_id, "retransmit_delay_us", self.sim.now - pending.first_sent_at
            )
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
        if (dst, seq) not in self._parked:
            return
        if self.network.is_down(dst) or self.network.is_fenced(dst):
            return
        self.stats.park_probes += 1
        self._mark("park_probe", dst=dst, seq=seq)
        self._revive_keys(dst, [(dst, seq)])

    def _on_peer_evidence(self, src: int) -> None:
        """Adaptive fast re-flight: an arrival from ``src`` proves the
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
        if not self._adaptive:
            return
        if self.network.is_down(src) or self.network.is_fenced(src):
            return  # revival of those belongs to rollback/rejoin
        parked = sorted(key for key in self._parked if key[0] == src)
        if parked:
            self.stats.park_probes += len(parked)
            self._revive_keys(src, parked)
        peer = self._peers.get(src)
        if peer is None:
            return
        est = self._estimator_rto(peer)
        if peer.rto <= est:
            return  # no retained backoff to cut
        for key in sorted(self._pending):
            if key[0] != src:
                continue
            pending = self._pending[key]
            if key in peer.queued:
                continue  # pacing-queued, not on the wire
            last = max(pending.send_times.values(), default=pending.first_sent_at)
            if last < 0 or self.sim.now - last < est:
                continue
            self.stats.fast_reflights += 1
            pending.attempts += 1
            self._resend(src, key[1], pending, "reflight")

    def _revive_keys(self, dst: int, keys: list[tuple[int, int]]) -> int:
        """Re-flight parked messages (shared by revive and the probe)."""
        for key in keys:
            pending = self._parked.pop(key)
            pending.attempts = 1
            self._pending[key] = pending
            if self._adaptive:
                # A fresh give-up deadline and a clean attempt ledger:
                # the revived flight re-numbers from attempt 1, and any
                # straggler ack of a pre-park copy must not be allowed
                # to match a stale send time.
                pending.first_sent_at = -1.0
                pending.send_times.clear()
                pending.halved = 0
                pending.deadline_at = self.sim.now + GIVE_UP_US
                peer = self._peer(dst)
                if peer.in_flight >= int(peer.cwnd):
                    self._enqueue(peer, dst, key[1], pending)
                    continue
                self._admit(peer)
            self._resend(dst, key[1], pending, "revive")
        return len(keys)

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
        keys = sorted(key for key in self._parked if key[0] == dst)
        revived = self._revive_keys(dst, keys)
        self.stats.revived += revived
        return revived

    def revive_all(self) -> int:
        """Revive every parked message (the parking node itself rejoined:
        all its give-ups happened while it was cut off)."""
        total = 0
        for dst in sorted({key[0] for key in self._parked}):
            total += self.revive(dst)
        return total

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
        if self.sim.profile_on:
            pf = self.sim.profile
            pf.observe(self.node.node_id, "transport_rtt_us", sample)
            pf.observe(self.node.node_id, "transport_rto_us", peer.rto)
        if self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now,
                "transport",
                "rto_update",
                self.node.node_id,
                dst=dst,
                sample_us=round(sample, 3),
                srtt_us=round(peer.srtt, 3),
                rttvar_us=round(peer.rttvar, 3),
                rto_us=round(peer.rto, 3),
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
        if not self._adaptive:
            return False
        peer = self._peers.get(dst)
        if peer is None:
            return False
        if peer.queued:
            return True
        return peer.rto >= PRESSURE_RTT_FACTOR * self._estimator_rto(peer)

    def gauges(self) -> dict[str, int]:
        """Messages unacked, waiting in a pacing queue, and parked, now."""
        return {
            "unacked": len(self._pending),
            "backlog": sum(len(p.queued) for p in self._peers.values()),
            "parked": len(self._parked),
        }

    def parked_by_peer(self) -> dict[int, int]:
        """Parked messages per destination, in destination order."""
        return dict(sorted(Counter(dst for dst, _seq in self._parked).items()))

    def peer_gauges(self, dst: int) -> dict:
        """Adaptive estimator and window state toward ``dst``, rounded
        for reports (placeholders before the first send to it)."""
        peer = self._peers.get(dst)
        if peer is None:
            return {
                "srtt_us": -1.0,
                "rttvar_us": 0.0,
                "rto_us": 0.0,
                "cwnd": 0.0,
                "in_flight": 0,
                "queued": 0,
            }
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
        if message.kind is MessageKind.ACK:
            self._on_ack(message)
            self._on_peer_evidence(message.src)
            return False
        # Every arrival — heartbeat, datagram, data — is liveness
        # evidence for its sender (see _on_peer_evidence).
        self._on_peer_evidence(message.src)
        if message.seq < 0:
            return True  # untracked datagram (prefetch traffic)
        window = self._windows.setdefault(message.src, _ReceiveWindow())
        first = window.accept(message.seq, DEDUP_WINDOW)
        if not first:
            self.stats.duplicates_suppressed += 1
            self.node.events.duplicates_suppressed += 1
            self._mark(
                "duplicate_suppressed", src=message.src, seq=message.seq, kind=message.kind.value
            )
        # Ack every arrival, duplicate or not: the duplicate usually
        # means our previous ack was lost.
        yield from self.node.occupy(
            self.node.costs.msg_send_cpu, Category.DSM, priority=_HANDLER_PRIORITY
        )
        self.stats.acks_sent += 1
        self.node.events.acks_sent += 1
        ack_payload: dict = {"seq": message.seq}
        if message.attempt:
            # Echo which wire copy is being acked (adaptive senders
            # stamp it); static-mode acks are byte-identical without.
            ack_payload["attempt"] = message.attempt
        self.network.send(
            Message(
                src=self.node.node_id,
                dst=message.src,
                kind=MessageKind.ACK,
                size_bytes=ACK_BYTES,
                reliable=False,
                payload=ack_payload,
            )
        )
        return first

    def _on_ack(self, message: Message) -> None:
        self.stats.acks_received += 1
        key = (message.src, message.payload["seq"])
        pending = self._pending.pop(key, None)
        # A very late ack can land after the give-up: the peer did
        # receive the message, so the parked copy is obsolete.
        self._parked.pop(key, None)
        if not self._adaptive or pending is None:
            return
        dst = message.src
        peer = self._peer(dst)
        if key in peer.queued:
            # Acked while still pacing-queued: only possible for a
            # revived message whose pre-park transmission was acked
            # very late.  It never consumed a window slot.
            peer.queued.discard(key)
        else:
            peer.in_flight = max(0, peer.in_flight - 1)
            sent = pending.send_times.get(message.payload.get("attempt", 0))
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
                if message.payload["attempt"] < pending.attempts and pending.halved:
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
        self._drain(dst, peer)

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
        """Restore a snapshot and re-arm a timer per unacked message.

        Timer epochs come from ``_timer_serial``, which is *not* rolled
        back: any timer armed before the rollback can never match a
        restored pending.  Adaptive estimator/window state is reset to
        its initial values — it described the discarded execution — and
        every restored pending re-enters the in-flight accounting.
        """
        self._next_seq = dict(state["next_seq"])
        self._windows = {
            src: _ReceiveWindow(
                upto=upto, above=set(above), high=max(above, default=upto)
            )
            for src, (upto, above) in state["windows"].items()
        }
        # Parked messages belong to the discarded execution: the
        # checkpointed pendings below cover everything unacked at the cut.
        self._parked = {}
        self._pending = {}
        self._peers = {}
        for (dst, seq), (message, attempts) in state["pending"].items():
            pending = _Pending(message, attempts=attempts)
            if self._adaptive:
                pending.deadline_at = self.sim.now + GIVE_UP_US
                self._admit(self._peer(dst))
            self._pending[(dst, seq)] = pending
            self._arm_timer(dst, seq, pending)
