"""Heartbeat-based failure detection with partition-tolerant membership.

Node 0 (which already hosts the barrier manager) doubles as the
*coordinator*: every other node sends it a small unreliable heartbeat
datagram each ``HEARTBEAT_PERIOD_US``.  Declaring a node dead is
deliberately a two-step affair, because silence is ambiguous — a
crashed node, a partitioned node, and a stalled node all go quiet:

- **Suspicion** — silence beyond ``SUSPICION_TIMEOUT_US``, or a peer's
  transport exhausting its retries (``on_give_up``), opens a suspicion
  record: who reported it, and when.  Any delivered message from the
  suspect clears the record — evidence of life always wins.
- **Confirmation** — a suspicion only matures once it has aged
  ``SUSPICION_TTL_US`` *and* gathered ``SUSPICION_QUORUM`` distinct
  reporters (the coordinator's own silence observation counts as one).
  A reachable-but-slow node — a long NodeStall, a congested link —
  resumes talking inside the TTL and is never declared dead, where the
  pre-TTL detector would have killed it on the first give-up report.

What maturity triggers is the :class:`~repro.ft.manager.FtManager`'s
call (fencing, then rejoin-or-rollback — see there): the detector only
grades evidence.  Two refinements keep it cheap and fast:

- **Piggybacking** — *any* message delivered to the coordinator counts
  as evidence its sender is alive (hooked via ``Node.message_observer``),
  so heartbeats only fill silences in regular traffic.
- **Quorum awareness** — :meth:`has_quorum` reports whether the
  coordinator currently hears a majority of the cluster; a coordinator
  stranded in a minority partition uses it to stand down instead of
  fencing the (healthy) majority or committing a split-brain cut.

Membership agreement is broadcast: on fencing a node the coordinator
sends every survivor an ``FT_DOWN`` message, rejoin/recovery closes
with an ``FT_UP`` (plus an ``FT_REJOIN`` to the healed node itself).
Each node's view of the membership is tracked per node; the
coordinator's own view is authoritative for rollback decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.network.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ft.manager import FtManager

__all__ = ["FailureDetector", "COORDINATOR", "mark"]

#: The failure-detection coordinator (co-located with the barrier
#: manager, which is why crashing node 0 is rejected).
COORDINATOR = 0

# Detection timings are deliberately aggressive relative to the
# transport's retry budget (first timeout 10 ms, exponential backoff):
# a heartbeat every 5 ms with a 50 ms suspicion timeout detects a crash
# long before any retransmit sequence gives up.  They are read at use
# time, so a test can ``monkeypatch`` one.

#: Period of each node's heartbeat datagram to the coordinator.
HEARTBEAT_PERIOD_US = 5_000.0

#: Silence (no message of any kind — heartbeats piggyback on regular
#: traffic) after which the coordinator opens a suspicion.  It must
#: exceed two heartbeat periods, or every node is permanently suspect.
SUSPICION_TIMEOUT_US = 50_000.0

#: How long a suspicion must age, with the suspect still silent,
#: before it is confirmed.  The grace period that lets a slow or
#: briefly partitioned node talk its way out of a false death.
SUSPICION_TTL_US = 25_000.0

#: Distinct reporters (transport give-ups; the coordinator's own
#: silence observation counts) required to confirm a suspicion.
SUSPICION_QUORUM = 1


def mark(sim, name: str, node: int, **args) -> None:
    """The FT layer's one trace emitter (detector and manager): an
    ``ft`` instant at ``sim.now``.  It holds the tracer's guard, because
    its callers run once per membership change or checkpoint, never per
    message; keyword order is the event's ``args`` order."""
    if sim.trace_on:
        sim.trace.instant(sim.now, "ft", name, node, **args)


@dataclass
class _Suspicion:
    """One open suspicion: when it started and who vouches for it."""

    since: float
    reporters: set[int] = field(default_factory=set)


class FailureDetector:
    """Coordinator-side liveness tracking plus per-node membership views."""

    def __init__(self, ft: "FtManager") -> None:
        self.ft = ft
        self.sim = ft.sim
        self.num_nodes = ft.num_nodes
        #: Effective silence threshold.  Starts at the constant; the
        #: manager raises it to the adaptive transport's give-up
        #: deadline when one is in use — suspicion must key off when
        #: transports actually stop trying, not a fixed retry count
        #: calibrated for the static 10 ms timeout ladder.
        self.silence_timeout_us = SUSPICION_TIMEOUT_US
        #: Last time the coordinator heard *anything* from each node.
        self.last_heard: dict[int, float] = {
            n: 0.0 for n in range(self.num_nodes) if n != COORDINATOR
        }
        #: Open suspicions (cleared by any evidence of life).
        self.suspects: dict[int, _Suspicion] = {}
        #: Nodes the coordinator has removed from the membership
        #: (fenced suspects and crashed nodes awaiting rollback).
        self.down: set[int] = set()
        #: Per-node membership views, updated by FT_DOWN/FT_UP delivery.
        self.views: dict[int, set[int]] = {n: set() for n in range(self.num_nodes)}
        # statistics
        self.heartbeats_sent = 0
        self.suspicions = 0
        self.suspicions_cleared = 0

    # -- evidence sources -------------------------------------------------

    def observe(self, dst_node: int, message: Message) -> None:
        """``Node.message_observer`` hook: delivered traffic is liveness."""
        if dst_node == COORDINATOR and message.src != COORDINATOR:
            self.last_heard[message.src] = self.sim.now
            if message.src in self.suspects:
                # Evidence of life always wins: the suspect spoke.
                del self.suspects[message.src]
                self.suspicions_cleared += 1
                mark(
                    self.sim,
                    "suspicion_cleared",
                    COORDINATOR,
                    suspect=message.src,
                    kind=message.kind.value,
                )

    def on_give_up(self, reporter: int, dst: int, message: Message) -> None:
        """A transport exhausted its retries against ``dst``.

        One reporter's give-up is a *vote*, not a verdict: the suspicion
        still has to age ``SUSPICION_TTL_US`` and reach
        ``SUSPICION_QUORUM`` reporters while the suspect stays silent at
        the coordinator.  A slow-but-alive peer clears it by talking.
        """
        if dst == COORDINATOR or dst in self.down:
            return
        self._suspect(dst).reporters.add(reporter)
        mark(self.sim, "suspicion_reported", reporter, suspect=dst, kind=message.kind.value)

    def _suspect(self, node: int) -> _Suspicion:
        suspicion = self.suspects.get(node)
        if suspicion is None:
            suspicion = _Suspicion(since=self.sim.now)
            self.suspects[node] = suspicion
            self.suspicions += 1
            mark(self.sim, "suspicion_opened", COORDINATOR, suspect=node)
        return suspicion

    def has_quorum(self) -> bool:
        """Does the coordinator hear a majority of the current membership?

        Counts the peers heard within the suspicion timeout, plus
        itself, against the membership with confirmed-down nodes
        removed.  The denominator may only shrink through
        :meth:`mark_dead`, and every fence/recovery is itself gated on
        this check *first* — so a coordinator on the minority side of a
        partition can never fence the silent majority to vote itself a
        quorum: it loses the check before any membership change and
        stands down until the fabric heals.  Sequential failures, on the
        other hand, shrink the membership one confirmed step at a time
        and keep the surviving majority live.
        """
        now = self.sim.now
        members = [node for node in self.last_heard if node not in self.down]
        heard = sum(
            1
            for node in members
            if now - self.last_heard[node] <= self.silence_timeout_us
        )
        return (heard + 1) * 2 > len(members) + 1

    # -- coordinator processes --------------------------------------------

    def heartbeat_loop(self, node_id: int):
        """One node's heartbeat sender (cancelled when the node crashes)."""
        network = self.ft.cluster.network
        while self.ft.active:
            yield self.sim.timeout(HEARTBEAT_PERIOD_US)
            if not self.ft.active:
                return
            self.heartbeats_sent += 1
            network.send(
                Message(
                    src=node_id,
                    dst=COORDINATOR,
                    kind=MessageKind.HEARTBEAT,
                    size_bytes=16,
                )
            )

    def watch_loop(self):
        """The coordinator's suspicion clock (never cancelled)."""
        while self.ft.active:
            yield self.sim.timeout(HEARTBEAT_PERIOD_US)
            if not self.ft.active:
                return
            yield from self.ft.membership_tick(self._collect_dead())

    def _collect_dead(self) -> list[int]:
        """Mature the suspicion records; return confirmed deaths.

        A node is confirmed dead only when all three hold at once: it is
        silent beyond the suspicion timeout, its suspicion has aged
        ``SUSPICION_TTL_US``, and at least ``SUSPICION_QUORUM`` distinct
        reporters vouch (the coordinator's own silence observation is a
        reporter).
        """
        now = self.sim.now
        dead = []
        for node in range(self.num_nodes):
            if node == COORDINATOR or node in self.down:
                continue
            silent = now - self.last_heard[node] > self.silence_timeout_us
            if not silent:
                continue
            suspicion = self._suspect(node)
            suspicion.reporters.add(COORDINATOR)
            if (
                now - suspicion.since >= SUSPICION_TTL_US
                and len(suspicion.reporters) >= SUSPICION_QUORUM
            ):
                dead.append(node)
        return dead

    # -- state maintenance -------------------------------------------------

    def mark_dead(self, node: int) -> None:
        self.down.add(node)
        self.suspects.pop(node, None)

    def mark_alive(self, node: int) -> None:
        self.down.discard(node)
        self.suspects.pop(node, None)
        if node != COORDINATOR:
            self.last_heard[node] = self.sim.now

    def reset_liveness(self) -> None:
        """Post-rollback: every node just restarted, silence clocks reset."""
        now = self.sim.now
        for node in self.last_heard:
            self.last_heard[node] = now
        self.suspects.clear()

    # -- membership views ---------------------------------------------------

    def handle_membership(self, node_id: int, msg: Message) -> None:
        if msg.kind is MessageKind.FT_DOWN:
            self.views[node_id].add(msg.payload["node"])
        elif msg.kind is MessageKind.FT_UP:
            self.views[node_id].discard(msg.payload["node"])
        elif msg.kind is MessageKind.FT_REJOIN:
            # The healed node adopts the coordinator's membership
            # wholesale: everything it believed during the partition is
            # stale by construction.
            self.views[node_id] = set(msg.payload["down"])
