"""Distributed locks with lazy release consistency.

TreadMarks assigns each lock a static *manager* (``lock_id % N``); a
request goes to the manager, which forwards it to the last requester,
building a distributed FIFO queue.  The grant message carries the write
notices the acquirer has not yet seen — this is the moment consistency
information propagates.

Multithreading adds *request combining* (Section 4.1): if the token is
on this node (or already requested), additional local threads queue
locally, and on release the lock is handed between local threads at
user-level cost, without any messages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.dsm.writenotice import wire_bytes
from repro.errors import ProtocolError
from repro.network import Message, MessageKind
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dsm.protocol import DsmNode

__all__ = ["LockState", "LockSubsystem"]


@dataclass
class LockState:
    """Per-node view of one lock."""

    lock_id: int
    #: The token (ownership of the lock's queue position) is here.
    has_token: bool = False
    #: A local thread currently holds the lock.
    held: bool = False
    #: Local threads waiting for the lock: (wake event, when it queued).
    local_waiters: deque = field(default_factory=deque)
    #: Remote node to grant to after the local release (at most one:
    #: the distributed queue gives each holder a single successor).
    pending_remote_grant: Optional[int] = None
    pending_remote_vc: Optional[tuple[int, ...]] = None
    #: A LOCK_REQUEST has been sent and the token is on its way.
    request_outstanding: bool = False
    # Manager-side state (meaningful only on the manager node).
    last_requester: Optional[int] = None

    # statistics
    remote_acquires: int = 0
    local_handoffs: int = 0
    #: When the current holder acquired (traced at release; locks are
    #: quiescent at checkpoint cuts, so this never enters a snapshot).
    acquired_at: float = -1.0


class LockSubsystem:
    """All lock behaviour for one node."""

    def __init__(self, dsm: "DsmNode") -> None:
        self.dsm = dsm
        self._locks: dict[int, LockState] = {}

    def state(self, lock_id: int) -> LockState:
        if lock_id < 0:
            raise ProtocolError(f"negative lock id {lock_id}")
        if lock_id not in self._locks:
            state = LockState(lock_id)
            if self.manager_of(lock_id) == self.dsm.node_id:
                # The token is born at the manager, free.
                state.has_token = True
                state.last_requester = self.dsm.node_id
            self._locks[lock_id] = state
        return self._locks[lock_id]

    def manager_of(self, lock_id: int) -> int:
        return lock_id % self.dsm.num_nodes

    # -- thread-facing operations (generators run in thread context) -----

    def op_acquire(self, lock_id: int):
        """Acquire path; returns None (granted now) or an Event to wait on.

        An acquire is also an LRC *acquire* operation, but invalidations
        arrive with the grant message; a locally satisfied acquire needs
        no consistency action (the local memory image is current for
        intervals this node has seen).
        """
        state = self.state(lock_id)
        costs = self.dsm.node.costs
        if state.has_token and not state.held and not state.local_waiters:
            # Claim synchronously (before any yield): a concurrent
            # forward-handler must not observe the token as free and
            # grant it away while we wait for the CPU.
            state.held = True
            state.acquired_at = self.dsm.sim.now
            yield from self.dsm.occupy_dsm(costs.lock_local_handoff)
            if self.dsm.sim.trace_on:
                self.dsm.sim.trace.instant(
                    self.dsm.sim.now,
                    "protocol",
                    "lock_acquire",
                    self.dsm.node_id,
                    lock=lock_id,
                    since=state.acquired_at,
                )
            return None
        # Queue locally; send one request if the token is absent and not
        # already on its way (request combining).  The wait closes
        # wherever this waiter is woken (local handoff or remote grant).
        wake = Event(self.dsm.sim, name=f"lock{lock_id}@{self.dsm.node_id}")
        state.local_waiters.append((wake, self.dsm.sim.now))
        if not state.has_token and not state.request_outstanding:
            state.request_outstanding = True
            if self.dsm.sim.trace_on:
                tr = self.dsm.sim.trace
                # Request->grant round trip; at most one outstanding per
                # (node, lock), so the acquire count disambiguates.
                tr.async_begin(
                    self.dsm.sim.now,
                    "protocol",
                    "lock_wait",
                    self.dsm.node_id,
                    f"n{self.dsm.node_id}:L{lock_id}:{state.remote_acquires}",
                    lock=lock_id,
                )
            manager = self.manager_of(lock_id)
            vc = self.dsm.backend.vc
            if manager == self.dsm.node_id:
                # The manager requests its own lock back: do the queue
                # bookkeeping locally and ask the tail to grant to us.
                yield from self.dsm.occupy_dsm(costs.lock_handler)
                previous = state.last_requester
                state.last_requester = self.dsm.node_id
                if previous == self.dsm.node_id:
                    raise ProtocolError(
                        f"lock {lock_id}: manager is queue tail but has no token"
                    )
                yield from self.dsm.post(
                    previous,
                    MessageKind.LOCK_FORWARD,
                    16 + vc.size_bytes,
                    {"lock_id": lock_id, "requester": self.dsm.node_id, "vc": vc.snapshot()},
                    "request",
                    lock=lock_id,
                )
            else:
                yield from self.dsm.post(
                    manager,
                    MessageKind.LOCK_REQUEST,
                    16 + vc.size_bytes,
                    {"lock_id": lock_id, "vc": vc.snapshot()},
                    "request",
                    lock=lock_id,
                )
        return wake

    def op_release(self, lock_id: int):
        """Release path (generator); never blocks the caller."""
        state = self.state(lock_id)
        if not state.held:
            raise ProtocolError(f"release of unheld lock {lock_id} on node {self.dsm.node_id}")
        costs = self.dsm.node.costs
        if self.dsm.sim.trace_on:
            self.dsm.sim.trace.instant(
                self.dsm.sim.now,
                "protocol",
                "lock_release",
                self.dsm.node_id,
                lock=lock_id,
                since=state.acquired_at,
            )
        # LRC release: close the current interval so the modifications
        # become visible to the next acquirer.
        yield from self.dsm.backend.close_interval_charged()
        if state.local_waiters:
            # Hand off between local threads without any messages.
            yield from self.dsm.occupy_dsm(costs.lock_local_handoff)
            state.local_handoffs += 1
            if self.dsm.sim.trace_on:
                tr = self.dsm.sim.trace
                tr.instant(
                    self.dsm.sim.now,
                    "protocol",
                    "lock_handoff",
                    self.dsm.node_id,
                    lock=lock_id,
                    since=state.local_waiters[0][1],
                )
            self._wake_next(state)  # stays held
            return
        state.held = False
        if state.pending_remote_grant is not None:
            yield from self._send_grant(state)

    # -- message handlers --------------------------------------------------

    def handle_request(self, msg: Message):
        """Manager-side: forward the request to the last requester."""
        lock_id = msg.payload["lock_id"]
        state = self.state(lock_id)
        if self.manager_of(lock_id) != self.dsm.node_id:
            raise ProtocolError(f"node {self.dsm.node_id} is not manager of lock {lock_id}")
        yield from self.dsm.occupy_dsm(self.dsm.node.costs.lock_handler)
        previous = state.last_requester
        state.last_requester = msg.src
        if previous == self.dsm.node_id:
            # Manager is (or was) the tail of the queue: treat as a
            # locally delivered forward.
            yield from self._accept_forward(lock_id, msg.src, msg.payload["vc"])
        else:
            yield from self.dsm.post(
                previous,
                MessageKind.LOCK_FORWARD,
                16 + self.dsm.backend.vc.size_bytes,
                {"lock_id": lock_id, "requester": msg.src, "vc": msg.payload["vc"]},
                "forward",
                lock=lock_id,
                requester=msg.src,
            )

    def handle_forward(self, msg: Message):
        yield from self.dsm.occupy_dsm(self.dsm.node.costs.lock_handler)
        yield from self._accept_forward(
            msg.payload["lock_id"], msg.payload["requester"], msg.payload["vc"]
        )

    def _accept_forward(self, lock_id: int, requester: int, requester_vc: tuple[int, ...]):
        state = self.state(lock_id)
        if state.pending_remote_grant is not None:
            raise ProtocolError(
                f"lock {lock_id}: node {self.dsm.node_id} already has successor "
                f"{state.pending_remote_grant}, got {requester}"
            )
        state.pending_remote_grant = requester
        state.pending_remote_vc = requester_vc
        if state.has_token and not state.held and not state.local_waiters:
            yield from self._send_grant(state)

    def _send_grant(self, state: LockState):
        """Ship the token (and unseen write notices) to the successor."""
        if state.pending_remote_grant is None or state.pending_remote_vc is None:
            raise ProtocolError("no pending grant to send")
        # Claim the token synchronously (before any yield) so a local
        # thread cannot slip in and double-own the lock while the grant
        # is being assembled.
        requester = state.pending_remote_grant
        requester_vc = state.pending_remote_vc
        state.pending_remote_grant = None
        state.pending_remote_vc = None
        state.has_token = False
        # The grant is an LRC release towards the successor: close the
        # interval so every local modification is announced.
        yield from self.dsm.backend.close_interval_charged()
        notices = self.dsm.backend.wn_log.unseen_by(requester_vc)
        # The granting handoff: the label names which node releases the
        # token to which requester, keyed by the grant's correlation id.
        yield from self.dsm.post(
            requester,
            MessageKind.LOCK_GRANT,
            24 + wire_bytes(notices),
            {"lock_id": state.lock_id, "notices": notices},
            "grant",
            lock=state.lock_id,
            requester=requester,
        )

    def handle_grant(self, msg: Message):
        """Requester-side: token arrives with consistency information."""
        lock_id = msg.payload["lock_id"]
        state = self.state(lock_id)
        costs = self.dsm.node.costs
        yield from self.dsm.occupy_dsm(costs.lock_handler)
        yield from self.dsm.backend.apply_notices_charged(msg.payload["notices"])
        if not state.local_waiters:
            # Everyone gave up?  Impossible: requests are only sent when a
            # waiter queued, and waiters never abandon the queue.
            raise ProtocolError(f"lock {lock_id} granted to node with no waiters")
        if self.dsm.sim.trace_on:
            tr = self.dsm.sim.trace
            tr.async_end(
                self.dsm.sim.now,
                "protocol",
                "lock_wait",
                self.dsm.node_id,
                f"n{self.dsm.node_id}:L{lock_id}:{state.remote_acquires}",
                lock=lock_id,
                granted_by=msg.src,
                since=state.local_waiters[0][1],
            )
        state.has_token = True
        state.request_outstanding = False
        state.remote_acquires += 1
        state.held = True
        self._wake_next(state)

    def _wake_next(self, state: LockState) -> None:
        """Wake the next local waiter; it is the lock holder from now."""
        wake, _queued_at = state.local_waiters.popleft()
        state.acquired_at = self.dsm.sim.now
        wake.succeed(None)

    # -- checkpoint / recovery --------------------------------------------

    def snapshot_state(self) -> dict:
        """Lock state at the checkpoint cut (scalars only).

        The cut is a barrier with every thread arrived, so no lock can
        be held, waited on, or mid-handoff; a non-quiescent lock means
        the cut is not consistent and the checkpoint must be refused.
        """
        from repro.errors import CheckpointError

        snap: dict[int, dict] = {}
        for lock_id, state in self._locks.items():
            if state.held or state.local_waiters or state.pending_remote_grant is not None:
                raise CheckpointError(
                    f"lock {lock_id} active at the barrier cut on node {self.dsm.node_id}"
                )
            snap[lock_id] = {
                "has_token": state.has_token,
                "request_outstanding": state.request_outstanding,
                "last_requester": state.last_requester,
                "remote_acquires": state.remote_acquires,
                "local_handoffs": state.local_handoffs,
            }
        return snap

    def restore_state(self, snap: dict) -> None:
        self._locks = {}
        for lock_id, fields in snap.items():
            state = LockState(lock_id)
            state.has_token = fields["has_token"]
            state.request_outstanding = fields["request_outstanding"]
            state.last_requester = fields["last_requester"]
            state.remote_acquires = fields["remote_acquires"]
            state.local_handoffs = fields["local_handoffs"]
            self._locks[lock_id] = state
