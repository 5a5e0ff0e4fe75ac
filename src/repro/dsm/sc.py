"""Single-writer sequentially-consistent invalidate backend (``sc``).

The consistency-literature baseline (Golab's CC-vs-DSM separation,
PAPERS.md): a per-page *directory* at a deterministic manager node
(``page_id % num_nodes``) serializes ownership transfers.  A read fault
pulls the whole page from the current owner; a write fault invalidates
every copy cluster-wide before the writer proceeds.  There are **no**
twins, diffs, intervals or vector clocks — writes are globally visible
through ownership, never merged.

Every page starts as a zero-filled replica on every node (demand-zero
SHARED everywhere, owner = manager), matching LRC's "all pages start
valid" model: the first *write* fault pays the broadcast invalidation.

Transaction protocol (manager M, requester R, owner O):

- R sends ``SC_REQ`` to M; M runs one transaction per page at a time
  (FIFO queue behind a busy flag).
- Read: M forwards ``SC_FETCH`` to O; O downgrades to SHARED and sends
  the page to R as ``SC_DATA``; R installs, sends ``SC_DONE`` to M.
- Write: M sends ``SC_INVAL`` to every copy holder except R (O instead
  gets ``SC_FETCH`` with ``mode="write"`` when R needs data: it serves
  the page, invalidates its own copy, and acks).  When every remote ack
  is in, M sends ``SC_GRANT`` (carrying whether data was served, so R
  knows to wait for it); R installs, flips to EXCLUSIVE, sends
  ``SC_DONE``.
- Directory bookkeeping (owner/copyset) happens when the fetch/grant is
  *issued*, not at ``SC_DONE`` — so the directory is consistent at any
  barrier cut even while a fire-and-forget DONE is still in flight (the
  busy flag alone straddles the cut, and restore clears it; a DONE names
  its grant, so one the transport re-sends after a rollback ends nothing).

Interactions where both ends are the same node (R==M, O==M, M holding a
copy) are local calls — the :class:`~repro.network.message.Message`
model deliberately rejects self-addressed datagrams.

Cost model: a transaction charges the directory ``lock_handler`` per
admission, the owner ``diff_create_us(page, 0)`` to copy the page out,
the requester ``diff_apply_us(page)`` to install it, plus the usual
``fault_handler``/``page_validate`` bracket around the fault — the same
primitives the LRC family charges, so protocol comparisons measure
protocol structure, not accounting conventions.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

import numpy as np

from repro.dsm.backend import CoherenceBackend
from repro.dsm.interval import DiffStore, IntervalManager
from repro.dsm.vclock import VectorClock
from repro.dsm.writenotice import WriteNoticeLog
from repro.errors import ProtocolError
from repro.metrics.counters import Category
from repro.network import Message, MessageKind
from repro.sim import Event, spawn

__all__ = ["ScBackend"]

#: Page access modes.
INVALID = "invalid"
SHARED = "shared"
EXCLUSIVE = "exclusive"


class _ScPage:
    """Requester-side per-page state."""

    __slots__ = ("mode", "fetch_event", "data_event", "data_installed", "pins", "unpin_event")

    def __init__(self) -> None:
        self.mode = SHARED
        #: Shared fault-completion event (request combining).
        self.fetch_event: Optional[Event] = None
        #: Arrival event for an expected SC_DATA (one per transaction).
        self.data_event: Optional[Event] = None
        #: Whether the current transaction's data has been installed.
        self.data_installed = False
        #: Anti-starvation hold (see ``ScBackend._unpinned``): nonzero
        #: between a completed write fault and the faulting store.
        self.pins = 0
        #: Fired when ``pins`` drops to zero (parked serves re-check).
        self.unpin_event: Optional[Event] = None


class _Directory:
    """Manager-side per-page directory entry."""

    __slots__ = (
        "owner", "copyset", "busy", "queue", "grant", "done_event", "acks_pending", "ack_event"
    )

    def __init__(self, owner: int, num_nodes: int) -> None:
        self.owner = owner
        self.copyset = set(range(num_nodes))
        self.busy = False
        self.queue: deque = deque()
        self.grant: Optional[Event] = None
        self.done_event: Optional[Event] = None
        self.acks_pending = 0
        self.ack_event: Optional[Event] = None


class ScBackend(CoherenceBackend):
    """Directory-based single-writer invalidate protocol."""

    name = "sc"
    supports_diff_prefetch = False
    fault_name = "scfetch"

    def __init__(self, host) -> None:
        super().__init__(host)
        # Inert LRC-shaped state: the lock/barrier subsystems piggyback
        # vector-clock snapshots and write-notice sets on their messages
        # for every protocol.  Under SC the clock never advances and the
        # log stays empty, so those payloads are all-zeros/empty with
        # identical message sizes and no per-protocol branches.
        self.vc = VectorClock(self.num_nodes, owner=self.node_id)
        self.intervals = IntervalManager(owner=self.node_id)
        self.wn_log = WriteNoticeLog(self.num_nodes, host.records)
        self.diff_store = DiffStore()
        self._pages: dict[int, _ScPage] = {}
        #: Directory entries for pages this node manages (lazy).
        self._directory: dict[int, _Directory] = {}

    # -- topology ----------------------------------------------------------

    def manager_of(self, page_id: int) -> int:
        return page_id % self.num_nodes

    def _page(self, page_id: int) -> _ScPage:
        state = self._pages.get(page_id)
        if state is None:
            state = _ScPage()
            self._pages[page_id] = state
        return state

    def _dir(self, page_id: int) -> _Directory:
        if self.manager_of(page_id) != self.node_id:
            raise ProtocolError(
                f"node {self.node_id} is not the manager of page {page_id}"
            )
        entry = self._directory.get(page_id)
        if entry is None:
            entry = _Directory(owner=self.node_id, num_nodes=self.num_nodes)
            self._directory[page_id] = entry
        return entry

    # -- scheduler-facing surface ------------------------------------------

    def coherence(self, page_id: int):
        # The LRC PageCoherence record does not exist under SC; the few
        # callers that reach for it are LRC-only paths.
        raise ProtocolError("sc backend has no PageCoherence records")

    def page_valid(self, page_id: int) -> bool:
        return self._page(page_id).mode != INVALID

    def page_writable(self, page_id: int) -> bool:
        return self._page(page_id).mode == EXCLUSIVE

    def op_write_touch(self, page_id: int) -> Generator:
        """Release the write fault's anti-starvation pin.

        The scheduler touches every page of a write op after the ensure
        pass and immediately before the no-yield check-and-store, so
        "the touch ran" means "the faulting store is about to land".
        The release is *scheduled* rather than immediate: firing the
        unpin event synchronously would let a parked invalidation strip
        the page before the store, which is the exact race the pin
        exists to close.  ``schedule(0)`` runs after the current
        synchronous chain — i.e. after the store — at the same instant.
        """
        state = self._page(page_id)
        if state.pins:
            self.sim.schedule(0.0, self._release_pin, page_id)
        return
        yield  # pragma: no cover

    def _release_pin(self, page_id: int) -> None:
        state = self._page(page_id)
        if state.pins:
            state.pins -= 1
            if state.pins == 0 and state.unpin_event is not None:
                event, state.unpin_event = state.unpin_event, None
                event.succeed(None)

    def _unpinned(self, page_id: int) -> Generator:
        """Park until the page's write-fault pin (if any) is released.

        Without the pin, a hot page livelocks under multithreading: the
        scheduler may run other threads between a write fault completing
        and the faulting thread's store, and in that window the next
        queued transaction steals the page — the store never lands, the
        thread re-faults, repeat.  Real SC implementations hold the page
        at the faulting processor until the faulting access completes
        (Li & Hudak's IVY); the pin is that hold.  Deadlock-free: the
        scheduler ensures a write's pages in ascending address order,
        so a pin holder only ever waits on pages *above* everything it
        has pinned, and a cyclic wait would need a descending step.
        """
        state = self._page(page_id)
        while state.pins:
            if state.unpin_event is None:
                state.unpin_event = Event(
                    self.sim, name=f"scunpin(p{page_id})@{self.node_id}"
                )
            yield state.unpin_event

    @staticmethod
    def _usable(state: _ScPage, mode: str) -> bool:
        return state.mode == EXCLUSIVE or (mode == "read" and state.mode != INVALID)

    def ensure_valid(self, page_id: int, for_write: bool = False) -> Optional[Event]:
        state = self._page(page_id)
        mode = "write" if for_write else "read"
        if self._usable(state, mode):
            return None
        # A combined read fault may complete with SHARED while a writer
        # needs EXCLUSIVE: the waiter re-checks on wake and re-issues
        # (scheduler guard loop).
        return self.start_fault(page_id, state, mode)

    # -- requester side ----------------------------------------------------

    def service_fault(self, page_id: int, done: Event, mode: str) -> Generator:
        """One ownership transaction per iteration."""
        tr = self.sim.trace
        state = self._page(page_id)
        guard = 0
        while not self._usable(state, mode):
            guard += 1
            if guard > 64:
                raise ProtocolError(f"sc acquire of page {page_id} cannot converge")
            request_id = self.new_request_id()
            state.data_event = Event(self.sim, name=f"scdata(p{page_id})@{self.node_id}")
            state.data_installed = False
            grant = Event(self.sim, name=f"scgrant(p{page_id})@{self.node_id}")
            manager = self.manager_of(page_id)
            if tr.enabled:
                txn = ("protocol", "sc_txn", self.node_id, f"n{self.node_id}:sr{request_id}")
                tr.async_begin(self.sim.now, *txn, page=page_id, mode=mode)
            if manager == self.node_id:
                # Local directory: admit the request in a separate
                # process — the transaction waits for data/acks that
                # this very process must consume.
                self._admit(page_id, self.node_id, mode, grant)
            else:
                # Table-1 accounting: the scheduler classifies the stall
                # as a remote miss (vs a locally-satisfied fault) off this.
                done.needed_remote = True
                yield from self.post(
                    manager,
                    MessageKind.SC_REQ,
                    24,
                    {"page_id": page_id, "mode": mode, "requester": self.node_id, "grant": grant},
                    "request",
                    page=page_id,
                    request_id=request_id,
                )
            # The grant closes the transaction from the requester's
            # side: for reads it is sent with the fetch (completion is
            # data arrival), for writes after every invalidation acked.
            result = yield grant
            if result and result.get("data_sent") and not state.data_installed:
                yield from self._await_data(state)
            if mode == "write":
                state.mode = EXCLUSIVE
            elif state.mode == INVALID:
                state.mode = SHARED
            if tr.enabled:
                tr.async_end(self.sim.now, *txn)
            # Fire-and-forget completion notice releases the directory.
            if manager == self.node_id:
                self._txn_done(page_id, grant)
            else:
                yield from self.post(
                    manager,
                    MessageKind.SC_DONE,
                    16,
                    {"page_id": page_id, "grant": grant},
                    "done",
                    page=page_id,
                    request_id=request_id,
                )
        if mode == "write":
            # Hold the page until the faulting store lands — released
            # by op_write_touch (see _unpinned for why this must exist).
            state.pins += 1

    def _await_data(self, state: _ScPage) -> Generator:
        event = state.data_event
        if event is not None and not event.triggered:
            yield event

    def _install_data(self, page_id: int, data: np.ndarray) -> Generator:
        """Copy served page contents in and charge the install cost."""
        state = self._page(page_id)
        state.data_installed = True
        yield from self.copy_page_in(page_id, data)
        if state.data_event is not None:
            state.data_event.succeed(None)

    def _invalidate_local(self, page_id: int) -> None:
        state = self._page(page_id)
        if state.mode == INVALID:
            return
        state.mode = INVALID
        if self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now, "protocol", "sc_invalidate", self.node_id, page=page_id
            )
        if self.prefetch is not None:
            self.prefetch.on_invalidation(page_id)

    # -- owner side --------------------------------------------------------

    def _serve_fetch(self, page_id: int, requester: int, mode: str) -> Generator:
        """Copy the page out to the requester.

        Serving a read *downgrades* the owner to SHARED: a later local
        store must re-fault and invalidate the new reader, or the
        reader's copy would silently go stale.  Serving a write
        self-invalidates instead — the new writer must hold the only
        copy.
        """
        yield from self._unpinned(page_id)
        # The transition happens synchronously, BEFORE the copy-out cost
        # elapses: a local store racing the serve must fault and queue
        # its own transaction, not slip into (or past) the copy while
        # the data is on the wire.
        if mode == "write":
            self._invalidate_local(page_id)
        else:
            state = self._page(page_id)
            if state.mode == EXCLUSIVE:
                state.mode = SHARED
        data = yield from self.copy_page_out(page_id, self.node.pages.page(page_id))
        yield from self.post(
            requester,
            MessageKind.SC_DATA,
            24 + len(data),
            {"page_id": page_id, "data": data},
            "data",
            page=page_id,
        )

    # -- manager side ------------------------------------------------------

    def _admit(self, page_id: int, requester: int, mode: str, grant: Event) -> None:
        """Queue a transaction; start the pump if the page is idle."""
        entry = self._dir(page_id)
        entry.queue.append((requester, mode, grant))
        if not entry.busy:
            entry.busy = True
            spawn(
                self.sim,
                self._run_transactions(page_id),
                name=f"scdir[{self.node_id}]",
                group=f"node{self.node_id}",
            )

    def _run_transactions(self, page_id: int) -> Generator:
        """The per-page directory pump: one transaction at a time."""
        entry = self._dir(page_id)
        costs = self.node.costs
        while entry.queue:
            requester, mode, grant = entry.queue.popleft()
            # Armed BEFORE the grant can fire: a local requester resumes
            # synchronously inside grant.succeed and reports completion
            # before this generator runs again.
            entry.grant = grant
            entry.done_event = Event(self.sim, name=f"scdone(p{page_id})@{self.node_id}")
            yield from self.node.occupy(costs.lock_handler, Category.DSM)
            if mode == "read":
                yield from self._txn_read(entry, page_id, requester, grant)
            else:
                yield from self._txn_write(entry, page_id, requester, grant)
            # Wait for the requester's completion notice before
            # admitting the next transaction (serialization).
            yield entry.done_event
        entry.busy = False

    def _txn_read(
        self, entry: _Directory, page_id: int, requester: int, grant: Event
    ) -> Generator:
        owner = entry.owner
        if requester in entry.copyset:
            # The copy re-appeared before the queued transaction ran
            # (e.g. a combined fault already completed): nothing to do.
            grant.succeed({"data_sent": False})
            return
        if owner == self.node_id:
            yield from self._serve_fetch(page_id, requester, "read")
        else:
            yield from self._post_fetch(owner, page_id, requester, "read")
        # Bookkeeping at issue time (not at DONE): the directory is
        # consistent at any barrier cut — see the module docstring.
        entry.copyset.add(requester)
        grant.succeed({"data_sent": True})

    def _txn_write(
        self, entry: _Directory, page_id: int, requester: int, grant: Event
    ) -> Generator:
        owner = entry.owner
        need_data = requester not in entry.copyset
        targets = sorted(entry.copyset - {requester})
        entry.acks_pending = 0
        entry.ack_event = None
        for target in targets:
            serve = need_data and target == owner
            if target == self.node_id:
                # Manager-resident copy: handled inline, no messages.
                if serve:
                    yield from self._serve_fetch(page_id, requester, "write")
                else:
                    yield from self._unpinned(page_id)
                    self._invalidate_local(page_id)
                continue
            entry.acks_pending += 1
            if serve:
                yield from self._post_fetch(target, page_id, requester, "write")
            else:
                inval = {"page_id": page_id}
                yield from self.post(
                    target, MessageKind.SC_INVAL, 16, inval, "invalidate", page=page_id
                )
        if entry.acks_pending:
            entry.ack_event = Event(self.sim, name=f"scacks(p{page_id})@{self.node_id}")
            yield entry.ack_event
            entry.ack_event = None
        entry.owner = requester
        entry.copyset = {requester}
        data_sent = need_data
        if requester == self.node_id:
            grant.succeed({"data_sent": data_sent})
        else:
            yield from self.post(
                requester,
                MessageKind.SC_GRANT,
                16,
                {"page_id": page_id, "grant": grant, "data_sent": data_sent},
                "grant",
                page=page_id,
            )

    def _post_fetch(self, owner: int, page_id: int, requester: int, mode: str):
        """Have the (remote) owner serve the page to the requester."""
        payload = {"page_id": page_id, "requester": requester, "mode": mode}
        return self.post(owner, MessageKind.SC_FETCH, 24, payload, "fetch", page=page_id)

    def _txn_done(self, page_id: int, grant: Event) -> None:
        entry = self._dir(page_id)
        if entry.grant is grant and not entry.done_event.triggered:
            entry.done_event.succeed(None)

    # -- consistency actions -----------------------------------------------

    def close_interval_charged(self) -> Generator:
        """Releases are free: every write was globally ordered when its
        fault completed — there is nothing to publish."""
        return
        yield  # pragma: no cover

    def apply_notices_charged(self, records: list, advance_vc: bool = True) -> Generator:
        if records:
            raise ProtocolError(
                f"sc backend received {len(records)} interval records; "
                "the inert log should never produce any"
            )
        return
        yield  # pragma: no cover

    # -- message handlers --------------------------------------------------

    def handle_req(self, msg: Message) -> None:
        payload = msg.payload
        self._admit(payload["page_id"], payload["requester"], payload["mode"], payload["grant"])

    def handle_fetch(self, msg: Message) -> Generator:
        payload = msg.payload
        yield from self._serve_fetch(payload["page_id"], payload["requester"], payload["mode"])
        if payload["mode"] == "write":
            yield from self._send_inval_ack(msg)

    def handle_data(self, msg: Message) -> Generator:
        return self._install_data(msg.payload["page_id"], msg.payload["data"])

    def handle_inval(self, msg: Message) -> Generator:
        yield from self._unpinned(msg.payload["page_id"])
        self._invalidate_local(msg.payload["page_id"])
        yield from self.node.occupy(self.node.costs.write_notice_apply, Category.DSM)
        yield from self._send_inval_ack(msg)

    def _send_inval_ack(self, msg: Message) -> Generator:
        """Tell the manager our copy of the page it named is gone."""
        return self.post(
            msg.src,
            MessageKind.SC_INVAL_ACK,
            16,
            {"page_id": msg.payload["page_id"]},
            answering=msg,
        )

    def handle_inval_ack(self, msg: Message) -> None:
        entry = self._dir(msg.payload["page_id"])
        entry.acks_pending -= 1
        if entry.acks_pending == 0 and entry.ack_event is not None:
            entry.ack_event.succeed(None)

    def handle_grant(self, msg: Message) -> None:
        msg.payload["grant"].succeed({"data_sent": msg.payload["data_sent"]})

    def handle_done(self, msg: Message) -> None:
        self._txn_done(msg.payload["page_id"], msg.payload["grant"])

    handlers = {
        MessageKind.SC_REQ: handle_req,
        MessageKind.SC_FETCH: handle_fetch,
        MessageKind.SC_DATA: handle_data,
        MessageKind.SC_INVAL: handle_inval,
        MessageKind.SC_INVAL_ACK: handle_inval_ack,
        MessageKind.SC_GRANT: handle_grant,
        MessageKind.SC_DONE: handle_done,
    }

    # -- checkpoint / recovery ---------------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copy SC state at a barrier cut.

        All threads are blocked at the barrier, so no transaction is
        *queued* or mid-flight anywhere — at most a fire-and-forget
        SC_DONE is still on the wire, which the issue-time directory
        bookkeeping already accounts for (busy is deliberately not
        snapshotted; restore clears it, and the DONE the transport
        re-sends names a grant no restored transaction holds).
        """
        for entry in self._directory.values():
            if entry.queue:
                raise ProtocolError("sc directory has queued transactions at a cut")
        for pid, state in self._pages.items():
            if state.pins:
                # Impossible at a barrier cut: a pin means a local thread
                # is mid-write, hence not at the barrier.
                raise ProtocolError(f"sc page {pid} is pinned at a cut")
        return {
            # Inert, but present: the FT manager reports rollback
            # vector clocks for every protocol.
            "vc": self.vc.snapshot(),
            "page_modes": {pid: state.mode for pid, state in self._pages.items()},
            "directory": {
                pid: {"owner": entry.owner, "copyset": sorted(entry.copyset)}
                for pid, entry in self._directory.items()
            },
        }

    def restore_state(self, snap: dict) -> None:
        self.vc.restore(snap["vc"])
        self._pages = {}
        for pid, mode in snap["page_modes"].items():
            state = _ScPage()
            state.mode = mode
            self._pages[pid] = state
        self._directory = {}
        for pid, entry_snap in snap["directory"].items():
            entry = _Directory(owner=entry_snap["owner"], num_nodes=self.num_nodes)
            entry.copyset = set(entry_snap["copyset"])
            self._directory[pid] = entry

    # -- verification --------------------------------------------------------

    def global_page(self, runtime, page_id: int) -> np.ndarray:
        """The owner's copy is authoritative under single-writer."""
        manager = runtime.dsm_nodes[self.manager_of(page_id)]
        entry = manager.backend._directory.get(page_id)
        owner = entry.owner if entry is not None else self.manager_of(page_id)
        return runtime.dsm_nodes[owner].node.pages.page(page_id).copy()
