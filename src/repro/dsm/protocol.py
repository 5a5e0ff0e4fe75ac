"""The per-node DSM protocol engine.

``DsmNode`` is the protocol *host* for one node: it owns what every
coherence protocol shares — the lock and barrier subsystems, the
prefetch/FT hooks, message posting and dispatch, and the fault counters
— and leaves everything protocol-specific to a
:class:`~repro.dsm.backend.CoherenceBackend` strategy selected by
``RunConfig.protocol`` (``lrc`` / ``hlrc`` / ``sc``).

:class:`LrcBackend`, defined here, is the default: TreadMarks-style
lazy release consistency with vector clocks, intervals, write notices,
twins and diffs.

Design notes (LRC)
------------------
Diffs are created lazily, at request time.  Flushing a dirty page tags
the diff as covering through the *open* interval (``vc.own + 1``): the
write notice for those modifications will carry exactly that index when
the interval closes.  A page re-dirtied after being flushed within the
same interval forces the interval closed first (the paper's
"sub-intervals", Section 3.1), so a diff can never silently cover
modifications announced under a later notice.
"""

from __future__ import annotations

from types import MethodType
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.dsm.backend import CoherenceBackend, make_backend
from repro.dsm.barriers import BarrierSubsystem
from repro.dsm.interval import DiffStore, IntervalManager, StoredDiff
from repro.dsm.locks import LockSubsystem
from repro.dsm.pagestate import PageCoherence
from repro.dsm.vclock import VectorClock
from repro.dsm.writenotice import (
    IntervalRecord, RecordIndex, WriteNoticeLog, indexed, notice_count, wire_bytes,
)
from repro.errors import ProtocolError
from repro.machine.node import Node
from repro.memory import Diff, apply_diff, make_diff
from repro.metrics.counters import Category
from repro.network import Message, MessageKind
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.prefetch.engine import PrefetchEngine

__all__ = ["DsmNode", "LrcBackend"]


class DsmNode:
    """The DSM protocol host for one node."""

    def __init__(
        self, node: Node, num_nodes: int, records: RecordIndex, protocol: str = "lrc"
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.num_nodes = num_nodes
        #: The run's interval records by page, shared by every node.
        self.records = records
        #: optional prefetch engine (installed by the runtime when on).
        self.prefetch: Optional["PrefetchEngine"] = None
        #: optional fault-tolerance manager (installed by the runtime);
        #: receives heartbeat/membership messages and barrier-epoch
        #: checkpoint opportunities.
        self.ft = None
        # statistics (host-owned: monotone across rollbacks, and the
        # fault counter names trace correlation ids).
        self.faults = 0
        self.diff_requests_served = 0
        self.backend: CoherenceBackend = make_backend(protocol, self)
        self.locks = LockSubsystem(self)
        self.barriers = BarrierSubsystem(self)
        #: The routing table: every kind this node can receive (the
        #: prefetch engine adds its two when installed).
        self.routes = {
            MessageKind.LOCK_REQUEST: self.locks.handle_request,
            MessageKind.LOCK_FORWARD: self.locks.handle_forward,
            MessageKind.LOCK_GRANT: self.locks.handle_grant,
            MessageKind.BARRIER_ARRIVE: self.barriers.handle_arrive,
            MessageKind.BARRIER_RELEASE: self.barriers.handle_release,
            MessageKind.HEARTBEAT: self._handle_ft,
            MessageKind.FT_DOWN: self._handle_ft,
            MessageKind.FT_UP: self._handle_ft,
            MessageKind.FT_REJOIN: self._handle_ft,
            # Coherence-protocol kinds (diff/page/invalidate traffic).
            **{kind: MethodType(fn, self.backend) for kind, fn in self.backend.handlers.items()},
        }
        node.set_message_handler(self.dispatch)

    @property
    def protocol(self) -> str:
        return self.backend.name

    # -- the message plane -------------------------------------------------

    def post(
        self,
        dst: int,
        kind: MessageKind,
        size_bytes: int,
        payload: dict,
        role: Optional[str] = None,
        answering: Optional[Message] = None,
        **entity,
    ):
        """The one way a protocol message leaves this node: build it,
        label its causal edge, return ``node.send_message``'s generator.

        Source, backpressure class and tracking (the kind's) are not the
        caller's business; ``role``/``entity`` go to :meth:`label_edge`
        (``None``: no label).  ``answering``: the request this message
        replies to, which its arrival acknowledges (the request's kind is
        in ``ANSWERED``, so the transport sends no ``ACK`` for it).  The
        order is load-bearing: message ids are allocated at
        construction, the label precedes the send charge.
        """
        out = Message(self.node_id, dst, kind, size_bytes, payload)
        if answering is not None:
            out.reply_to, out.echo = answering.seq, answering.attempt
        if role is not None:
            self.label_edge(out, role, **entity)
        return self.node.send_message(out)

    def label_edge(self, message: Message, role: str, **entity) -> None:
        """Attach an entity label to a causal message edge (trace only).

        Emitted at message *construction* (before the send charge) as a
        ``pag_edge`` instant carrying the message's correlation id plus
        the protocol entity it serves (``page=``/``lock=``/``barrier=``).
        The program-activity-graph builder joins these to the network's
        ``msg:*`` async spans by id, so wire edges on the critical path
        are blamed on concrete pages, locks and barriers.  The instant's
        own timestamp is irrelevant — matching is purely by ``msg``.
        """
        if self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now,
                "protocol",
                "pag_edge",
                self.node_id,
                msg=f"m{message.msg_id}",
                role=role,
                **entity,
            )

    # -- dispatch -------------------------------------------------------------------

    def dispatch(self, msg: Message):
        """The handler's generator for an arriving message (the node runs
        it as a process); empty when the handler had nothing to wait for."""
        handler = self.routes.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"unhandled message kind {msg.kind}")
        return handler(msg) or ()

    # The FT manager is installed after construction, hence looked up
    # per message.
    def _handle_ft(self, msg: Message):
        return self.ft.handle_message(self.node_id, msg) if self.ft is not None else None

    # -- checkpoint / recovery ------------------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copy the node's full protocol state at a consistent cut.

        Taken at a barrier cut (all threads cluster-wide blocked at the
        barrier), so no fetch, flush, or coherence transaction can be in
        flight; per-request bookkeeping is therefore not part of the
        snapshot and is simply cleared on restore.  The backend
        contributes the protocol-specific part; the host adds what every
        protocol shares.  No mutable structure is shared with live state.
        """
        snap = self.backend.snapshot_state()
        snap["protocol"] = self.backend.name
        snap["locks"] = self.locks.snapshot_state()
        snap["barriers"] = self.barriers.snapshot_state()
        snap["pages"] = self.node.pages.snapshot_all()
        return snap

    def restore_state(self, snap: dict) -> None:
        """Rewind to a :meth:`snapshot_state` cut (coordinated rollback)."""
        self.backend.restore_state(snap)
        self.locks.restore_state(snap["locks"])
        self.barriers.restore_state(snap["barriers"])
        self.node.pages.restore_all(snap["pages"])
        # Counting stats (faults, requests served) are deliberately NOT
        # rolled back: redone work is real work, and monotone counters
        # keep trace correlation ids unique across the rollback.

    # Convenience alias used by the lock/barrier subsystems.
    def occupy_dsm(self, duration: float):
        return self.node.occupy(duration, Category.DSM)


class LrcBackend(CoherenceBackend):
    """TreadMarks-style lazy release consistency (the default backend)."""

    name = "lrc"
    supports_diff_prefetch = True

    def __init__(self, host: DsmNode) -> None:
        super().__init__(host)
        self.vc = VectorClock(self.num_nodes, owner=self.node_id)
        self.intervals = IntervalManager(owner=self.node_id)
        self.wn_log = WriteNoticeLog(self.num_nodes, host.records)
        self.diff_store = DiffStore()
        self._coherence: dict[int, PageCoherence] = {}
        #: pages flushed during the currently open interval (forces a
        #: sub-interval on re-dirty).
        self._flushed_in_open: set[int] = set()
        #: in-progress flush per page (serializes concurrent handlers).
        self._flush_events: dict[int, Event] = {}

    # -- small helpers -----------------------------------------------------

    def coherence(self, page_id: int) -> PageCoherence:
        """The page's state; the first touch (a fault, write, prefetch or
        serve) builds it from the log.  A logged record has been *applied*
        exactly when the vector clock covers it: the barrier manager's
        merged arrivals lie above it until its own release applies them."""
        state = self._coherence.get(page_id)
        if state is None:
            state = self._coherence[page_id] = PageCoherence(page_id, self.num_nodes)
            for record in self.wn_log.history(page_id).values():
                proc = record.proc
                if proc != self.node_id and record.interval_idx <= self.vc[proc]:
                    state.note_write_notice(proc, record.interval_idx)
        return state

    def page_valid(self, page_id: int) -> bool:
        return self.coherence(page_id).valid

    def page_writable(self, page_id: int) -> bool:
        # Valid + dirty with a live twin that is not write-protected:
        # exactly the store-readiness predicate the scheduler needs.
        state = self.coherence(page_id)
        return state.valid and state.dirty and not state.write_protected

    # -- consistency actions -------------------------------------------------

    def close_interval_charged(self) -> Generator:
        """LRC release: close the open interval if it has modifications;
        returns the pages :meth:`_close_interval` announced, if any."""
        if not self.intervals.has_modifications and not self._flushed_in_open:
            return ()
        yield from self.node.occupy(self.node.costs.interval_close, Category.DSM)
        return self._close_interval()

    def _close_interval(self) -> tuple[int, ...]:
        """Close the open interval; log its record and return the pages it
        names, ascending (none: nothing to close): those currently dirty
        plus those whose diffs were flushed mid-interval."""
        pages = self.intervals.take_dirty() | self._flushed_in_open
        if not pages:
            return ()
        new_idx = self.vc.advance_own()
        self.intervals.lamport += 1
        self._flushed_in_open.clear()
        stamp = self.intervals.lamport
        record = IntervalRecord(self.node_id, new_idx, stamp, tuple(sorted(pages)))
        self.wn_log.merge([indexed(self.host.records, record)])
        self._mark("interval_close", index=new_idx, backlog=self.wn_log.total())
        # TreadMarks write-protects dirty pages at interval creation: a
        # later write to a still-dirty page must announce itself under a
        # NEW write notice, or its modifications would be invisible to
        # any node that already fetched this interval's diff.
        for page_id in pages:
            state = self._coherence.get(page_id)
            if state is not None and state.dirty:
                state.write_protected = True
        return record.pages

    def apply_notices_charged(
        self, records: list[IntervalRecord], advance_vc: bool = True
    ) -> Generator:
        """Merge received records; invalidate the named pages held here.

        ``advance_vc=False`` is for *page-filtered* records (diff
        replies): a vector clock component may only advance when the
        FULL interval has been transferred — a filtered record names one
        page, and the interval may have dirtied several.  Advancing on a
        partial set would make later grants/releases skip the other
        pages' invalidations entirely.
        """
        if records:
            count = notice_count(records)
            cost = self.node.costs.write_notice_apply * count
            yield from self.node.occupy(cost, Category.DSM)
        # Hot loop (104 k records naming 142 k pages per SOR/64 run): log and
        # vector clock are per record, inline, the Lamport clock per batch; a
        # page not held here costs one failed lookup here and one in ``merge``.
        node_id = self.node_id
        clock = self.vc.clock
        lamport = 0
        # A filtered record answers a request about its page, which is
        # thereby held (``coherence`` tracks it if need be); it stays out
        # of the per-proc log (see WriteNoticeLog.merge): it must not be
        # forwarded by grants nor advance any vector clock.
        held = self._coherence.get if advance_vc else self.coherence
        prefetch = self.prefetch
        self.wn_log.merge(records, full=advance_vc, skip_proc=node_id)
        if records and self.sim.trace_on:
            self.sim.trace.instant(
                self.sim.now,
                "protocol",
                "write_notices",
                node_id,
                count=count,
                backlog=self.wn_log.total(),
            )
        for record in records:
            proc = record.proc
            if proc == node_id:
                continue
            interval_idx = record.interval_idx
            if advance_vc and interval_idx > clock[proc]:
                clock[proc] = interval_idx
            if record.lamport > lamport:
                lamport = record.lamport
            for page_id in record.pages:
                state = held(page_id)
                if state is not None:
                    state.note_write_notice(proc, interval_idx)
                    if prefetch is not None:
                        prefetch.on_invalidation(page_id)
        self.intervals.observe_lamport(lamport)

    # -- write path ------------------------------------------------------------

    def op_write_touch(self, page_id: int) -> Generator:
        """Bookkeeping for a store to a (valid) page: twin + dirty bits."""
        state = self.coherence(page_id)
        if not state.valid:
            raise ProtocolError(f"write to invalid page {page_id} on node {self.node_id}")
        if state.dirty:
            if state.write_protected:
                # First write since the last interval close: the mods
                # belong to the open interval and need their own notice.
                # The existing twin still captures them for the diff.
                state.write_protected = False
                self.intervals.record_write(page_id)
                yield from self.node.occupy(self.node.costs.fault_handler, Category.DSM)
            return
        yield from self.node.occupy(self.node.costs.twin_create, Category.DSM)
        state.twin = self.node.pages.snapshot(page_id)
        state.dirty = True
        self._mark("twin_create", page=page_id)
        self.intervals.record_write(page_id)

    # -- fault / fetch path ------------------------------------------------------

    def ensure_valid(self, page_id: int, for_write: bool = False) -> Optional[Event]:
        """``for_write`` is ignored: under LRC any valid page accepts
        stores once :meth:`op_write_touch` has made a twin."""
        state = self.coherence(page_id)
        return None if state.valid else self.start_fault(page_id, state)

    def service_fault(self, page_id: int, done: Event) -> Generator:
        """Gather diffs until the page is valid; true if the prefetch heap gave any."""
        state = self.coherence(page_id)
        consumed_cache = False
        guard = 0
        while not state.valid:
            guard += 1
            if guard > 64:
                raise ProtocolError(f"fetch of page {page_id} cannot converge")
            # Gather everything needed — prefetch-heap contents plus
            # fresh replies from still-stale writers — and apply it all
            # in ONE timestamp-sorted pass.  Applying per-source batches
            # independently would let an older writer's diff clobber a
            # newer conflicting one (violating happened-before-1).
            batch: list[StoredDiff] = []
            covers_updates: dict[int, int] = {}
            if self.prefetch is not None:
                cached = self.prefetch.take_cached(page_id)
                if cached is not None:
                    batch.extend(cached.diffs)
                    covers_updates.update(cached.covers)
                    consumed_cache = True

            # Gather until the writer set is stable: a reply's interval
            # records may reveal further writers — or NEWER intervals of
            # already-queried writers — whose diffs must land in the
            # SAME sorted batch, or a newer conflicting diff would be
            # applied before an older one arriving in a later batch.
            requested: dict[int, int] = {}
            while True:
                writers = [
                    (w, have)
                    for w, have in state.missing_writers(covers_updates)
                    if requested.get(w, -1) < state.needed_upto[w]
                ]
                if not writers:
                    break
                done.needed_remote = True
                if self.prefetch is not None:
                    self.prefetch.classify_remote_fault(page_id)
                replies = []
                for writer, t_have in writers:
                    requested[writer] = state.needed_upto[writer]
                    # The round trip closes in handle_diff_reply.
                    request_id, reply_event = self.open_request(
                        "diffreq", ("diff_rtt", "dr"), page=page_id, writer=writer
                    )
                    replies.append(reply_event)
                    # A faulting thread is stalled on this round trip:
                    # demand class, never shed, paced last.
                    yield from self.post(
                        writer,
                        MessageKind.DIFF_REQUEST,
                        36 + self.vc.size_bytes,
                        {
                            "page_id": page_id,
                            "t_have": t_have,
                            "vc": self.vc.snapshot(),
                            "request_id": request_id,
                        },
                        "request",
                        page=page_id,
                        request_id=request_id,
                    )
                reply_payloads = yield self.sim.all_of(replies)
                for src, diffs, covers in reply_payloads:
                    batch.extend(diffs)
                    if covers > covers_updates.get(src, 0):
                        covers_updates[src] = covers
            if not batch and not covers_updates:
                break
            yield from self.apply_stored_diffs(page_id, batch)
            for writer, covers in covers_updates.items():
                state.note_diffs_applied(writer, covers)
        return consumed_cache

    def apply_stored_diffs(self, page_id: int, stored: list[StoredDiff]) -> Generator:
        """Apply incoming diffs in happened-before (lamport) order."""
        state = self.coherence(page_id)
        page = self.node.pages.page(page_id)
        for item in sorted(stored, key=lambda s: (s.lamport, s.proc)):
            if item.covers_through <= state.applied_upto[item.proc]:
                # Already covered (e.g. a stale prefetch-heap entry);
                # re-applying could revert newer data.
                continue
            cost = self.node.costs.diff_apply_us(item.diff.modified_bytes)
            yield from self.node.occupy(cost, Category.DSM)
            if self.sim.trace_on:
                tr = self.sim.trace
                tr.instant(
                    self.sim.now,
                    "protocol",
                    "diff_apply",
                    self.node_id,
                    page=page_id,
                    writer=item.proc,
                    bytes=item.diff.modified_bytes,
                )
            # Fetch batches interleave arbitrarily (each apply yields for
            # the CPU), so ordering cannot rely on batching alone: the
            # page's stamps keep a later interval's words in place.
            state.apply_diff(page, item.diff, item.lamport)
            state.note_diffs_applied(item.proc, item.covers_through)
            self.intervals.observe_lamport(item.lamport)

    # -- diff server ---------------------------------------------------------------

    def flush_page_if_dirty(self, page_id: int) -> Generator:
        """Create and store a diff for a locally dirty page.

        Flushing *seals* the open interval (the paper's sub-interval
        creation): the diff's coverage index is the interval closed at
        this instant, so later writes land in a fresh interval and are
        announced by their own write notice.  The page becomes clean
        ("write-protected") and loses its twin; a subsequent write makes
        a fresh twin in the new interval.
        """
        while True:
            # Serialize flushes per page: concurrent request handlers
            # must not each create a diff for the same dirty span (the
            # duplicates would carry escalating interval tags and later
            # clobber a reader's own newer writes).
            in_flight = self._flush_events.get(page_id)
            if in_flight is not None and not in_flight.triggered:
                yield in_flight
                continue  # re-check: the page may have been re-dirtied
            state = self.coherence(page_id)
            if not state.dirty:
                return
            break
        if state.twin is None:
            raise ProtocolError(f"dirty page {page_id} with no twin on node {self.node_id}")
        flush_done = Event(self.sim, name=f"flush(p{page_id})@{self.node_id}")
        self._flush_events[page_id] = flush_done
        try:
            # The critical section is fully synchronous (no yields):
            # diff creation, write-protection, interval seal, and store
            # happen atomically, so a local write racing the flush lands
            # cleanly in the *next* interval with a fresh twin.
            diff = self._seal_twin(state)
            self._flushed_in_open.add(page_id)
            self._close_interval()
            self._archive_diff(diff)
            # Service time is charged after the fact; the reply waits.
            cost = self.node.costs.diff_create_us(self.node.pages.page_size, diff.modified_bytes)
            yield from self.node.occupy(cost, Category.DSM)
        finally:
            flush_done.succeed(None)

    def _seal_twin(self, state: PageCoherence) -> Diff:
        """Turn a dirty page's twin into its diff; the page is clean
        after (no yields: see the callers for why that matters)."""
        diff = make_diff(state.page_id, state.twin, self.node.pages.page(state.page_id))
        state.dirty = False
        state.twin = None
        if self.sim.trace_on:
            tr = self.sim.trace
            tr.instant(
                self.sim.now,
                "protocol",
                "diff_create",
                self.node_id,
                page=diff.page_id,
                bytes=diff.modified_bytes,
                # Its encoded size, which the diff store archives.
                size=diff.size_bytes,
            )
        return diff

    def _archive_diff(self, diff: Diff) -> StoredDiff:
        """File a sealed diff as covering through the interval closed last."""
        stored = StoredDiff(
            proc=self.node_id,
            covers_through=self.vc[self.node_id],
            lamport=self.intervals.lamport,
            diff=diff,
        )
        self.diff_store.add(stored)
        return stored

    def reply_notices(
        self, page_id: int, t_have: int, requester_vc: tuple[int, ...]
    ) -> list[IntervalRecord]:
        """The page's records the requester may be missing, cut to it.

        Diff replies must carry the page's consistency history, for two
        reasons: (a) a flush seals a *sub-interval* whose write notice
        would otherwise exist only in our own log; (b) conflicting
        writes are by definition same-page, so shipping the page history
        keeps the happened-before relation transitively closed — a
        receiver can never apply a newer conflicting diff while ignorant
        of an older one.  ``t_have`` bounds our own records; the
        requester's vector clock (piggybacked on the request) bounds
        other writers' records.
        """
        return [
            record.only(page_id)
            for record in self.wn_log.history(page_id).values()
            if record.interval_idx
            > (t_have if record.proc == self.node_id else requester_vc[record.proc])
        ]

    def handle_diff_request(self, msg: Message) -> Generator:
        self.host.diff_requests_served += 1
        self._mark("diff_serve", page=msg.payload["page_id"])
        # The requester's fault is blocked on this reply: demand class,
        # ahead of any notice/prefetch backlog on the link.
        return self.serve_diffs(msg, MessageKind.DIFF_REPLY, "reply")

    def serve_diffs(self, msg: Message, kind: MessageKind, role: str) -> Generator:
        """The diff server: answer ``msg`` with the page's diffs past its
        ``t_have`` and the interval records that go with them.

        One server for demand and prefetch requests, sub-interval
        machinery included: the paper's prefetch (Section 3.1) *is* the
        diff request, its reply an untracked ``PREFETCH_REPLY``.
        """
        page_id = msg.payload["page_id"]
        t_have = msg.payload["t_have"]
        request_id = msg.payload["request_id"]
        yield from self.flush_page_if_dirty(page_id)
        stored = self.diff_store.diffs_after(page_id, t_have)
        # The coverage claim must be PAGE-specific: an empty reply means
        # "nothing newer than my latest flush of THIS page" — claiming
        # the node-wide interval index would mark the requester as
        # having modifications it never received.
        covers = max(
            (s.covers_through for s in stored),
            default=max(t_have, self.diff_store.latest_coverage(page_id)),
        )
        notices = self.reply_notices(page_id, t_have, msg.payload["vc"])
        size = 24 + sum(s.diff.size_bytes + 12 for s in stored) + wire_bytes(notices)
        yield from self.post(
            msg.src,
            kind,
            size,
            {
                "page_id": page_id,
                "request_id": request_id,
                "diffs": stored,
                "covers_through": covers,
                "notices": notices,
            },
            role,
            answering=msg,
            page=page_id,
            request_id=request_id,
        )

    def handle_diff_reply(self, msg: Message) -> Generator:
        """Hand the reply's diffs to the waiting fetch process.

        The diffs are NOT applied here: the fetch gathers every writer's
        reply and applies the union in timestamp order.
        """
        # Log the writer's interval records first, so this node can
        # re-propagate them (transitive closure of happened-before).
        # advance_vc=False: these are page-filtered.
        yield from self.apply_notices_charged(msg.payload["notices"], advance_vc=False)
        self.close_request(
            msg.payload["request_id"],
            (msg.src, msg.payload["diffs"], msg.payload["covers_through"]),
            "diff reply",
            writer=msg.src,
        )

    handlers = {
        MessageKind.DIFF_REQUEST: handle_diff_request,
        MessageKind.DIFF_REPLY: handle_diff_reply,
    }

    # -- checkpoint / recovery ------------------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copy the backend's LRC state at a consistent cut.

        Taken at a barrier cut (all threads cluster-wide blocked at the
        barrier), so no fetch, flush, or diff request can be in flight;
        the pending-request and flush-event maps are therefore not part
        of the snapshot and are simply cleared on restore.  Nor is the
        request-id counter: it stays monotone (snapshots written before
        that carry a ``next_request_id`` key, which is ignored).
        """
        return {
            "vc": self.vc.snapshot(),
            "intervals": self.intervals.snapshot_state(),
            "wn_log": self.wn_log.snapshot_state(),
            "diff_store": self.diff_store.snapshot_state(),
            "coherence": {
                pid: state.snapshot_state() for pid, state in self._coherence.items()
            },
            "flushed_in_open": set(self._flushed_in_open),
        }

    def restore_state(self, snap: dict) -> None:
        self.vc.restore(snap["vc"])
        self.intervals.restore_state(snap["intervals"])
        self.wn_log.restore_state(snap["wn_log"])
        self.diff_store.restore_state(snap["diff_store"])
        self._coherence = {
            pid: PageCoherence.from_snapshot(pid, self.num_nodes, page_snap)
            for pid, page_snap in snap["coherence"].items()
        }
        self._flushed_in_open = set(snap["flushed_in_open"])
        # Any in-flight request/flush belongs to the discarded execution.
        self._pending_requests.clear()
        self._flush_events.clear()
        self._mark(
            "lrc_restore",
            index=self.vc[self.node_id],
            backlog=self.wn_log.total(),
            stored=self.diff_store.total_diff_bytes,
        )

    # -- verification ---------------------------------------------------------

    def global_page(self, runtime, page_id: int) -> np.ndarray:
        """The authoritative final contents of a page.

        Reconstructed by replaying every flushed diff — plus each node's
        still-unflushed dirty modifications — in happened-before order,
        starting from the demand-zero page.  This is exactly the value
        any node would observe after synchronizing with everyone.
        """
        page = np.zeros(runtime.config.page_size, dtype=np.uint8)
        deltas: list[StoredDiff] = []
        for dsm in runtime.dsm_nodes:
            backend = dsm.backend
            deltas.extend(backend.diff_store.diffs_after(page_id, 0))
            # ``get``: the verifier must not make every node hold every page.
            coherence = backend._coherence.get(page_id)
            if coherence is not None and coherence.dirty and coherence.twin is not None:
                virtual = make_diff(
                    page_id, coherence.twin, dsm.node.pages.page(page_id)
                )
                deltas.append(
                    StoredDiff(
                        proc=dsm.node_id,
                        covers_through=backend.vc[dsm.node_id] + 1,
                        lamport=backend.intervals.lamport + 1,
                        diff=virtual,
                    )
                )
        for item in sorted(deltas, key=lambda s: (s.lamport, s.proc)):
            apply_diff(page, item.diff)
        return page
