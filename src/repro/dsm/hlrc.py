"""Home-based lazy release consistency backend (``hlrc``).

The HLRC refinement of TreadMarks-style LRC (Zhou/Iftode/Li; see
PAPERS.md): every page gets a deterministic *home* node
(``page_id % num_nodes``).  The synchronization plane — vector clocks,
intervals, write notices piggybacked on locks and barriers — is
inherited from :class:`~repro.dsm.protocol.LrcBackend` unchanged.  Only
the data plane differs:

- **Releases flush home.**  Closing an interval eagerly creates the
  diff of every page it dirtied and sends each to its page's home
  (``HOME_UPDATE``).  The release blocks until every home has applied
  and acknowledged its update.  That ack round trip is the protocol's
  release-side cost — and it guarantees a barrier cut (where coordinated
  checkpoints are taken) can never strand an un-applied diff in flight.
- **Fetches pull the whole page from home.**  A faulting node sends its
  needed-vector to the home (``PAGE_REQUEST``); the home *parks* the
  request until its applied-vector dominates it, then replies with the
  full page plus the coverage it certifies (``PAGE_REPLY``).  The
  requester installs the page wholesale, re-applying its own
  still-unflushed local modifications on top.

The trade against flat LRC is the paper's motivating comparison: LRC's
faults pay one diff round trip *per stale writer* and archives grow with
every interval, while HLRC pays one round trip to one fixed node and a
full page on the wire — write-notice processing stays, but diff
accumulation and multi-writer fault fan-out disappear.  Apps with many
writers per page (OCEAN boundary rows) win; apps whose pages have one
writer and tiny diffs pay page-sized transfers for byte-sized changes.

The home keeps no separate directory: its own ``PageCoherence`` record
already tracks exactly what HLRC needs (``applied_upto`` per writer is
the home's applied-vector; byte-level lamport watermarks order
conflicting-update arrivals), and the shared replay verifier
(:meth:`LrcBackend.global_page`) keeps working because every eager flush
is also archived in the writer's local diff store, exactly where a flat
LRC flush would have put it.
"""

from __future__ import annotations

from functools import partial
from typing import Generator

import numpy as np

from repro.dsm.interval import StoredDiff
from repro.dsm.protocol import LrcBackend
from repro.errors import ProtocolError
from repro.memory import make_diff
from repro.metrics.counters import Category
from repro.network import Message, MessageKind
from repro.sim import Event, spawn

__all__ = ["HlrcBackend"]


class HlrcBackend(LrcBackend):
    """Home-based LRC: eager diff flush home, whole-page fetch from home."""

    name = "hlrc"
    #: Diff prefetch is meaningless here — non-home nodes never traffic
    #: in diffs.  (The prefetch engine falls back to page-mode.)
    supports_diff_prefetch = False

    def __init__(self, host) -> None:
        super().__init__(host)
        #: Home side: fetches waiting for coverage, per hosted page, as
        #: ``(needed, resume)``: ``resume()`` spawns a remote requester's
        #: serve, or wakes the home's own fault on its own page.
        self._parked: dict[int, list] = {}
        #: Per page, the interval index (our vc component) of our last
        #: flushed diff.  A fetch carries it as our own ``needed``
        #: component so the home parks the serve until our update has
        #: been applied — otherwise a whole-page install could revert
        #: our own committed writes while the update is still in
        #: flight (our release blocks on the ack, but OTHER local
        #: threads fetch concurrently).
        self._flushed_upto: dict[int, int] = {}

    def home_of(self, page_id: int) -> int:
        return page_id % self.num_nodes

    # -- release side ------------------------------------------------------

    def close_interval_charged(self) -> Generator:
        """HLRC release: close the interval, then flush its diffs home.

        The close itself (write notices, vector clock) is inherited LRC
        machinery.  The flush is the home-based part: one diff per
        dirtied page, sent to the page's home, the release blocking
        until every home has applied and acked.
        """
        announced = yield from super().close_interval_charged()
        flushed = []
        # Diff creation is synchronous across ALL dirtied pages (no
        # yields until every twin is sealed): the moment the vector
        # clock advanced above, a home serve certifies the closed
        # interval as covered — so no page may keep a twin that
        # predates it.  Yielding between per-page flushes would leave
        # the later pages closed-but-unflushed, and a concurrent
        # ``_serve_page`` on a home node would ship their stale twins
        # under a coverage vector that promises the new interval.
        # (A store racing the flush likewise lands in a fresh interval
        # with a fresh twin.)  The CPU costs are charged in one lump
        # after the seals.
        flush_cost = 0.0
        for page_id in announced:
            state = self._coherence.get(page_id)
            if state is None or not state.dirty or state.twin is None:
                continue
            diff = self._seal_twin(state)
            state.write_protected = False
            # Archived locally as well: the replay verifier and the
            # checkpoint sizer read the writer's own diff store, same
            # as under flat LRC.
            stored = self._archive_diff(diff)
            self._flushed_upto[page_id] = stored.covers_through
            flush_cost += self.node.costs.diff_create_us(
                self.node.pages.page_size, diff.modified_bytes
            )
            flushed.append((page_id, stored))
        if flush_cost:
            yield from self.node.occupy(flush_cost, Category.DSM)
        acks = []
        for page_id, stored in flushed:
            home = self.home_of(page_id)
            if home == self.node_id:
                # The home's own copy of the page IS current; the local
                # close already raised the coverage it certifies.
                self._mark("home_update", page=page_id)
                continue
            request_id, ack = self.open_request("homeack")
            acks.append(ack)
            yield from self.post(
                home,
                MessageKind.HOME_UPDATE,
                24 + stored.diff.size_bytes + 12,
                {"page_id": page_id, "stored": stored, "request_id": request_id},
                "home_update",
                page=page_id,
                request_id=request_id,
            )
        # Any fetch parked on our newly closed interval can go now.
        for page_id, _stored in flushed:
            if self.home_of(page_id) == self.node_id:
                self._pump_parked(page_id)
        if acks:
            yield self.sim.all_of(acks)

    # -- home side ---------------------------------------------------------

    def _home_covers(self, page_id: int) -> tuple:
        """The coverage this home certifies for one of its pages.

        Our own component is the closed-interval count — the local copy
        always contains our own committed writes — and every other
        writer's is what their updates have delivered.
        """
        state = self.coherence(page_id)
        return tuple(
            self.vc[proc] if proc == self.node_id else state.applied_upto[proc]
            for proc in range(self.num_nodes)
        )

    def _covers_dominates(self, covers: tuple, needed: tuple) -> bool:
        return all(c >= n for c, n in zip(covers, needed))

    def handle_home_update(self, msg: Message) -> Generator:
        page_id = msg.payload["page_id"]
        stored: StoredDiff = msg.payload["stored"]
        # ``home`` marks a remote update, which the sanitizer checks
        # landed on the page's home.
        self._mark("home_update", page=page_id, home=self.home_of(page_id))
        # The shared LRC applier does everything the home needs: charge
        # the apply, update page AND twin, advance applied_upto, and
        # order conflicting arrivals by per-byte lamport watermark.
        yield from self.apply_stored_diffs(page_id, [stored])
        self._pump_parked(page_id)
        yield from self.post(
            msg.src,
            MessageKind.HOME_UPDATE_ACK,
            16,
            {"request_id": msg.payload["request_id"]},
            "home_ack",
            answering=msg,
            page=page_id,
        )

    def handle_home_update_ack(self, msg: Message) -> None:
        self.close_request(msg.payload["request_id"], None, "home-update ack")

    def _pump_parked(self, page_id: int) -> None:
        """Re-check parked fetches after coverage grew."""
        parked = self._parked.pop(page_id, None)
        if not parked:
            return
        covers = self._home_covers(page_id)
        still = []
        for needed, resume in parked:
            if self._covers_dominates(covers, needed):
                resume()
            else:
                still.append((needed, resume))
        # A woken local fault runs at once and can park again during
        # the pump: the survivors go back in front of it.
        still += self._parked.get(page_id, ())
        if still:
            self._parked[page_id] = still

    def _spawn_serve(self, msg: Message) -> None:
        spawn(
            self.sim,
            self._serve_page(msg),
            name=f"homeserve[{self.node_id}]",
            group=f"node{self.node_id}",
        )

    def _serve_page(self, msg: Message) -> Generator:
        """Answer the page request ``msg`` with the whole page,
        certifying the coverage it carries.

        A dirty home copy serves its *twin*: the twin holds every
        committed write (ours through the last close, every applied
        update) without the still-open interval's uncommitted stores.
        """
        page_id = msg.payload["page_id"]
        request_id = msg.payload["request_id"]
        state = self.coherence(page_id)
        covers = self._home_covers(page_id)
        source = state.twin if (state.dirty and state.twin is not None) else None
        if source is None:
            source = self.node.pages.page(page_id)
        data = yield from self.copy_page_out(
            page_id, source, home=self.home_of(page_id), covers=covers
        )
        yield from self.post(
            msg.src,
            MessageKind.PAGE_REPLY,
            24 + len(data) + 4 * self.num_nodes,
            {
                "page_id": page_id,
                "request_id": request_id,
                "data": data,
                "covers": covers,
                "lamport": self.intervals.lamport,
            },
            "reply",
            answering=msg,
            page=page_id,
            request_id=request_id,
        )

    def handle_page_request(self, msg: Message) -> Generator:
        page_id = msg.payload["page_id"]
        if self.home_of(page_id) != self.node_id:
            raise ProtocolError(
                f"page request for page {page_id} routed to node {self.node_id}, "
                f"home is {self.home_of(page_id)}"
            )
        needed = tuple(msg.payload["needed"])
        if self._covers_dominates(self._home_covers(page_id), needed):
            yield from self._serve_page(msg)
        else:
            # Park until the missing writers' updates land.  The writers
            # flushed (or will flush, blocking their release) at the
            # interval close that minted the notices the requester saw,
            # so the updates are already committed or en route.
            self._parked.setdefault(page_id, []).append(
                (needed, partial(self._spawn_serve, msg))
            )
            if self.sim.trace_on:
                self.sim.trace.instant(
                    self.sim.now,
                    "protocol",
                    "fetch_parked",
                    self.node_id,
                    page=page_id,
                    requester=msg.src,
                )

    def handle_page_reply(self, msg: Message) -> None:
        self.close_request(
            msg.payload["request_id"],
            (msg.payload["data"], msg.payload["covers"], msg.payload["lamport"]),
            "page reply",
            home=msg.src,
        )

    # -- fault / fetch path ------------------------------------------------

    def service_fault(self, page_id: int, done: Event) -> Generator:
        """One whole-page round trip to the home per iteration."""
        state = self.coherence(page_id)
        home = self.home_of(page_id)
        guard = 0
        while not state.valid:
            guard += 1
            if guard > 64:
                raise ProtocolError(f"fetch of page {page_id} cannot converge")
            if home == self.node_id:
                # We ARE the home: the page turns valid the moment the
                # missing writers' updates are applied locally — park on
                # our own coverage pump, nothing to install.
                ready = Event(self.sim, name=f"homewait(p{page_id})@{self.node_id}")
                self._parked.setdefault(page_id, []).append(
                    (tuple(state.needed_upto), ready.succeed)
                )
                yield ready
                continue
            done.needed_remote = True
            if self.prefetch is not None:
                self.prefetch.classify_remote_fault(page_id)
            request_id, reply = self.open_request(
                "pagereq", ("home_fetch", "hr"), page=page_id, home=home
            )
            # Our own component of ``needed`` is the flush watermark,
            # never the notice count (nodes are not notified of their
            # own intervals): the serve must wait out our in-flight
            # home update, or its whole-page install would revert our
            # own committed writes.
            needed = list(state.needed_upto)
            needed[self.node_id] = self._flushed_upto.get(page_id, 0)
            yield from self.post(
                home,
                MessageKind.PAGE_REQUEST,
                24 + self.vc.size_bytes,
                {"page_id": page_id, "needed": tuple(needed), "request_id": request_id},
                "request",
                page=page_id,
                request_id=request_id,
            )
            data, covers, lamport = yield reply
            # A release flush of this page while the request was out
            # raised the watermark past what the home had applied when
            # it served: installing would revert that flushed write, so
            # ask again for a copy that carries it.
            if covers[self.node_id] >= self._flushed_upto.get(page_id, 0):
                yield from self._install_page(page_id, data, covers, lamport)

    def _install_page(
        self, page_id: int, data: np.ndarray, covers: tuple, lamport: int
    ) -> Generator:
        """Install a home-served page, preserving local dirty writes."""
        state = self.coherence(page_id)
        local_diff = None
        if state.dirty and state.twin is not None:
            # Our own unflushed stores must survive the wholesale
            # install: lift them off the twin first, lay them back on
            # top after.  The twin itself takes the home data, so the
            # next flush's diff still isolates exactly our writes.
            local_diff = make_diff(page_id, state.twin, self.node.pages.page(page_id))
            state.twin[:] = data
        yield from self.copy_page_in(page_id, data, keep=local_diff)
        for proc in range(self.num_nodes):
            if proc != self.node_id:
                state.note_diffs_applied(proc, covers[proc])
        # The served content reflects intervals up to the home's
        # lamport horizon; our next interval must order after them in
        # the replay's happened-before order.
        self.intervals.observe_lamport(lamport)

    handlers = {
        **LrcBackend.handlers,
        MessageKind.PAGE_REQUEST: handle_page_request,
        MessageKind.PAGE_REPLY: handle_page_reply,
        MessageKind.HOME_UPDATE: handle_home_update,
        MessageKind.HOME_UPDATE_ACK: handle_home_update_ack,
    }

    # -- checkpoint / recovery ---------------------------------------------

    def snapshot_state(self) -> dict:
        """LRC layout plus the per-page flush watermarks: the
        ack-blocking release guarantees no update is in flight at a
        barrier cut, and a cut cannot have parked fetches (every thread
        is blocked at the barrier)."""
        if self._parked:
            raise ProtocolError("hlrc home has parked fetches at a checkpoint cut")
        snap = super().snapshot_state()
        snap["flushed_upto"] = dict(self._flushed_upto)
        return snap

    def restore_state(self, snap: dict) -> None:
        super().restore_state(snap)
        self._parked.clear()
        self._flushed_upto = dict(snap.get("flushed_upto", {}))
