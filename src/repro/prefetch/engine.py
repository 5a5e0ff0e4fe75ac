"""Software-controlled non-binding prefetching (Section 3 of the paper).

A prefetch examines the write notices already propagated to this node,
and sends *unreliable* prefetch requests for the missing diffs to the
corresponding writers.  Replies land in a separate *prefetch heap* (a
cache of diff replies) and are applied to the page only when it is
actually accessed — so prefetched data stays visible to the coherence
protocol and can be invalidated, i.e. the prefetch is non-binding.

Outcome bookkeeping reproduces Figure 3's four-way classification of
the original remote misses:

- ``pf-hit``: the fault was satisfied entirely from the prefetch heap;
- ``pf-miss: too late``: a prefetch was outstanding (or dropped in the
  network) when the access arrived — a normal retry request is issued;
- ``pf-miss: invalidated``: prefetched data arrived but a newer write
  notice made it insufficient before use;
- ``no pf``: the page instance was never prefetched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional

from repro.api.ops import Prefetch
from repro.dsm.interval import StoredDiff
from repro.metrics.counters import Category
from repro.network import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.protocol import DsmNode

__all__ = ["PrefetchStats", "PrefetchEngine", "CachedPage"]


@dataclass
class CachedPage:
    """Prefetch-heap contents for one page."""

    diffs: list[StoredDiff] = field(default_factory=list)
    covers: dict[int, int] = field(default_factory=dict)  # writer -> through
    #: When the first reply was filed (profiling: lead time to the fault).
    filed_at: float = -1.0


@dataclass
class _PageRecord:
    """Per-page, per-miss-epoch prefetch state (reset at validation)."""

    outstanding: int = 0
    had_reply: bool = False
    invalidated_after_reply: bool = False
    classified: bool = False


@dataclass
class PrefetchStats:
    """Counters behind Table 1 and Figure 3."""

    issued: int = 0
    unnecessary: int = 0
    suppressed: int = 0
    remote_pages: int = 0
    request_messages: int = 0
    hits: int = 0
    late: int = 0
    invalidated: int = 0
    no_pf: int = 0
    #: Requests the local NIC refused (uplink full or injected drop) —
    #: the sender-visible loss signal that drives the throttle.
    drops_observed: int = 0
    #: Remote prefetches withheld while the drop-driven throttle is in
    #: its cool-off window (the paper's RADIX mitigation).
    throttled: int = 0
    #: Prefetch requests shed at the source because the adaptive
    #: transport reported the destination under pressure (closed-loop
    #: backpressure; zero with the adaptive layer off).
    shed: int = 0

    @property
    def covered(self) -> int:
        return self.hits + self.late + self.invalidated

    @property
    def coverage_factor(self) -> float:
        total = self.covered + self.no_pf
        return self.covered / total if total else 0.0

    @property
    def unnecessary_fraction(self) -> float:
        return self.unnecessary / self.issued if self.issued else 0.0


class PrefetchEngine:
    """Per-node prefetch machinery; installed onto a :class:`DsmNode`."""

    #: Drop-driven throttle: after a send-visible drop, remote
    #: prefetches are withheld for a cool-off that doubles per
    #: consecutive drop (the paper throttles RADIX's prefetches when the
    #: network starts dropping them, Section 5.1).
    THROTTLE_BASE_US = 1_000.0
    THROTTLE_MAX_US = 32_000.0

    def __init__(self, dsm: "DsmNode") -> None:
        self.dsm = dsm
        self.stats = PrefetchStats()
        self._cache: dict[int, CachedPage] = {}
        self._records: dict[int, _PageRecord] = {}
        self._pending: dict[int, tuple[int, int]] = {}  # request id -> (page, writer)
        self._next_request_id = 0
        self._dedup_done: set[str] = set()
        self._drop_streak = 0
        self._cooloff_until = -1.0
        dsm.prefetch = self
        dsm.routes[MessageKind.PREFETCH_REQUEST] = self._handle_request
        dsm.routes[MessageKind.PREFETCH_REPLY] = self._handle_reply

    def reset_volatile(self) -> None:
        """Drop all transient state at a crash rollback.

        Cached diffs, in-flight requests and throttle state all describe
        the discarded execution; statistics stay (monotone, like every
        other counter).  The dedup ledger is cleared too: the replayed
        epoch re-issues its prefetch ops and must not find them 'done'.
        """
        self._cache.clear()
        self._records.clear()
        self._pending.clear()
        self._dedup_done.clear()
        self._drop_streak = 0
        self._cooloff_until = -1.0

    # -- thread-facing op ----------------------------------------------------

    def op_prefetch(self, op: Prefetch) -> Generator:
        """Issue prefetches for every page the op's regions touch."""
        if op.dedup_key is not None:
            if op.dedup_key in self._dedup_done:
                self.stats.suppressed += 1
                return
            self._dedup_done.add(op.dedup_key)
        page_size = self.dsm.node.pages.page_size
        seen: set[int] = set()
        for addr, nbytes in op.regions:
            for page_id in self.dsm.node.pages.pages_in_range(addr, nbytes):
                if page_id in seen:
                    continue
                seen.add(page_id)
                yield from self._prefetch_page(page_id)

    def _prefetch_page(self, page_id: int) -> Generator:
        self.stats.issued += 1
        if self.dsm.sim.trace_on:
            self._mark("prefetch_page", page=page_id)
        costs = self.dsm.node.costs
        backend = self.dsm.backend
        if not backend.supports_diff_prefetch:
            # Page-mode prefetch (hlrc/sc): those protocols have no diff
            # traffic to cache, so the only latency to hide is the whole
            # fetch — start the protocol's own demand fetch *now* and
            # let the later access find the page valid or the fetch
            # already in flight (request combining).  The fetch runs the
            # real coherence transaction, so the data is never stale and
            # invalidations need no special casing; the cost is that an
            # early-bound fetch counts in the fault statistics.
            if backend.page_valid(page_id):
                self.stats.unnecessary += 1
                yield from self.dsm.node.occupy(
                    costs.prefetch_issue_local, Category.PREFETCH
                )
                return
            self.stats.remote_pages += 1
            yield from self.dsm.node.occupy(
                costs.prefetch_issue_remote, Category.PREFETCH
            )
            backend.ensure_valid(page_id)
            return
        state = backend.coherence(page_id)
        record = self._records.get(page_id)
        already_working = (
            state.fetch_in_flight or (record is not None and record.outstanding > 0)
        )
        if state.valid or already_working:
            # Paper footnote 4: the unnecessary prefetch costs a lookup,
            # a valid-flag check, and a branch.
            self.stats.unnecessary += 1
            yield from self.dsm.node.occupy(costs.prefetch_issue_local, Category.PREFETCH)
            return
        # Writers whose missing intervals are neither applied nor cached.
        cached = self._cache.get(page_id)
        writers = state.missing_writers(cached.covers if cached is not None else {})
        if not writers:
            # Everything missing is already in the prefetch heap.
            self.stats.unnecessary += 1
            yield from self.dsm.node.occupy(costs.prefetch_issue_local, Category.PREFETCH)
            return
        transport = self.dsm.node.transport
        if transport.adaptive:
            # Closed-loop backpressure: the transport's RTT/window state
            # replaces the hand-tuned drop cool-off.  Writers whose link
            # shows congestion (pacing backlog or inflated SRTT) are
            # shed — counted, never silent — and the demand fetch path
            # (reliable, paced) covers the page if it is really needed.
            kept = []
            for writer in writers:
                if transport.under_pressure(writer[0]):
                    self._shed_request(page_id, writer[0])
                else:
                    kept.append(writer)
            writers = kept
            if not writers:
                yield from self.dsm.node.occupy(
                    costs.prefetch_issue_local, Category.PREFETCH
                )
                return
        elif self.dsm.sim.now < self._cooloff_until:
            # The network has been dropping our requests: hold remote
            # prefetches back and let the demand fetch (reliable) do the
            # work — burning 140us per doomed request only adds load.
            self.stats.throttled += 1
            self._mark("prefetch_throttled", page=page_id)
            yield from self.dsm.node.occupy(costs.prefetch_issue_local, Category.PREFETCH)
            return
        record = self._records.setdefault(page_id, _PageRecord())
        self.stats.remote_pages += 1
        # Paper: ~140us of software overhead per prefetch generating a
        # remote message; extra writers add a per-message send cost.
        overhead = costs.prefetch_issue_remote + (len(writers) - 1) * costs.msg_send_cpu
        yield from self.dsm.node.occupy(overhead, Category.PREFETCH)
        tr = self.dsm.sim.trace
        for writer, t_have in writers:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._pending[request_id] = (page_id, writer)
            record.outstanding += 1
            self.stats.request_messages += 1
            out = Message(
                src=self.dsm.node_id,
                dst=writer,
                kind=MessageKind.PREFETCH_REQUEST,
                size_bytes=36 + backend.vc.size_bytes,
                payload={
                    "page_id": page_id,
                    "t_have": t_have,
                    "vc": backend.vc.snapshot(),
                    "request_id": request_id,
                },
            )
            if tr.enabled:
                tr.instant(
                    self.dsm.sim.now,
                    "prefetch",
                    "prefetch_issue",
                    self.dsm.node_id,
                    page=page_id,
                    writer=writer,
                    msg=f"m{out.msg_id}",
                    request_id=request_id,
                )
            self.dsm.label_edge(out, "prefetch_request", page=page_id, request_id=request_id)
            accepted = self.dsm.node.network.send(out)
            if not accepted:
                # The request never left the node (queue full or an
                # injected drop).  Deliberately NOT retried here: the
                # real access will retry — once, reliably — and the
                # record's outstanding count classifies it "too late".
                self._note_drop()

    def _shed_request(self, page_id: int, writer: int) -> None:
        """Count one backpressure-shed prefetch request (adaptive)."""
        self.stats.shed += 1
        self.dsm.node.events.prefetch_shed += 1
        self.dsm.node.network.stats.record_shed(MessageKind.PREFETCH_REQUEST)
        self._mark("prefetch_shed", page=page_id, writer=writer)

    def _mark(self, name: str, **args) -> None:
        """Trace one prefetch fact that carries no message.  It holds the
        tracer's guard for the loss-driven ones (throttled, shed, drop),
        each following a request the fabric refused or a peer under
        pressure; pages taken up, issues and outcomes grow with the work
        and keep theirs at the site."""
        if self.dsm.sim.trace_on:
            self.dsm.sim.trace.instant(
                self.dsm.sim.now, "prefetch", name, self.dsm.node_id, **args
            )

    def _note_drop(self) -> None:
        self.stats.drops_observed += 1
        if self.dsm.node.transport.adaptive:
            # Closed-loop mode: drops feed the transport's own RTT and
            # window signals; no hand-tuned cool-off on top.
            self._mark("prefetch_drop", streak=0, cooloff_us=0.0)
            return
        self._drop_streak += 1
        cooloff = min(
            self.THROTTLE_MAX_US,
            self.THROTTLE_BASE_US * 2.0 ** (self._drop_streak - 1),
        )
        self._cooloff_until = max(self._cooloff_until, self.dsm.sim.now + cooloff)
        self._mark("prefetch_drop", streak=self._drop_streak, cooloff_us=cooloff)

    # -- protocol hooks --------------------------------------------------------

    def take_cached(self, page_id: int) -> Optional[CachedPage]:
        """Consume the prefetch heap's contents for a faulting page."""
        cached = self._cache.pop(page_id, None)
        if cached is not None and self.dsm.sim.trace_on:
            # The lead time: how far ahead of the consuming fault the
            # prefetched data landed.
            self.dsm.sim.trace.instant(
                self.dsm.sim.now,
                "prefetch",
                "prefetch_take",
                self.dsm.node_id,
                page=page_id,
                since=cached.filed_at,
            )
        return cached

    def on_invalidation(self, page_id: int) -> None:
        record = self._records.get(page_id)
        if record is not None and record.had_reply:
            record.invalidated_after_reply = True

    def classify_remote_fault(self, page_id: int) -> None:
        """A fault needed remote requests: late / invalidated / no-pf."""
        record = self._records.get(page_id)
        if record is None:
            self.stats.no_pf += 1
            return
        if record.classified:
            return
        record.classified = True
        if record.outstanding > 0:
            # The demand access beat the prefetch reply (or the reply was
            # dropped): the fetch path retries the request reliably.
            self.stats.late += 1
            outcome = "late"
        elif record.had_reply:
            self.stats.invalidated += 1
            outcome = "invalidated"
        else:
            self.stats.no_pf += 1
            outcome = "no_pf"
        if self.dsm.sim.trace_on:
            tr = self.dsm.sim.trace
            tr.instant(
                self.dsm.sim.now,
                "prefetch",
                f"prefetch_{outcome}",
                self.dsm.node_id,
                page=page_id,
            )

    def count_hit(self, page_id: int) -> None:
        record = self._records.get(page_id)
        if record is not None and not record.classified:
            self.stats.hits += 1
            record.classified = True
            if self.dsm.sim.trace_on:
                tr = self.dsm.sim.trace
                tr.instant(
                    self.dsm.sim.now, "prefetch", "prefetch_hit", self.dsm.node_id, page=page_id
                )

    def on_page_validated(self, page_id: int) -> None:
        """The miss epoch ended: forget this page's prefetch record."""
        self._records.pop(page_id, None)

    # -- message handlers ----------------------------------------------------------

    def _handle_request(self, msg: Message) -> Generator:
        """Server side: the ordinary diff server, minus any reliability —
        the reply is a droppable datagram."""
        return self.dsm.backend.serve_diffs(msg, MessageKind.PREFETCH_REPLY, "prefetch_reply")

    def _handle_reply(self, msg: Message) -> Generator:
        """Client side: file the diffs in the prefetch heap (not applied)."""
        # Interval records still propagate immediately (consistency
        # information is never cached, only data); advance_vc=False
        # because the set is page-filtered.
        yield from self.dsm.backend.apply_notices_charged(
            msg.payload["notices"], advance_vc=False
        )
        request_id = msg.payload["request_id"]
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return  # reply for a request we no longer track
        # A reply made it through: the network is passing traffic again.
        self._drop_streak = 0
        page_id, writer = pending
        cached = self._cache.setdefault(page_id, CachedPage())
        if cached.filed_at < 0:
            cached.filed_at = self.dsm.sim.now
        cached.diffs.extend(msg.payload["diffs"])
        covers = msg.payload["covers_through"]
        if covers > cached.covers.get(writer, 0):
            cached.covers[writer] = covers
        record = self._records.get(page_id)
        if record is not None:
            record.outstanding -= 1
            record.had_reply = True
