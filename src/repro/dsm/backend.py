"""The coherence-backend strategy interface and the page-fault plane.

``DsmNode`` (repro.dsm.protocol) is the per-node *host*: it owns the
pieces every protocol shares — the lock and barrier subsystems, the
prefetch engine and FT manager hooks, message dispatch, and the fault
counters.  :class:`CoherenceBackend` is one protocol's *policy* over a
shared *mechanism*, selected by ``RunConfig.protocol``:

- ``lrc`` — TreadMarks-style lazy release consistency (the default;
  :class:`~repro.dsm.protocol.LrcBackend`), multiple writers with
  twins/diffs and distributed diff servers;
- ``hlrc`` — home-based LRC (:class:`~repro.dsm.hlrc.HlrcBackend`):
  each page has a deterministic home node, releases flush diffs home
  eagerly, and faults pull the whole page from the home;
- ``sc`` — single-writer sequentially-consistent invalidate
  (:class:`~repro.dsm.sc.ScBackend`): a per-page directory serializes
  ownership transfers, write faults invalidate every copy, and there
  are no twins, diffs, or vector clocks.

Every backend — even SC, which needs none of them — exposes ``vc``,
``wn_log``, ``diff_store`` and ``intervals`` attributes, because the
shared lock/barrier subsystems piggyback vector-clock snapshots and
write-notice sets on their messages.  SC satisfies them with *inert*
instances (a never-advancing clock, an empty log), which keeps the
synchronization code paths — and their message sizes — identical
across protocols without per-protocol branches in locks/barriers.

Writing a backend
-----------------
The paper's fault -> fetch -> validate sequence is the same under every
protocol, so the base class owns it and a backend supplies four things:

1. a *usability predicate*: ``ensure_valid`` returns ``None`` for a page
   usable now, else ``self.start_fault(page_id, record, ...)``, where
   ``record`` is its own per-page state (anything with a ``fetch_event``;
   local threads faulting together share it);
2. ``service_fault(page_id, done, ...)``: what makes the page usable —
   LRC gathers diffs, HLRC asks the home, SC runs an ownership
   transaction — setting ``done.needed_remote`` when it sends a request.
   Every message leaves through ``self.post`` (the host's: it builds,
   labels and sends; never construct a ``Message`` here), round trips go
   through ``open_request``/``close_request``, whole pages through
   ``copy_page_out``/``copy_page_in``.  The fault count, the
   ``page_fault`` span, the ``fault_handler``/``page_validate`` charges,
   prefetch-hit accounting and stall attribution wrap it, once;
3. ``handlers``: the message kinds it serves, each a method of the
   message — a generator, or a plain method when nothing has to wait;
4. ``snapshot_state``/``restore_state`` for its policy state (request
   ids are not: they stay monotone across a rollback).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ConfigError, ProtocolError
from repro.memory import apply_diff
from repro.metrics.counters import Category
from repro.sim import Event, spawn

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.dsm.pagestate import PageCoherence
    from repro.memory.diff import Diff

__all__ = ["BACKEND_NAMES", "CoherenceBackend", "make_backend"]

#: Valid ``RunConfig.protocol`` values, in presentation order.
BACKEND_NAMES = ("lrc", "hlrc", "sc")


class CoherenceBackend:
    """One coherence protocol's per-node state machine.

    Subclasses implement the narrow surface the host, the thread
    scheduler, the synchronization subsystems and the verifier rely on.
    All generator-returning methods run in simulation context and may
    charge CPU, send messages and wait on events.
    """

    #: The registry key, also recorded in reports and checkpoints.
    name = "?"
    #: Whether the diff-based prefetch protocol (PREFETCH_REQUEST /
    #: PREFETCH_REPLY carrying diffs) applies.  Backends without diff
    #: servers get early-binding prefetch instead: the engine starts
    #: the backend's own fetch ahead of the access.
    supports_diff_prefetch = False
    #: ``MessageKind -> method`` for the kinds this backend serves; the
    #: host binds them into its routing table.
    handlers: dict = {}
    #: Names the fault process and its event (watchdog text only).
    fault_name = "fetch"

    def __init__(self, host) -> None:
        self.host = host
        self.node = host.node
        self.sim = host.sim
        self.node_id = host.node_id
        self.num_nodes = host.num_nodes
        #: The one way a protocol message leaves the node (``DsmNode.post``).
        self.post = host.post
        #: Open round trips: request id -> (reply event, span).
        self._pending_requests: dict[int, tuple] = {}
        #: Names trace correlation ids, so like the host's counters it is
        #: never rolled back: an id re-used after a recovery would pair a
        #: pre-crash span that never closed with a post-recovery one.
        self._next_request_id = 0

    # -- shared helpers (identical across backends) ------------------------

    @property
    def prefetch(self):
        """The host's prefetch engine (installed after construction)."""
        return self.host.prefetch

    # -- the fault envelope -------------------------------------------------

    def start_fault(self, page_id: int, record, *args) -> Event:
        """The completion event of the fault on an unusable page.

        All local threads faulting on the page share it (request
        combining for remote memory accesses); ``args`` go to
        :meth:`service_fault`.
        """
        done = record.fetch_event
        if done is not None and not done.triggered:
            return done
        done = Event(self.sim, name=f"{self.fault_name}(p{page_id})@{self.node_id}")
        record.fetch_event = done
        spawn(
            self.sim,
            self._fault(page_id, done, *args),
            name=f"{self.fault_name}[{self.node_id}]",
            group=f"node{self.node_id}",
        )
        return done

    def _fault(self, page_id: int, done: Event, *args) -> Generator:
        """The fault handler: everything around :meth:`service_fault`."""
        self.host.faults += 1
        costs = self.node.costs
        tr = self.sim.trace
        if tr.enabled:
            fault_id = f"n{self.node_id}:f{self.host.faults}"
            tr.async_begin(
                self.sim.now, "protocol", "page_fault", self.node_id, fault_id, page=page_id
            )
        yield from self.node.occupy(costs.fault_handler, Category.DSM)
        from_cache = yield from self.service_fault(page_id, done, *args)
        yield from self.node.occupy(costs.page_validate, Category.DSM)
        # Read at the end: the scheduler classifies the stall (remote
        # miss vs locally satisfied fault) off this flag at wake.
        remote = bool(getattr(done, "needed_remote", False))
        if self.prefetch is not None:
            # After the validate charge: a hit is stamped when the page
            # becomes usable, not when the heap was read.
            if from_cache and not remote:
                self.prefetch.count_hit(page_id)
            self.prefetch.on_page_validated(page_id)
        if tr.enabled:
            tr.async_end(
                self.sim.now, "protocol", "page_fault", self.node_id, fault_id, remote=remote
            )
        done.succeed(None)

    def service_fault(self, page_id: int, done: Event, *args) -> Generator:
        """The protocol's share of a fault: make the page usable.
        Returns whether the prefetch heap contributed data (a prefetch
        hit, if nothing remote was needed as well)."""
        raise NotImplementedError

    # -- the request registry -------------------------------------------------

    def new_request_id(self) -> int:
        """A fresh correlation id, unique on this node for the whole run."""
        request_id = self._next_request_id
        self._next_request_id = request_id + 1
        return request_id

    def open_request(
        self, what: str, span: Optional[tuple[str, str]] = None, **args: Any
    ) -> tuple[int, Event]:
        """Register a round trip: its id, and the event its reply fires.

        ``span`` — ``(name, id tag)`` — renders it as an async trace span
        linking the two sides in Perfetto, begun here with ``args`` and
        ended by :meth:`close_request`, which runs in another process.
        """
        request_id = self.new_request_id()
        reply = Event(self.sim, name=f"{what}{request_id}")
        self._pending_requests[request_id] = (reply, span)
        if span is not None and self.sim.trace_on:
            self._request_span(self.sim.trace.async_begin, span, request_id, args)
        return request_id, reply

    def close_request(self, request_id: int, value: Any, what: str, **args: Any) -> None:
        """Hand the reply's ``value`` to the process waiting on the
        request (its span's end is the round trip's profile sample)."""
        pending = self._pending_requests.pop(request_id, None)
        if pending is None:
            raise ProtocolError(f"unexpected {what} {request_id}")
        reply, span = pending
        if span is not None and self.sim.trace_on:
            self._request_span(self.sim.trace.async_end, span, request_id, args)
        reply.succeed(value)

    def _request_span(self, edge, span: tuple[str, str], request_id: int, args: dict) -> None:
        name, tag = span
        span_id = f"n{self.node_id}:{tag}{request_id}"
        edge(self.sim.now, "protocol", name, self.node_id, span_id, **args)

    def _mark(self, name: str, **args: Any) -> None:
        """Trace one protocol fact that only the analysis planes read: a
        twin made, an interval closed, a whole page served or installed,
        a home update, a diff request served, an SC directory
        transaction begun or ended, an SC restore.  It holds the
        tracer's guard for its callers; each sits next to a CPU charge
        (a page-sized copy, a diff, a twin, an interval close, a
        directory admission) or runs once per SC transaction or
        rollback, so the call costs an untraced run nothing it would
        notice."""
        if self.sim.trace_on:
            tr = self.sim.trace
            tr.instant(self.sim.now, "protocol", name, self.node_id, **args)

    # -- whole-page transfer ----------------------------------------------------

    def copy_page_out(self, page_id: int, source: "np.ndarray") -> Generator:
        """Copy a page (or its twin) for the wire; returns the copy.
        Charged as a diff creation that finds nothing modified."""
        data = source.copy()
        self._mark("page_serve", page=page_id)
        yield from self.node.occupy(self.node.costs.diff_create_us(len(data), 0), Category.DSM)
        return data

    def copy_page_in(
        self, page_id: int, data: "np.ndarray", keep: Optional["Diff"] = None
    ) -> Generator:
        """Overwrite the local page with served contents, laying the
        runs of ``keep`` (local stores not yet flushed) back on top."""
        page = self.node.pages.page(page_id)
        page[:] = data
        if keep is not None:
            apply_diff(page, keep)
        self._mark("page_install", page=page_id, bytes=len(data))
        yield from self.node.occupy(self.node.costs.diff_apply_us(len(data)), Category.DSM)

    # -- page access (scheduler-facing) ------------------------------------

    def coherence(self, page_id: int) -> "PageCoherence":
        raise NotImplementedError

    def page_valid(self, page_id: int) -> bool:
        raise NotImplementedError

    def page_writable(self, page_id: int) -> bool:
        """Whether a store may land on the page right now, with no
        further protocol action and no yields."""
        raise NotImplementedError

    def ensure_valid(self, page_id: int, for_write: bool = False) -> Optional["Event"]:
        """None if the page is usable now, else a fetch event.

        ``for_write`` requests write access where the protocol
        distinguishes it (SC needs exclusive ownership before a store;
        the LRC family ignores the flag — any valid page is writable
        after :meth:`op_write_touch`).
        """
        raise NotImplementedError

    def op_write_touch(self, page_id: int) -> Generator:
        """Per-page bookkeeping for a store to a valid page."""
        raise NotImplementedError

    # -- consistency actions (lock/barrier-facing) -------------------------

    def close_interval_charged(self) -> Generator:
        """The release action (lock release, barrier arrival)."""
        raise NotImplementedError

    def apply_notices_charged(self, records: list, advance_vc: bool = True) -> Generator:
        """The acquire action: merge received interval records."""
        raise NotImplementedError

    def flush_page_if_dirty(self, page_id: int) -> Generator:
        """Make a locally dirty page servable (LRC diff creation); a
        no-protocol-action default for backends without diff servers."""
        return
        yield  # pragma: no cover

    # -- checkpoint / verification -----------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copy the backend's protocol state at a consistent cut.

        The returned dict must share NO mutable structure with live
        state (tests/dsm/test_snapshot_aliasing.py drives this against
        every backend), and must carry a ``"vc"`` snapshot — the FT
        manager reports rollback vector clocks for every protocol
        (inert zeros under SC).
        """
        raise NotImplementedError

    def restore_state(self, snap: dict) -> None:
        raise NotImplementedError

    def global_page(self, runtime, page_id: int) -> "np.ndarray":
        """The authoritative final contents of a page (verifier path).

        Called on node 0's backend; may inspect every node's backend
        through ``runtime.dsm_nodes``.
        """
        raise NotImplementedError


def make_backend(protocol: str, host) -> CoherenceBackend:
    """Instantiate the backend named by ``RunConfig.protocol``."""
    # Imported here, not at module scope: the concrete backends import
    # this interface (and LRC lives beside the host in repro.dsm.protocol).
    if protocol == "lrc":
        from repro.dsm.protocol import LrcBackend

        return LrcBackend(host)
    if protocol == "hlrc":
        from repro.dsm.hlrc import HlrcBackend

        return HlrcBackend(host)
    if protocol == "sc":
        from repro.dsm.sc import ScBackend

        return ScBackend(host)
    raise ConfigError(f"unknown protocol {protocol!r} (choose from {BACKEND_NAMES})")
