"""Runtime protocol-invariant sanitizer, gated per coherence backend.

The sanitizer is a reader of the trace (DESIGN.md §6.15):
:func:`check_events` replays a run's events through the ``on_*`` checks
of a fresh :class:`ProtocolSanitizer`.  ``RunConfig(sanitizer=True)``
records an in-memory trace for it, and ``DsmRuntime.execute`` folds it
after the run, before the report and verification (over the partial
trace, if the run raised).

Invariants are **protocol-gated**: the LRC family's assertions are
meaningless under the SC-invalidate backend (no twins, diffs, intervals
or vector clocks exist), and would raise false ``ProtocolError``s if an
SC run ever tripped them.  They are not silently skipped either — under
``sc`` any LRC-machinery event at all IS the violation (the inert
vector clock must never advance, no interval may ever close), and SC
gets its own invariants in exchange.

LRC / HLRC invariants (``protocol`` in ``{"lrc", "hlrc"}``):

- **vector-clock monotonicity** — no component of any node's vector
  clock ever decreases;
- **interval creation discipline** — each processor's own intervals are
  created with consecutive indices (no gaps, no reuse);
- **no write notice from a dead interval** — a notice may only name an
  interval its creator has actually closed (creation happens
  synchronously before any propagation, so this is exact in-sim);
- **no diff applied twice** — the (node, page, proc, coverage, lamport)
  tuple of every applied diff is globally unique per applying node;
- **twin/diff lifecycle discipline** — a twin is never created over an
  existing twin, and a dirty page is never flushed without one.

HLRC adds (``protocol == "hlrc"``):

- **home routing** — a home update may only land on the page's home
  node, and only the home ever serves a page fetch;
- **home coverage monotonicity** — the applied-vector a home announces
  for a page never decreases component-wise across serves.

SC-invalidate invariants (``protocol == "sc"``):

- **protocol isolation** — no LRC machinery (twins, diffs, intervals,
  vector-clock advances, write notices) is ever active;
- **transaction serialization** — the directory never starts a second
  coherence transaction on a page while one is active;
- **single writer** — when write access is granted, the granted node
  holds the only valid copy cluster-wide (mirrored from install /
  invalidate events);
- **invalidation targeting** — an invalidation is only ever delivered
  to a node that actually holds a copy (a miss means the directory's
  copyset drifted from reality).

Fault-tolerance invariant (every protocol):

- **checkpoint cut spans every node** — a committed checkpoint's barrier
  episode holds an arrival from every node, gathered since the last
  rollback: a cut never spans a membership split.  Read from the
  manager's ``barrier_gather`` instants and the ``ft`` ``checkpoint``
  and ``recover`` instants, so it checks what the coordinator
  committed, not how its guard decided.

Violations raise :class:`~repro.errors.ProtocolError` carrying a dump of
the most recent protocol transitions for diagnosis.

The fold reads the trace after the run, so enabling it cannot perturb
the run: sanitizer-on and sanitizer-off runs produce bit-identical
reports and traces.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Optional

from repro.dsm.vclock import VectorClock
from repro.errors import ProtocolError

__all__ = ["ProtocolSanitizer", "check_events"]

#: How many recent transitions the diagnostic ring buffer keeps.
_RING_CAPACITY = 64


class ProtocolSanitizer:
    """Checks protocol invariants at transitions, gated per backend."""

    def __init__(self, num_nodes: int, protocol: str = "lrc") -> None:
        self.num_nodes = num_nodes
        self.protocol = protocol
        #: Highest interval index each processor has *created* (closed).
        self._created: list[int] = [0] * num_nodes
        #: Keys of every diff application, per applying node.
        self._applied: set[tuple[int, int, int, int, int]] = set()
        #: Pages currently twinned, per node.
        self._twinned: set[tuple[int, int]] = set()
        #: SC: mirror of which nodes hold a valid copy of each page,
        #: maintained from install/invalidate events.
        self._sc_copies: dict[int, set[int]] = {}
        #: SC: pages with an active directory transaction (at manager).
        self._sc_active: dict[int, tuple[int, str]] = {}
        #: HLRC: per-(home, page) last served applied-vector.
        self._served_covers: dict[tuple[int, int], tuple[int, ...]] = {}
        #: Nodes whose barrier arrival the manager gathered since the
        #: last rollback, per (barrier, episode).
        self._gathered: dict[tuple[int, int], set[int]] = {}
        #: Recent transitions, newest last, for the diagnostic dump.
        self._ring: deque[str] = deque(maxlen=_RING_CAPACITY)

    # -- recording -------------------------------------------------------

    def note(self, node_id: int, kind: str, detail: str) -> None:
        self._ring.append(f"node{node_id} {kind}: {detail}")

    def _violate(self, node_id: int, invariant: str, detail: str) -> None:
        recent = "\n    ".join(self._ring) or "<none>"
        raise ProtocolError(
            f"sanitizer: {invariant} violated on node {node_id}: {detail}\n"
            f"  recent protocol transitions (oldest first):\n    {recent}"
        )

    # -- protocol gating -------------------------------------------------

    def _lrc_only(self, node_id: int, hook: str) -> None:
        """LRC-machinery hooks must be dead under the SC backend."""
        if self.protocol == "sc":
            self._violate(
                node_id,
                "protocol isolation",
                f"LRC machinery active under the sc backend ({hook})",
            )

    def _sc_only(self, node_id: int, hook: str) -> None:
        if self.protocol != "sc":
            self._violate(
                node_id,
                "protocol isolation",
                f"SC directory machinery active under the {self.protocol} backend "
                f"({hook})",
            )

    def _hlrc_only(self, node_id: int, hook: str) -> None:
        if self.protocol != "hlrc":
            self._violate(
                node_id,
                "protocol isolation",
                f"home-based machinery active under the {self.protocol} backend "
                f"({hook})",
            )

    # -- hooks (LRC family) ----------------------------------------------

    def on_vc_update(self, node_id: int, proc: int, old: int, new: int) -> None:
        self._lrc_only(node_id, "on_vc_update")
        self.note(node_id, "vc", f"proc {proc}: {old} -> {new}")
        if new < old:
            self._violate(
                node_id,
                "vector-clock monotonicity",
                f"component {proc} moved backwards {old} -> {new}",
            )

    def on_interval_closed(self, node_id: int, index: int) -> None:
        self._lrc_only(node_id, "on_interval_closed")
        self.note(node_id, "interval", f"closed own interval {index}")
        expected = self._created[node_id] + 1
        if index != expected:
            self._violate(
                node_id,
                "interval creation discipline",
                f"closed interval {index}, expected {expected} "
                f"(last created was {self._created[node_id]})",
            )
        self._created[node_id] = index

    def on_write_notice(self, node_id: int, proc: int, interval_idx: int, page_id: int) -> None:
        self._lrc_only(node_id, "on_write_notice")
        self.note(
            node_id, "notice", f"page {page_id} proc {proc} interval {interval_idx}"
        )
        if interval_idx > self._created[proc]:
            self._violate(
                node_id,
                "no write notice from a dead interval",
                f"notice names interval {interval_idx} of proc {proc}, but only "
                f"{self._created[proc]} intervals exist",
            )

    def on_diff_applied(
        self, node_id: int, page_id: int, proc: int, covers_through: int, lamport: int
    ) -> None:
        self._lrc_only(node_id, "on_diff_applied")
        key = (node_id, page_id, proc, covers_through, lamport)
        self.note(
            node_id,
            "diff",
            f"apply page {page_id} proc {proc} covers<={covers_through} lamport {lamport}",
        )
        if key in self._applied:
            self._violate(
                node_id,
                "no diff applied twice",
                f"diff (page {page_id}, proc {proc}, covers_through {covers_through}, "
                f"lamport {lamport}) was already applied on this node",
            )
        self._applied.add(key)

    def on_twin_created(self, node_id: int, page_id: int) -> None:
        self._lrc_only(node_id, "on_twin_created")
        key = (node_id, page_id)
        self.note(node_id, "twin", f"create twin for page {page_id}")
        if key in self._twinned:
            self._violate(
                node_id,
                "twin/diff lifecycle discipline",
                f"twin created over an existing twin for page {page_id}",
            )
        self._twinned.add(key)

    def on_flush(self, node_id: int, page_id: int, had_twin: bool) -> None:
        self._lrc_only(node_id, "on_flush")
        key = (node_id, page_id)
        self.note(node_id, "flush", f"flush dirty page {page_id} (twin={had_twin})")
        if not had_twin:
            self._violate(
                node_id,
                "twin/diff lifecycle discipline",
                f"dirty page {page_id} flushed without a twin",
            )
        self._twinned.discard(key)

    # -- hooks (HLRC) ----------------------------------------------------

    def on_home_update(self, node_id: int, page_id: int, home: int) -> None:
        """A flushed diff arrived at ``node_id`` claiming ``home``."""
        self._hlrc_only(node_id, "on_home_update")
        self.note(node_id, "home", f"update for page {page_id} (home {home})")
        if node_id != home:
            self._violate(
                node_id,
                "home routing",
                f"home update for page {page_id} landed on node {node_id}, "
                f"but its home is {home}",
            )

    def on_page_served(
        self, node_id: int, page_id: int, home: int, covers: tuple
    ) -> None:
        """The home served a whole-page fetch covering ``covers``."""
        self._hlrc_only(node_id, "on_page_served")
        self.note(node_id, "home", f"serve page {page_id} covers {covers}")
        if node_id != home:
            self._violate(
                node_id,
                "home routing",
                f"page {page_id} served by node {node_id}, but its home is {home}",
            )
        covers = tuple(covers)
        key = (node_id, page_id)
        last = self._served_covers.get(key)
        if last is not None and any(c < p for c, p in zip(covers, last)):
            self._violate(
                node_id,
                "home coverage monotonicity",
                f"page {page_id} served with coverage {covers}, "
                f"below an earlier serve's {last}",
            )
        self._served_covers[key] = covers

    # -- hooks (SC-invalidate) -------------------------------------------

    def on_sc_txn_start(self, node_id: int, page_id: int, requester: int, mode: str) -> None:
        """The directory admitted a coherence transaction on a page."""
        self._sc_only(node_id, "on_sc_txn_start")
        self.note(node_id, "sc", f"txn start page {page_id} {mode} for {requester}")
        active = self._sc_active.get(page_id)
        if active is not None:
            self._violate(
                node_id,
                "transaction serialization",
                f"page {page_id} transaction for node {requester} ({mode}) started "
                f"while one for node {active[0]} ({active[1]}) is active",
            )
        self._sc_active[page_id] = (requester, mode)

    def on_sc_txn_end(self, node_id: int, page_id: int) -> None:
        self._sc_only(node_id, "on_sc_txn_end")
        self.note(node_id, "sc", f"txn end page {page_id}")
        self._sc_active.pop(page_id, None)

    def _sc_copyset(self, page_id: int) -> set:
        """The mirror's copyset for a page.

        A page absent from the mirror has never diverged from the
        all-SHARED initial state (every node boots with a zero-filled
        replica of every page), so the default is *all nodes* — an
        entry is materialized only once install/invalidate traffic
        touches the page.
        """
        copies = self._sc_copies.get(page_id)
        if copies is None:
            copies = set(range(self.num_nodes))
            self._sc_copies[page_id] = copies
        return copies

    def on_sc_install(self, node_id: int, page_id: int, mode: str) -> None:
        """``node_id`` gained a valid copy (``read``/``write``)."""
        self._sc_only(node_id, "on_sc_install")
        self.note(node_id, "sc", f"install page {page_id} ({mode})")
        copies = self._sc_copyset(page_id)
        copies.add(node_id)
        if mode == "write" and copies != {node_id}:
            self._violate(
                node_id,
                "single writer",
                f"write access to page {page_id} granted while copies remain "
                f"on nodes {sorted(copies - {node_id})}",
            )

    def on_sc_invalidate(self, node_id: int, page_id: int) -> None:
        """``node_id``'s copy of the page was invalidated."""
        self._sc_only(node_id, "on_sc_invalidate")
        self.note(node_id, "sc", f"invalidate page {page_id}")
        copies = self._sc_copyset(page_id)
        if node_id not in copies:
            self._violate(
                node_id,
                "invalidation targeting",
                f"invalidation of page {page_id} delivered to node {node_id}, "
                f"which holds no copy (directory copyset drift)",
            )
        copies.discard(node_id)

    def on_sc_restore(self, node_id: int, invalid_pages) -> None:
        """Rebuild the copy mirror from one node's restored page modes.

        Each node's backend restore reports this after :meth:`on_rollback`
        cleared the mirror.  Only *invalid* pages are reported: a page
        can lose a node's copy only through an invalidation, which
        materializes that node's page record — so any page a node does
        not report invalid, it holds (possibly as the untouched default
        replica), matching the mirror's absent-means-everyone default.
        """
        for page_id in invalid_pages:
            self._sc_copyset(page_id).discard(node_id)

    # -- checkpoint cuts (every protocol) --------------------------------

    def on_barrier_gather(self, barrier_id: int, episode: int, src: int) -> None:
        self._gathered.setdefault((barrier_id, episode), set()).add(src)

    def on_checkpoint(self, node_id: int, barrier_id: int, episode: int) -> None:
        arrivals = sorted(self._gathered.get((barrier_id, episode), ()))
        if len(arrivals) < self.num_nodes:
            self._violate(
                node_id,
                "checkpoint cut spans every node",
                f"barrier {barrier_id} episode {episode} arrivals {arrivals}",
            )

    # -- recovery --------------------------------------------------------

    def on_rollback(self, node_vcs: Optional[list] = None) -> None:
        """Reset derived state after a coordinated rollback.

        Diff applications, twins and barrier arrivals from the discarded
        execution are forgotten; interval ceilings rewind to the
        checkpoint's vector clocks (each proc's own component counts its
        created intervals).
        """
        self._gathered.clear()
        self._applied.clear()
        self._twinned.clear()
        self._sc_copies.clear()
        self._sc_active.clear()
        self._served_covers.clear()
        if node_vcs is not None:
            for proc in range(self.num_nodes):
                self._created[proc] = node_vcs[proc][proc]
        self.note(-1, "rollback", f"ceilings reset to {self._created}")


#: Every name a branch of :func:`check_events` reads (a new branch adds
#: its name here); the fold drops every other event before it reads ``args``.
_READS = frozenset(
    ("interval_close", "write_notices", "twin_create", "diff_admit", "diff_create",
     "home_update", "page_serve", "sc_txn", "sc_invalidate", "sc_dir_start", "sc_dir_end",
     "sc_restore", "barrier_gather", "checkpoint", "recover")
)


def check_events(events: Iterable[Any], num_nodes: int, protocol: str = "lrc") -> None:
    """Fold a run's trace events, in stream order, through the checks;
    raise the first violation's :class:`~repro.errors.ProtocolError`.

    Each ``on_*`` call is taken at the event emitted where its fact
    happens, no yield apart.  ``write_notices`` carries the other
    writers' ``(proc, interval, pages)`` and the receiver's clock before
    them, replayed notice by notice through :class:`VectorClock` as the
    backend applies them; ``home`` marks HLRC's remote ``home_update``
    and whole-page ``page_serve``; ``sc_txn``'s end is the requester's
    install, in the mode its begin names; a ``diff_create`` is a sealed
    twin, so the flush had one; ``checkpoint`` is the ``ft`` instant,
    not the ``cpu`` slice of its cost.
    """
    san = ProtocolSanitizer(num_nodes, protocol)
    txns: dict = {}  # open requester transactions: sc_txn id -> (page, mode)
    for event in events:
        if event.name not in _READS:
            continue
        _ts, ph, cat, name, node, _tid, _dur, eid, args = event
        args = args or {}
        if name == "interval_close":
            san.on_interval_closed(node, args["index"])
        elif name == "write_notices":
            clock = VectorClock(num_nodes, owner=node)
            clock.restore(args["vc"])
            for proc, interval_idx, pages in args["notices"]:
                for page_id in pages:
                    san.on_write_notice(node, proc, interval_idx, page_id)
                    if args["full"]:
                        old = clock[proc]
                        clock.observe(proc, interval_idx)
                        san.on_vc_update(node, proc, old, clock[proc])
        elif name == "twin_create":
            san.on_twin_created(node, args["page"])
        elif name == "diff_admit":
            san.on_diff_applied(
                node, args["page"], args["writer"], args["covers"], args["lamport"]
            )
        elif name == "diff_create":
            san.on_flush(node, args["page"], had_twin=True)
        elif name == "home_update" and "home" in args:
            san.on_home_update(node, args["page"], args["home"])
        elif name == "page_serve" and "home" in args:
            san.on_page_served(node, args["page"], args["home"], args["covers"])
        elif name == "sc_txn" and ph == "b":
            txns[eid] = (args["page"], args["mode"])
        elif name == "sc_txn":
            san.on_sc_install(node, *txns.pop(eid))
        elif name == "sc_invalidate":
            san.on_sc_invalidate(node, args["page"])
        elif name == "sc_dir_start":
            san.on_sc_txn_start(node, args["page"], args["requester"], args["mode"])
        elif name == "sc_dir_end":
            san.on_sc_txn_end(node, args["page"])
        elif name == "sc_restore":
            san.on_sc_restore(node, args["invalid"])
        elif name == "barrier_gather":
            san.on_barrier_gather(args["barrier"], args["episode"], args["src"])
        elif name == "checkpoint" and cat == "ft":
            san.on_checkpoint(node, args["barrier"], args["episode"])
        elif name == "recover":
            san.on_rollback(args["vcs"])
