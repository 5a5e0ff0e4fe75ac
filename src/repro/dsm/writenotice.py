"""Write notices: which pages were modified in which interval.

At each synchronization point a node closes its current interval and
emits one :class:`WriteNotice` per page dirtied during it.  Notices
travel piggybacked on lock grants and barrier releases; the receiver
invalidates the named pages.  :class:`WriteNoticeLog` is the per-node
archive of every notice seen, supporting the "what does node X not know
yet" queries that drive lazy propagation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

__all__ = ["WriteNotice", "WriteNoticeLog", "WIRE_BYTES_PER_NOTICE"]

# Encoded as (proc, interval_idx, lamport, page_id): four 4-byte fields.
WIRE_BYTES_PER_NOTICE = 16


@dataclass(frozen=True, slots=True)
class WriteNotice:
    """Page ``page_id`` was modified by ``proc`` during interval ``interval_idx``."""

    proc: int
    interval_idx: int
    lamport: int
    page_id: int


class WriteNoticeLog:
    """Every write notice a node has seen, indexed for lazy propagation."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        # notices[proc] is ordered by interval_idx (appended in order).
        # CONTAINS ONLY FULLY-TRANSFERRED NOTICES: this log drives
        # unseen_by and (indirectly) vector clocks, whose semantics
        # require per-proc prefix-closure — knowing interval k implies
        # knowing every notice of intervals <= k.  Page-filtered notice
        # sets (diff replies) would punch holes in the prefix; a later
        # grant forwarding the holey knowledge advances the receiver's
        # clock past a notice it never saw, losing it permanently.
        self._by_proc: list[list[WriteNotice]] = [[] for _ in range(num_nodes)]
        #: per-page history (full + page-filtered) for reply closure.
        self._by_page: dict[int, list[WriteNotice]] = {}
        # O(1) duplicate detection per structure.
        self._seen_full: set[tuple[int, int, int]] = set()
        self._seen_page: set[tuple[int, int, int]] = set()

    def add(self, notice: WriteNotice, full: bool = True) -> bool:
        """Insert a notice; returns False if it was already known.

        ``full=False`` marks a page-filtered source (a diff reply): the
        notice enters only the per-page history, never the per-proc log.
        """
        key = (notice.proc, notice.interval_idx, notice.page_id)
        if key not in self._seen_page:
            self._seen_page.add(key)
            history = self._by_page.get(notice.page_id)
            if history is None:
                self._by_page[notice.page_id] = [notice]
            else:
                history.append(notice)
        if not full:
            return False
        if key in self._seen_full:
            return False
        self._seen_full.add(key)
        known = self._by_proc[notice.proc]
        if known and known[-1].interval_idx > notice.interval_idx:
            # Out-of-order arrival of a missed older notice.
            bisect.insort(known, notice, key=lambda n: n.interval_idx)
        else:
            known.append(notice)
        return True

    def notices_for_page(self, page_id: int) -> list[WriteNotice]:
        """Every notice known for one page (all writers)."""
        return list(self._by_page.get(page_id, ()))

    def add_all(self, notices: list[WriteNotice]) -> int:
        return sum(1 for notice in notices if self.add(notice))

    def notices_from(self, proc: int) -> list[WriteNotice]:
        return list(self._by_proc[proc])

    def unseen_by(self, vc_snapshot: tuple[int, ...]) -> list[WriteNotice]:
        """All notices the holder of ``vc_snapshot`` has not yet seen."""
        missing: list[WriteNotice] = []
        for proc, known in enumerate(self._by_proc):
            threshold = vc_snapshot[proc]
            start = bisect.bisect_right(known, threshold, key=lambda n: n.interval_idx)
            missing.extend(known[start:])
        return missing

    def own_notices_after(self, proc: int, interval_idx: int) -> list[WriteNotice]:
        """Notices from ``proc`` with interval index above ``interval_idx``."""
        return [n for n in self._by_proc[proc] if n.interval_idx > interval_idx]

    def total(self) -> int:
        return sum(len(known) for known in self._by_proc)

    def snapshot_state(self) -> dict:
        # WriteNotice is frozen: lists/sets are copied, entries shared.
        return {
            "by_proc": [list(known) for known in self._by_proc],
            "by_page": {pid: list(ns) for pid, ns in self._by_page.items()},
            "seen_full": set(self._seen_full),
            "seen_page": set(self._seen_page),
        }

    def restore_state(self, snap: dict) -> None:
        self._by_proc = [list(known) for known in snap["by_proc"]]
        self._by_page = {pid: list(ns) for pid, ns in snap["by_page"].items()}
        self._seen_full = set(snap["seen_full"])
        self._seen_page = set(snap["seen_page"])

    @staticmethod
    def wire_bytes(notices: list[WriteNotice]) -> int:
        return WIRE_BYTES_PER_NOTICE * len(notices)
