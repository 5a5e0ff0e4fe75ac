"""Write notices: which pages were modified in which interval.

At each synchronization point a node closes its current interval and
emits one :class:`IntervalRecord` naming every page dirtied during it; a
*write notice* is one ``(record, page)`` pair, the unit the wire, the CPU
charge and the trace count in.  Records travel piggybacked
on lock grants and barrier releases, shared by reference; the receiver
invalidates the named pages it holds.  :class:`WriteNoticeLog` is the
per-node archive of every record seen, supporting the "what does node X
not know yet" queries that drive lazy propagation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

__all__ = ["IntervalRecord", "RecordIndex", "WriteNoticeLog", "indexed"]

_interval_idx = attrgetter("interval_idx")
_proc_interval = attrgetter("proc", "interval_idx")


@dataclass(frozen=True, slots=True)
class IntervalRecord:
    """``proc`` modified ``pages`` (ascending) during interval ``interval_idx``."""

    proc: int
    interval_idx: int
    lamport: int
    pages: tuple[int, ...]

    def only(self, page_id: int) -> "IntervalRecord":
        """The page-filtered form a diff reply carries."""
        if len(self.pages) == 1:
            return self
        return IntervalRecord(self.proc, self.interval_idx, self.lamport, (page_id,))


#: page -> every record of a run naming it, in creation order.  One per
#: run, shared by every node's log: a record is indexed once, when its
#: writer closes it (:func:`indexed`), never by the logs that merge it.
RecordIndex = dict[int, list[IntervalRecord]]


def indexed(index: RecordIndex, record: IntervalRecord) -> IntervalRecord:
    """Enter a just-created ``record`` under each page it names."""
    for page_id in record.pages:
        index.setdefault(page_id, []).append(record)
    return record


def notice_count(records: list[IntervalRecord]) -> int:
    """Write notices in ``records``: one per page named."""
    return sum([len(record.pages) for record in records])


def wire_bytes(records: list[IntervalRecord]) -> int:
    """A record's encoding: a (proc, interval_idx, lamport) header of
    4-byte fields, then a 4-byte id per page named."""
    return 12 * len(records) + 4 * notice_count(records)


class WriteNoticeLog:
    """Every interval record a node has seen, indexed for lazy propagation."""

    def __init__(self, num_nodes: int, index: RecordIndex) -> None:
        # _by_proc[proc] is ordered by interval_idx, one record each, and
        # CONTAINS ONLY FULLY-TRANSFERRED RECORDS: it drives unseen_by and
        # (indirectly) vector clocks, which need per-proc prefix-closure —
        # knowing interval k implies knowing every notice of intervals <= k.
        # A page-filtered record (diff reply) would punch a hole; a later
        # grant forwarding the holey knowledge advances the receiver's
        # clock past a notice it never saw, losing it permanently.
        self._by_proc: list[list[IntervalRecord]] = [[] for _ in range(num_nodes)]
        #: page -> (proc, interval_idx) -> a record naming the page (full or
        #: page-filtered), for reply closure; held pages only (:meth:`history`).
        self._by_page: dict[int, dict[tuple[int, int], IntervalRecord]] = {}
        self._total = 0  # write notices (pages named) in ``_by_proc``
        self._index = index  # the run's, for a page's first history

    def merge(
        self, records: list[IntervalRecord], full: bool = True, skip_proc: int = -1
    ) -> None:
        """Insert a batch: O(1) per record plus one lookup per page named.

        ``full=False`` marks a page-filtered source (a diff reply): the
        records enter only their page's history (held from then on), never
        the per-proc log.  ``skip_proc``'s (the receiver's own) are ignored.
        """
        by_page = self._by_page
        for record in records:
            proc = record.proc
            if proc == skip_proc:
                continue
            idx = record.interval_idx
            if full:
                known = self._by_proc[proc]
                at = len(known)
                if at and known[-1].interval_idx >= idx:
                    # A duplicate, or a missed older interval come late.
                    at = bisect_left(known, idx, key=_interval_idx)
                    if known[at].interval_idx == idx:
                        continue  # held, so already in every tracked history
                known.insert(at, record)
                self._total += len(record.pages)
            key = (proc, idx)
            for page_id in record.pages:
                history = by_page.get(page_id) if full else self.history(page_id)
                if history is not None and key not in history:
                    history[key] = record

    def history(self, page_id: int) -> dict[tuple[int, int], IntervalRecord]:
        """Every record known to name one page (all writers), read-only.
        Asking makes the page *held*: the first call builds this from the
        per-proc log's records among the run's index entries for the page
        (in per-proc, not arrival, order), ``merge`` keeps it."""
        history = self._by_page.get(page_id)
        if history is None:
            history = self._by_page[page_id] = {
                (record.proc, record.interval_idx): record
                for record in sorted(self._index.get(page_id, ()), key=_proc_interval)
                if self._holds(record)
            }
        return history

    def _holds(self, record: IntervalRecord) -> bool:
        """Is ``record`` itself in the per-proc log?  By identity: a
        rollback closes an interval again as a new record, same key."""
        known = self._by_proc[record.proc]
        at = bisect_left(known, record.interval_idx, key=_interval_idx)
        return at < len(known) and known[at] is record

    def unseen_by(self, vc_snapshot: tuple[int, ...]) -> list[IntervalRecord]:
        """All records the holder of ``vc_snapshot`` has not yet seen."""
        missing: list[IntervalRecord] = []
        for known, threshold in zip(self._by_proc, vc_snapshot):
            if known and known[-1].interval_idx > threshold:
                missing.extend(known[bisect_right(known, threshold, key=_interval_idx):])
        return missing

    def own_notices_after(self, proc: int, interval_idx: int) -> list[IntervalRecord]:
        """Records from ``proc`` with interval index above ``interval_idx``."""
        known = self._by_proc[proc]
        return known[bisect_right(known, interval_idx, key=_interval_idx):]

    def total(self) -> int:
        return self._total

    def snapshot_state(self) -> dict:
        # IntervalRecord is frozen: containers are copied, entries shared.
        return {
            "by_proc": [list(known) for known in self._by_proc],
            "by_page": {pid: dict(history) for pid, history in self._by_page.items()},
            "total": self._total,
        }

    def restore_state(self, snap: dict) -> None:
        self._by_proc = [list(known) for known in snap["by_proc"]]
        self._by_page = {pid: dict(history) for pid, history in snap["by_page"].items()}
        self._total = snap["total"]
