"""Interval tracking and the lazy diff store.

A node's execution is divided into *intervals* delimited by
synchronization operations (and by diff flushes forced by incoming
requests — the "sub-intervals" of Section 3.1).  During an interval the
node accumulates a dirty-page set; closing the interval emits write
notices.  Diffs are created lazily: only when another node (or a
prefetch) asks for a page's modifications is the twin compared against
the current contents.  Each stored diff is tagged with the interval it
was flushed in, and satisfies every earlier notice for that page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory import Diff

__all__ = ["StoredDiff", "IntervalManager", "DiffStore"]


@dataclass(frozen=True, slots=True)
class StoredDiff:
    """A flushed diff, tagged for ordering and coverage.

    ``covers_through`` is the owner's interval index at flush time: a
    requester holding this diff has the page's modifications for every
    owner interval up to and including that index.
    """

    proc: int
    covers_through: int
    lamport: int
    diff: Diff


class DiffStore:
    """Per-node archive of flushed diffs, keyed by page."""

    def __init__(self) -> None:
        self._by_page: dict[int, list[StoredDiff]] = {}
        self.total_flushes = 0
        self.total_diff_bytes = 0

    def add(self, stored: StoredDiff) -> None:
        self._by_page.setdefault(stored.diff.page_id, []).append(stored)
        self.total_flushes += 1
        self.total_diff_bytes += stored.diff.size_bytes

    def diffs_after(self, page_id: int, interval_idx: int) -> list[StoredDiff]:
        """Stored diffs for ``page_id`` flushed after ``interval_idx``."""
        return [d for d in self._by_page.get(page_id, []) if d.covers_through > interval_idx]

    def latest_coverage(self, page_id: int) -> int:
        diffs = self._by_page.get(page_id)
        return diffs[-1].covers_through if diffs else 0

    def pages(self) -> list[int]:
        return list(self._by_page)

    def snapshot_state(self) -> dict:
        # StoredDiff (and the Diff inside) is immutable: lists are
        # copied, entries shared.
        return {
            "by_page": {pid: list(diffs) for pid, diffs in self._by_page.items()},
            "flushes": self.total_flushes,
            "bytes": self.total_diff_bytes,
        }

    def restore_state(self, snap: dict) -> None:
        self._by_page = {pid: list(diffs) for pid, diffs in snap["by_page"].items()}
        self.total_flushes = snap["flushes"]
        self.total_diff_bytes = snap["bytes"]


class IntervalManager:
    """Tracks the node's current interval and its dirty-page set."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.lamport = 0
        self._dirty_pages: set[int] = set()

    @property
    def dirty_pages(self) -> frozenset[int]:
        return frozenset(self._dirty_pages)

    @property
    def has_modifications(self) -> bool:
        return bool(self._dirty_pages)

    def record_write(self, page_id: int) -> None:
        self._dirty_pages.add(page_id)

    def observe_lamport(self, lamport: int) -> None:
        """Advance the scalar clock past a timestamp seen at sync."""
        if lamport > self.lamport:
            self.lamport = lamport

    def snapshot_state(self) -> dict:
        return {"lamport": self.lamport, "dirty": set(self._dirty_pages)}

    def restore_state(self, snap: dict) -> None:
        self.lamport = snap["lamport"]
        self._dirty_pages = set(snap["dirty"])

    def take_dirty(self) -> set[int]:
        """Return and clear the open interval's dirty-page set."""
        pages, self._dirty_pages = self._dirty_pages, set()
        return pages
