"""Per-node, per-page coherence state.

A page on a node is *valid* when, for every other node, the diffs
applied locally cover every write notice received; the count of writers
for which they do not (``stale``) is maintained incrementally, so
validity is one integer test, not a scan over nodes.  Writes additionally
track a *twin* (clean copy) from which diffs are computed, and a dirty
flag cleared when a diff is flushed (the page is then "write-protected";
the next write opens a sub-interval and a fresh twin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.memory.diff import Diff
from repro.sim import Event

__all__ = ["PageCoherence"]


@dataclass(slots=True)
class PageCoherence:
    """Coherence metadata for one page on one node."""

    page_id: int
    num_nodes: int
    #: Highest interval index per writer whose modifications are applied
    #: to the local copy.
    applied_upto: list[int] = field(default_factory=list)
    #: Highest interval index per writer for which a write notice exists.
    needed_upto: list[int] = field(default_factory=list)
    #: Writers with ``needed_upto > applied_upto``; kept by the two
    #: ``note_*`` methods and ``from_snapshot``, the lists' only writers.
    stale: int = field(default=0, init=False)
    dirty: bool = False
    twin: Optional[np.ndarray] = None
    #: Set when an interval close announced this (still dirty) page:
    #: the next local write must open a fresh write notice, exactly as
    #: TreadMarks' per-interval write protection forces a fault.
    write_protected: bool = False
    #: Per-word lamport watermark of applied remote diffs (lazy); see
    #: :meth:`apply_diff`.
    word_lamports: Optional[np.ndarray] = None
    #: At least every stamp in ``word_lamports``: a diff stamped at or
    #: above it is newer than every word it touches.
    ceiling: int = field(default=0, init=False)
    #: In-flight fault/fetch completion event (shared by all local
    #: threads faulting on the page — request combining).
    fetch_event: Optional[Event] = None

    def __post_init__(self) -> None:
        if not self.applied_upto:
            self.applied_upto = [0] * self.num_nodes
        if not self.needed_upto:
            self.needed_upto = [0] * self.num_nodes

    @property
    def valid(self) -> bool:
        return not self.stale

    @property
    def fetch_in_flight(self) -> bool:
        return self.fetch_event is not None and not self.fetch_event.triggered

    def stale_writers(self) -> list[int]:
        """Writers whose modifications are still missing locally."""
        return [
            proc
            for proc, (applied, needed) in enumerate(zip(self.applied_upto, self.needed_upto))
            if needed > applied
        ]

    def missing_writers(self, held: dict[int, int]) -> list[tuple[int, int]]:
        """``(writer, have)`` per stale writer that ``held`` — writer ->
        interval covered by diffs gathered or cached, not yet applied —
        does not satisfy either; ``have`` is the ``t_have`` to ask from."""
        missing = []
        for writer in self.stale_writers():
            have = max(self.applied_upto[writer], held.get(writer, 0))
            if self.needed_upto[writer] > have:
                missing.append((writer, have))
        return missing

    def note_write_notice(self, proc: int, interval_idx: int) -> bool:
        """Record an invalidation; returns True if the page became stale."""
        needed = self.needed_upto
        if interval_idx <= needed[proc]:
            return False
        newly_stale = needed[proc] <= self.applied_upto[proc] < interval_idx
        needed[proc] = interval_idx
        if newly_stale:
            self.stale += 1
        return newly_stale and self.stale == 1

    def note_diffs_applied(self, proc: int, covers_through: int) -> None:
        applied = self.applied_upto
        if covers_through > applied[proc]:
            if applied[proc] < self.needed_upto[proc] <= covers_through:
                self.stale -= 1
            applied[proc] = covers_through

    def apply_diff(self, page: np.ndarray, diff: Diff, lamport: int) -> None:
        """Apply a remote diff made at ``lamport`` to ``page`` (and to the
        twin of a dirty page) in happened-before-1 order.

        A word is written only if no LATER interval's diff already
        supplied it, whatever order the diffs arrive in.  One stamp per
        8-byte word is enough: a diff is made of whole words, so the
        bytes of a word are always stamped together, and page and twin
        are handled as ``uint64`` views.  A diff is one scatter per target,
        after one gather and mask unless it is at or above :attr:`ceiling`.
        """
        marks = self.word_lamports
        if marks is None:
            marks = self.word_lamports = np.zeros(len(page) // 8, dtype=np.int64)
        index = diff.word_index(len(marks))
        words = diff.words
        if lamport >= self.ceiling:
            self.ceiling = lamport
        else:
            newer = marks[index] <= lamport
            index, words = np.arange(len(marks))[index][newer], words[newer]
        marks[index] = lamport
        page.view(np.uint64)[index] = words
        if self.dirty and self.twin is not None:
            self.twin.view(np.uint64)[index] = words

    # -- checkpoint / recovery -------------------------------------------

    def snapshot_state(self) -> dict:
        """Deep-copied coherence metadata (``fetch_event`` excluded: no
        fetch can be in flight at a consistent cut, and events cannot
        cross a rollback)."""
        return {
            "applied_upto": list(self.applied_upto),
            "needed_upto": list(self.needed_upto),
            "dirty": self.dirty,
            "twin": None if self.twin is None else self.twin.copy(),
            "write_protected": self.write_protected,
            "word_lamports": None if self.word_lamports is None else self.word_lamports.copy(),
        }

    @classmethod
    def from_snapshot(cls, page_id: int, num_nodes: int, snap: dict) -> "PageCoherence":
        state = cls(page_id, num_nodes)
        state.applied_upto = list(snap["applied_upto"])
        state.needed_upto = list(snap["needed_upto"])
        state.stale = len(state.stale_writers())
        state.dirty = snap["dirty"]
        state.twin = None if snap["twin"] is None else snap["twin"].copy()
        state.write_protected = snap["write_protected"]
        marks = snap["word_lamports"]
        if marks is not None:
            state.word_lamports = marks.copy()
            state.ceiling = int(marks.max())
        return state
