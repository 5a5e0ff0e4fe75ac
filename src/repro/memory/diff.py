"""Twin/diff machinery of the multiple-writer protocol.

TreadMarks lets several nodes write the same page concurrently; each
writer keeps a clean copy (*twin*) made at its first write, and later
produces a *diff* — the words where the modified page differs from the
twin, grouped into runs.  Applying all writers' diffs to any copy of the
page merges the concurrent modifications (they are guaranteed disjoint
for data-race-free programs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PagedMemoryError

__all__ = ["Diff", "make_diff", "apply_diff"]

# Per-run encoding overhead in the wire format: 2 shorts (offset, length).
RUN_HEADER_BYTES = 4
# Fixed diff header (page id, interval id, run count).
DIFF_HEADER_BYTES = 12


@dataclass(slots=True)
class Diff:
    """A page delta as word arrays.

    Attributes:
        page_id: which page this diff modifies.
        words: the new values of the changed 8-byte words, in page
            order (``uint64``).
        runs: ``(start, end)`` word indices of each maximal run of
            changed words, ascending and disjoint; shape ``(runs, 2)``.
            The wire format ships one header per run, so the run count
            is part of the diff's size.
    """

    page_id: int
    words: np.ndarray
    runs: np.ndarray

    @property
    def is_empty(self) -> bool:
        return not len(self.words)

    @property
    def modified_bytes(self) -> int:
        return 8 * len(self.words)

    @property
    def size_bytes(self) -> int:
        """Encoded size on the wire."""
        return DIFF_HEADER_BYTES + RUN_HEADER_BYTES * len(self.runs) + 8 * len(self.words)

    def word_index(self, page_words: int) -> np.ndarray:
        """The page word each entry of :attr:`words` lands on, checked
        against a page of ``page_words`` words."""
        runs = self.runs
        if len(runs) and (runs[0, 0] < 0 or runs[-1, 1] > page_words):
            raise PagedMemoryError(
                f"diff runs [{runs[0, 0]}, {runs[-1, 1]}) outside page of {page_words} words"
            )
        starts, ends = runs.T
        lengths = ends - starts
        skipped = starts - (lengths.cumsum() - lengths)  # unchanged words before each run
        return skipped.repeat(lengths) + np.arange(len(self.words))


def make_diff(page_id: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Compute the delta turning ``twin`` into ``current``.

    Comparison is at **word** (8-byte) granularity, exactly as in
    TreadMarks.  Word granularity matters for correctness, not just
    fidelity: a value change can leave some of its bytes coincidentally
    equal, and byte-granular runs would then ship *partial* values —
    a later out-of-order application could interleave bytes of two
    writes into a torn word.
    """
    if twin.shape != current.shape:
        raise PagedMemoryError("twin and page must have identical shapes")
    if len(twin) % 8:
        raise PagedMemoryError("pages must be a whole number of 8-byte words")
    words = current.view(np.uint64)
    # The changed-word mask with one unchanged word of padding per side:
    # every run then starts and ends where the mask flips.
    padded = np.zeros(len(words) + 2, dtype=bool)
    changed = padded[1:-1]
    np.not_equal(twin.view(np.uint64), words, out=changed)
    runs = (padded[1:] != padded[:-1]).nonzero()[0].reshape(-1, 2)
    return Diff(page_id, words[changed], runs)


def apply_diff(page: np.ndarray, diff: Diff) -> None:
    """Apply ``diff`` to ``page`` in place."""
    page.view(np.uint64)[diff.word_index(len(page) >> 3)] = diff.words
