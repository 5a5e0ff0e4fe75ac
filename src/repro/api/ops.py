"""The operation vocabulary of application threads.

Application code runs as generators that *yield operation objects*; the
node scheduler interprets them against the DSM.  This mirrors how a real
DSM program interleaves computation, shared loads/stores, explicit
synchronization, and (optionally) prefetch calls::

    def body(tid):
        yield Acquire(3)
        row = yield Read(addr, 64, dtype=np.float64)
        yield Compute(12.5)
        yield Write(addr, row * 2)
        yield Release(3)
        yield Barrier(0)

``Read`` yields back the bytes at the address, viewed as ``dtype``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["Compute", "Read", "Write", "Acquire", "Release", "Barrier", "Prefetch", "Op"]


@dataclass(frozen=True)
class Compute:
    """Spend ``us`` microseconds of pure computation."""

    us: float

    def __post_init__(self) -> None:
        if not 0 <= self.us < float("inf"):
            raise ValueError(f"compute time must be finite and >= 0, got {self.us}")


@dataclass(frozen=True)
class Read:
    """Load ``nbytes`` from shared address ``addr``.

    The scheduler faults in any stale page (sequentially, in address
    order — a loop over the region faults as it walks) and sends back
    the data viewed as ``dtype``.
    """

    addr: int
    nbytes: int
    dtype: np.dtype = np.dtype(np.uint8)


@dataclass(frozen=True)
class Write:
    """Store ``data`` (any scalar numpy dtype) at shared address ``addr``."""

    addr: int
    data: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


@dataclass(frozen=True)
class Acquire:
    """Acquire a global lock (an LRC acquire)."""

    lock_id: int


@dataclass(frozen=True)
class Release:
    """Release a global lock (an LRC release)."""

    lock_id: int


@dataclass(frozen=True)
class Barrier:
    """Arrive at a global barrier; resumes when all threads arrive."""

    barrier_id: int


@dataclass(frozen=True)
class Prefetch:
    """Issue non-binding prefetches for the pages covering ``regions``.

    ``dedup_key``: threads on one node prefetching the same data under
    the combined scheme pass a shared key; the first toucher suppresses
    the others' redundant prefetches (Section 5.1).
    """

    regions: tuple[tuple[int, int], ...]  # (addr, nbytes) pairs
    dedup_key: Optional[str] = None

    @staticmethod
    def of(regions: Sequence[tuple[int, int]], dedup_key: Optional[str] = None) -> "Prefetch":
        return Prefetch(tuple((int(a), int(n)) for a, n in regions), dedup_key)


Op = Compute | Read | Write | Acquire | Release | Barrier | Prefetch
