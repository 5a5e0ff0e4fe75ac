"""Deterministic log-bucketed latency histograms.

The paper's tables quote *averages*; averages hide exactly the tail
behaviour that distinguishes the latency-tolerance techniques (a lock
chain that serializes shows up at p99 long before it moves the mean).
:class:`Histogram` records a distribution in logarithmic buckets so a
run can report p50/p90/p99/max for page-fault service time, diff-fetch
round trips, lock waits, and so on.

Design constraints, mirroring the tracer:

- **Deterministic.**  Bucket indices come from :func:`math.frexp`
  (exact binary decomposition), never from ``log`` rounding, so the
  same value always lands in the same bucket on every platform, and two
  runs of the same seed serialize byte-identically.
- **Mergeable.**  Buckets are sparse ``index -> count`` maps; merging
  is field-wise addition, so per-node histograms can be combined into a
  cluster-wide distribution in any grouping (merge is associative and
  commutative — there is a test for this).  A merged total is the
  exactly rounded sum (``math.fsum``) of the recorded totals, since
  float addition alone is not associative.
- **Cheap.**  Recording is one ``frexp``, one dict increment and four
  scalar updates; no allocation beyond the first hit of a bucket.

Resolution: :data:`SUBBUCKETS` buckets per power of two gives a worst
case relative error of ``1/SUBBUCKETS`` (~12.5% at the default 8) on
any reported quantile, which is ample for "did p99 regress by 2x".
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["Histogram", "SUBBUCKETS"]

#: Buckets per octave (power of two).  Part of the wire format: merging
#: histograms with different resolutions is a hard error, so this is a
#: module constant rather than a per-instance knob.
SUBBUCKETS = 8


def _bucket_index(value: float) -> int:
    """Bucket index for a non-negative value.

    Bucket 0 holds everything below 1.0 (sub-microsecond noise);
    bucket ``(e-1)*SUBBUCKETS + s + 1`` holds values with binary
    exponent ``e`` subdivided linearly by mantissa into ``SUBBUCKETS``
    slots.  Pure integer/frexp arithmetic: no log rounding.
    """
    if value < 1.0:
        return 0
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    sub = int((mantissa - 0.5) * 2.0 * SUBBUCKETS)
    if sub >= SUBBUCKETS:  # mantissa == 1.0 - epsilon edge
        sub = SUBBUCKETS - 1
    return (exponent - 1) * SUBBUCKETS + sub + 1


def _bucket_upper(index: int) -> float:
    """Exclusive upper bound of a bucket (inclusive for bucket 0)."""
    if index <= 0:
        return 1.0
    octave, sub = divmod(index - 1, SUBBUCKETS)
    return (2.0 ** (octave - 1)) * (1.0 + (sub + 1) / SUBBUCKETS) * 2.0


class Histogram:
    """A sparse log-bucketed histogram of non-negative samples."""

    __slots__ = ("count", "total", "min", "max", "buckets", "_addends")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = 0.0
        self.buckets: dict[int, int] = {}
        #: A merge's recorded totals; its ``total`` is their exactly
        #: rounded sum, whatever the order and grouping of the merges.
        self._addends: tuple[float, ...] = ()

    # -- recording ---------------------------------------------------------

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram sample must be non-negative, got {value}")
        self.count += 1
        self.total += value
        self._addends = ()
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # -- queries -----------------------------------------------------------

    @property
    def empty(self) -> bool:
        return self.count == 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1); 0.0 when empty.

        Walks buckets in index order to the bucket containing the target
        rank and reports that bucket's upper bound, clamped into the
        exact observed [min, max] — so ``quantile(1.0) == max`` and no
        reported quantile can fall outside the true range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                estimate = _bucket_upper(index)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def summary(self) -> dict[str, float]:
        """The quantile row reports and benchmarks embed."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max if self.count else 0.0,
        }

    # -- merging -----------------------------------------------------------

    def merged_with(self, other: "Histogram") -> "Histogram":
        """Field-wise sum; associative and commutative."""
        merged = Histogram()
        merged.count = self.count + other.count
        merged._addends = self._sums() + other._sums()
        merged.total = math.fsum(merged._addends)
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        merged.buckets = dict(self.buckets)
        for index, bucket_count in other.buckets.items():
            merged.buckets[index] = merged.buckets.get(index, 0) + bucket_count
        return merged

    def _sums(self) -> tuple[float, ...]:
        return self._addends or ((self.total,) if self.count else ())

    @staticmethod
    def merge(histograms: Iterable["Histogram"]) -> "Histogram":
        merged = Histogram()
        for histogram in histograms:
            merged = merged.merged_with(histogram)
        return merged

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; bucket keys sorted so output is canonical."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "buckets": {str(index): self.buckets[index] for index in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls()
        histogram.count = int(data["count"])
        histogram.total = float(data["total"])
        histogram.min = float(data["min"]) if histogram.count else math.inf
        histogram.max = float(data["max"])
        histogram.buckets = {int(index): int(n) for index, n in data["buckets"].items()}
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.count == 0:
            return "<Histogram empty>"
        return (
            f"<Histogram n={self.count} mean={self.mean:.1f} "
            f"p99={self.quantile(0.99):.1f} max={self.max:.1f}>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Histogram is mutable and unhashable")


def bucket_bounds(index: int) -> tuple[float, float]:
    """(inclusive lower, exclusive upper) bounds of a bucket — exposed
    for tests and for rendering bucket tables."""
    if index <= 0:
        return (0.0, 1.0)
    octave, sub = divmod(index - 1, SUBBUCKETS)
    lower = (2.0 ** octave) * (1.0 + sub / SUBBUCKETS)
    return (lower, _bucket_upper(index))
