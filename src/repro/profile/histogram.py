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
- **Order-free total.**  Each sample is recorded with the node it was
  taken on, and the histogram keeps one float sum per node, added in
  recording order.  ``total`` is the exactly rounded sum
  (``math.fsum``) of those sums, so it does not depend on how the
  nodes' samples interleave; counts, extremes and buckets are integer
  or order-free already.
- **Cheap.**  Recording is one ``frexp``, two dict increments and three
  scalar updates; no allocation beyond the first hit of a bucket.

Resolution: :data:`SUBBUCKETS` buckets per power of two gives a worst
case relative error of ``1/SUBBUCKETS`` (~12.5% at the default 8) on
any reported quantile, which is ample for "did p99 regress by 2x".
"""

from __future__ import annotations

import math

__all__ = ["Histogram", "SUBBUCKETS"]

#: Buckets per octave (power of two).  Part of the report format: a
#: profile's bucket indices mean nothing without it, so this is a module
#: constant rather than a per-instance knob.
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

    __slots__ = ("count", "min", "max", "buckets", "sums")

    def __init__(self) -> None:
        self.count: int = 0
        self.min: float = math.inf
        self.max: float = 0.0
        self.buckets: dict[int, int] = {}
        #: node -> that node's samples summed in recording order.
        self.sums: dict[int, float] = {}

    def record(self, value: float, node: int = 0) -> None:
        if value < 0:
            raise ValueError(f"histogram sample must be non-negative, got {value}")
        self.count += 1
        self.sums[node] = self.sums.get(node, 0.0) + value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def total(self) -> float:
        return math.fsum(self.sums.values())

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

    def to_dict(self) -> dict:
        """JSON-safe form; bucket keys sorted so output is canonical."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "buckets": {str(index): self.buckets[index] for index in sorted(self.buckets)},
        }


def bucket_bounds(index: int) -> tuple[float, float]:
    """(inclusive lower, exclusive upper) bounds of a bucket — exposed
    for tests and for rendering bucket tables."""
    if index <= 0:
        return (0.0, 1.0)
    octave, sub = divmod(index - 1, SUBBUCKETS)
    lower = (2.0 ** octave) * (1.0 + sub / SUBBUCKETS)
    return (lower, _bucket_upper(index))
