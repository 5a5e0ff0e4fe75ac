"""Exact integer time for one trace: every timestamp as a count of ticks.

A finite float is a dyadic rational ``n / 2**e``, so the timestamps of a
trace share the common denominator ``2**shift`` where ``shift`` is the
largest ``e`` among them.  On that grid every timestamp is an ``int``,
and sums, differences and comparisons of timestamps are exact ``int``
operations: no gcd, no object per operation.  ``shift`` is bounded by
the float format (at most 1074, the exponent of the smallest subnormal),
so a tick count is at worst a few-thousand-bit integer; the simulated
microsecond clocks of this repo land at ``shift = 46``, one or two
machine words per tick count.

A tick count leaves as ``ticks / 2**shift``.  ``int / int`` is correctly
rounded, and so is ``Fraction.__float__`` (the same division on the
reduced pair), so the emitted float is bit-equal to what rational
arithmetic on the same timestamps would print.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

__all__ = ["TickScale"]

Stamp = Union[float, int]


class TickScale:
    """The tick grid of one trace: ``of[x]`` is timestamp ``x`` in ticks."""

    __slots__ = ("of", "shift", "scale")

    def __init__(self, stamps: Iterable[Stamp]) -> None:
        ratios: dict[Stamp, tuple[int, int]] = {}
        shift = 0
        for x in set(stamps):
            try:
                n, d = x.as_integer_ratio()
            except (OverflowError, ValueError):
                raise ValueError(f"non-finite timestamp {x!r} in trace") from None
            e = d.bit_length() - 1
            if e > shift:
                shift = e
            ratios[x] = (n, e)
        #: timestamp -> ticks (``1`` and ``1.0`` hash alike, so JSONL
        #: rows that carry an ``int`` find their float twin).
        self.of: dict[Stamp, int] = {x: n << (shift - e) for x, (n, e) in ratios.items()}
        self.shift = shift
        self.scale = 1 << shift

    def to_float(self, ticks: int) -> float:
        """The correctly rounded float of an exact tick count."""
        return ticks / self.scale

    def to_fraction(self, ticks: int) -> Fraction:
        return Fraction(ticks, self.scale)
