"""Per-node time and event accounting.

The paper reports execution time split into the categories of Figures
1-5: Busy, DSM Overhead, Memory Miss Idle, Synchronization Idle, plus
Prefetch Overhead and Multithreading Overhead when the respective
technique is on.  :class:`TimeBreakdown` accumulates the *charged*
categories; idle time is derived as wall time minus charges and is
attributed to memory or synchronization by the scheduler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum

__all__ = ["Category", "StallKind", "TimeBreakdown", "EventCounters"]


class Category(str, Enum):
    """Where a microsecond of CPU (or idle wall) time goes."""

    BUSY = "busy"
    DSM = "dsm_overhead"
    PREFETCH = "prefetch_overhead"
    MT = "mt_overhead"
    MEMORY_IDLE = "memory_idle"
    SYNC_IDLE = "sync_idle"
    # Fault-tolerance categories (repro.ft): all zero unless FT is on.
    CHECKPOINT = "checkpoint"
    RECOVERY = "recovery"
    #: Wall time a crashed node spent dead (crash -> restart); idle-like.
    DOWNTIME = "downtime"


class StallKind(str, Enum):
    """Why a thread is blocked (classifies the idle time it causes)."""

    MEMORY = "memory"
    LOCK = "lock"
    BARRIER = "barrier"

    @property
    def idle_category(self) -> Category:
        return Category.MEMORY_IDLE if self is StallKind.MEMORY else Category.SYNC_IDLE


@dataclass
class TimeBreakdown:
    """Accumulated microseconds per category for one node."""

    times: dict[Category, float] = field(
        default_factory=lambda: {category: 0.0 for category in Category}
    )

    def charge(self, category: Category, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative charge {amount} to {category}")
        self.times[category] += amount

    @property
    def charged_cpu(self) -> float:
        """CPU-occupying time (excludes idle categories)."""
        return (
            self.times[Category.BUSY]
            + self.times[Category.DSM]
            + self.times[Category.PREFETCH]
            + self.times[Category.MT]
            + self.times[Category.CHECKPOINT]
            + self.times[Category.RECOVERY]
        )

    @property
    def total(self) -> float:
        return sum(self.times.values())

    def as_dict(self) -> dict[str, float]:
        """Stable string keys (``Category.value``), in declaration
        order — emitted explicitly, never via ``dataclasses.asdict``
        (whose key rendering depends on the enum's str-ness)."""
        return {category.value: self.times[category] for category in Category}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "TimeBreakdown":
        """Inverse of :meth:`as_dict`; unknown category names raise.

        Missing categories stay zero, so payloads written before a
        category existed load cleanly.
        """
        breakdown = cls()
        for name, value in data.items():
            breakdown.times[Category(name)] = float(value)
        return breakdown

    @classmethod
    def from_json(cls, text: str) -> "TimeBreakdown":
        return cls.from_dict(json.loads(text))

    def merged_with(self, other: "TimeBreakdown") -> "TimeBreakdown":
        merged = TimeBreakdown()
        for category in Category:
            merged.times[category] = self.times[category] + other.times[category]
        return merged


@dataclass
class EventCounters:
    """Event counts and stall sums used by Tables 1 and 2."""

    remote_misses: int = 0
    remote_miss_stall: float = 0.0
    #: faults satisfied without remote messages (e.g. from the prefetch
    #: heap) — not "misses" in the paper's Table 1 sense.
    cache_faults: int = 0
    remote_lock_misses: int = 0
    remote_lock_stall: float = 0.0
    barrier_waits: int = 0
    barrier_stall: float = 0.0
    context_switches: int = 0
    # Reliable-transport activity (zero in fault-free runs with a
    # generous timeout; the chaos suite asserts they move under loss).
    retransmissions: int = 0
    transport_timeouts: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0
    #: Reliable messages the transport abandoned (give-ups).
    retries_exhausted: int = 0
    #: Arrivals discarded by the end-to-end checksum (injected bit
    #: corruption); each one costs a receive and provokes a retransmit.
    corruption_detected: int = 0
    # Adaptive-transport backpressure (zero with the adaptive layer off).
    #: Sends the AIMD window deferred into the transport pacing queue.
    messages_paced: int = 0
    #: Prefetches shed at the source because the transport reported the
    #: destination under pressure (counted, never silent).
    prefetch_shed: int = 0
    # Thread run lengths: busy time between consecutive long-latency events.
    run_lengths_sum: float = 0.0
    run_lengths_count: int = 0

    def merged_with(self, other: "EventCounters") -> "EventCounters":
        """Field-wise sum.  Iterates the dataclass fields so a counter
        added later is aggregated without touching this method."""
        merged = EventCounters()
        for spec in fields(self):
            setattr(
                merged,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return merged

    def as_dict(self) -> dict[str, float]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def record_run_length(self, length: float) -> None:
        if length > 0:
            self.run_lengths_sum += length
            self.run_lengths_count += 1

    @property
    def avg_run_length(self) -> float:
        if self.run_lengths_count == 0:
            return 0.0
        return self.run_lengths_sum / self.run_lengths_count

    @property
    def avg_miss_stall(self) -> float:
        return self.remote_miss_stall / self.remote_misses if self.remote_misses else 0.0

    @property
    def avg_lock_stall(self) -> float:
        return self.remote_lock_stall / self.remote_lock_misses if self.remote_lock_misses else 0.0

    @property
    def avg_barrier_stall(self) -> float:
        return self.barrier_stall / self.barrier_waits if self.barrier_waits else 0.0

    @property
    def total_stall(self) -> float:
        return self.remote_miss_stall + self.remote_lock_stall + self.barrier_stall

    @property
    def total_stall_events(self) -> int:
        return self.remote_misses + self.remote_lock_misses + self.barrier_waits

    @property
    def avg_stall(self) -> float:
        events = self.total_stall_events
        return self.total_stall / events if events else 0.0
