"""Traffic accounting for the interconnect.

Tracks, per message kind and overall: message counts, payload bytes,
drops, and latency sums — enough to regenerate the "Total Traffic" and
"All Messages" columns of the paper's Tables 1 and 2.

The reliability layers add two more families of counters:

- *injected faults* (:meth:`TrafficStats.record_injected`), recorded by
  the fault-injection layer per fault kind (drop, duplicate, delay,
  degrade, stall, partition, corrupt) and message kind;
- *retransmissions* (:meth:`TrafficStats.record_retransmit`), recorded
  by the reliable transport whenever a timeout forces a resend;
- *backpressure* (:meth:`TrafficStats.record_paced` and
  :meth:`TrafficStats.record_shed`), recorded by the adaptive transport
  when a send is deferred into the pacing queue and by the prefetch
  engine when a speculative request is shed at the source.

:meth:`TrafficStats.kind_breakdown` flattens everything into one
per-kind table, so experiment output can separate prefetch-drop
behaviour from protocol-retransmit behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.network.message import Message, MessageKind

__all__ = ["TrafficStats", "TransportExtremes", "FAULT_KINDS"]

#: The fault vocabulary of the injection layer (repro.network.faults).
FAULT_KINDS = ("drop", "duplicate", "delay", "degrade", "stall", "partition", "corrupt")


@dataclass
class TransportExtremes:
    """Worst-case excursions of the adaptive transport's live state.

    End-of-run gauges (``health_snapshot``) only show *final* values: a
    congestion window that collapsed to the floor mid-run and recovered
    looks identical to one that never moved.  These watermarks record
    the excursions themselves, deterministically, without telemetry:

    - ``max_backlog`` — high-water mark of any single peer's pacing
      queue (sends deferred by a full AIMD window);
    - ``min_cwnd`` — smallest congestion window any multiplicative
      decrease produced (``-1`` until the first halving: a window that
      never shrank has no meaningful minimum);
    - ``max_rto_us`` — largest RTO the estimator or retained timeout
      backoff ever set.
    """

    max_backlog: int = 0
    min_cwnd: float = -1.0
    max_rto_us: float = 0.0

    def observe_backlog(self, backlog: int) -> None:
        if backlog > self.max_backlog:
            self.max_backlog = backlog

    def observe_cwnd(self, cwnd: float) -> None:
        if self.min_cwnd < 0 or cwnd < self.min_cwnd:
            self.min_cwnd = cwnd

    def observe_rto(self, rto_us: float) -> None:
        if rto_us > self.max_rto_us:
            self.max_rto_us = rto_us

    def as_dict(self) -> dict[str, float]:
        return {
            "max_backlog": self.max_backlog,
            "min_cwnd": round(self.min_cwnd, 3),
            "max_rto_us": round(self.max_rto_us, 3),
        }


@dataclass
class TrafficStats:
    """Aggregate counters, updated by the :class:`~repro.network.network.Network`."""

    messages_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))
    drops_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))
    latency_sum_by_kind: dict[MessageKind, float] = field(default_factory=lambda: defaultdict(float))
    delivered_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))
    retransmits_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))
    #: fault name -> message kind -> count of injected faults.
    injected_by_fault: dict[str, dict[MessageKind, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )
    #: Sends deferred by the adaptive transport's pacing queue.
    paced_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))
    #: Speculative messages shed at the source under backpressure.
    shed_by_kind: dict[MessageKind, int] = field(default_factory=lambda: defaultdict(int))

    def record_send(self, message: Message) -> None:
        self.messages_by_kind[message.kind] += 1
        self.bytes_by_kind[message.kind] += message.size_bytes

    def record_drop(self, message: Message) -> None:
        self.drops_by_kind[message.kind] += 1

    def record_delivery(self, message: Message) -> None:
        self.delivered_by_kind[message.kind] += 1
        self.latency_sum_by_kind[message.kind] += message.latency

    def record_retransmit(self, message: Message) -> None:
        self.retransmits_by_kind[message.kind] += 1

    def record_injected(self, fault: str, message: Message) -> None:
        self.injected_by_fault[fault][message.kind] += 1

    def record_paced(self, message: Message) -> None:
        self.paced_by_kind[message.kind] += 1

    def record_shed(self, kind: MessageKind) -> None:
        """Shed messages never exist as objects — recorded by kind."""
        self.shed_by_kind[kind] += 1

    # -- aggregates -------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    @property
    def total_drops(self) -> int:
        return sum(self.drops_by_kind.values())

    @property
    def total_retransmits(self) -> int:
        return sum(self.retransmits_by_kind.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed_by_kind.values())

    def injected_count(self, fault: str) -> int:
        return sum(self.injected_by_fault.get(fault, {}).values())

    def mean_latency(self, kind: MessageKind) -> float:
        delivered = self.delivered_by_kind.get(kind, 0)
        if delivered == 0:
            return 0.0
        return self.latency_sum_by_kind[kind] / delivered

    def kind_breakdown(self) -> dict[str, dict[str, float]]:
        """Per-message-kind table: sent/delivered/dropped/retransmits/faults.

        Keys are the ``MessageKind`` values (strings), so the table is
        JSON-friendly for reports and experiment output.
        """
        kinds: set[MessageKind] = set()
        for counters in (
            self.messages_by_kind,
            self.delivered_by_kind,
            self.drops_by_kind,
            self.retransmits_by_kind,
            self.paced_by_kind,
            self.shed_by_kind,
        ):
            kinds.update(counters)
        for by_kind in self.injected_by_fault.values():
            kinds.update(by_kind)
        table: dict[str, dict[str, float]] = {}
        for kind in sorted(kinds, key=lambda k: k.value):
            row: dict[str, float] = {
                "sent": self.messages_by_kind.get(kind, 0),
                "kbytes": self.bytes_by_kind.get(kind, 0) / 1024.0,
                "delivered": self.delivered_by_kind.get(kind, 0),
                "dropped": self.drops_by_kind.get(kind, 0),
                "retransmits": self.retransmits_by_kind.get(kind, 0),
                "mean_latency_us": self.mean_latency(kind),
            }
            for fault in FAULT_KINDS:
                count = self.injected_by_fault.get(fault, {}).get(kind, 0)
                if count:
                    row[f"injected_{fault}s"] = count
            # Backpressure columns appear only when nonzero (like the
            # injected-fault columns): static runs stay byte-identical.
            paced = self.paced_by_kind.get(kind, 0)
            if paced:
                row["paced"] = paced
            shed = self.shed_by_kind.get(kind, 0)
            if shed:
                row["shed"] = shed
            table[kind.value] = row
        return table
