"""Program-activity-graph (PAG) construction from the trace stream.

The PAG is the classic critical-path-profiling object: a DAG whose
vertices are points in each node's CPU occupancy timeline and whose
edges are (a) the CPU charges themselves, (b) same-node ordering, and
(c) cross-node message deliveries.  Because the simulator charges every
microsecond of CPU through ``Node.occupy`` (one ``cpu`` X-slice per
charge) and stamps message send/deliver times on the ``msg:*`` async
spans, the graph can be rebuilt *bit-exactly* offline from a trace —
no sampling, no clock skew.

Construction invariants this module relies on (and the analyzer's
exactness proof rests on):

- non-idle cpu slices on one node never overlap (the CPU is a unit
  resource) and are stamped with their exact acquisition time;
- every message send happens at the end of a CPU charge (the send cost
  is charged before injection), so ``send_ts`` is always some slice's
  ``end`` on the sender, bit-for-bit;
- a message delivered while the CPU is free starts a handler charge at
  exactly the delivery timestamp, so a *gap* in a node's occupancy
  chain always ends at either a delivery instant, a transport timeout
  instant, or (pathologically) nothing the trace explains — which the
  analyzer surfaces as ``unattributed`` time instead of guessing.

Idle cpu slices (``memory_idle``/``sync_idle``/``downtime``) are
deliberately NOT part of the occupancy chain: they are emitted per
*wait* and may overlap handler charges that ran during the wait.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Optional

from repro.trace.tracer import TraceEvent

__all__ = [
    "IDLE_NAMES",
    "SLICE_CATEGORY",
    "WIRE_CATEGORY",
    "Slice",
    "WireEdge",
    "ProgramActivityGraph",
    "build_pag",
]

#: cpu X-slice names that are waiting, not occupancy.
IDLE_NAMES = frozenset({"memory_idle", "sync_idle", "downtime"})

#: cpu charge name -> blame category ("dsm_overhead" is refined to
#: ``fault_service`` when the charge runs inside a local page fault).
SLICE_CATEGORY = {
    "busy": "cpu",
    "dsm_overhead": "dsm",
    "prefetch_overhead": "prefetch",
    "mt_overhead": "context_switch",
    "checkpoint": "ft",
    "recovery": "ft",
}

#: message kind -> wire blame category; kinds not listed (acks,
#: prefetch traffic, membership) fall back to "network".
WIRE_CATEGORY = {
    "diff_request": "diff_rtt",
    "diff_reply": "diff_rtt",
    "lock_request": "lock_wait",
    "lock_forward": "lock_wait",
    "lock_grant": "lock_wait",
    "barrier_arrive": "barrier_wait",
    "barrier_release": "barrier_wait",
    # HLRC: whole-page fault round trips to the home, and the eager
    # release-time flushes that feed it.
    "page_request": "page_fetch",
    "page_reply": "page_fetch",
    "home_update": "home_update",
    "home_update_ack": "home_update",
    # SC: the ownership transaction's data-movement legs blame
    # page_fetch; the invalidation round trips (and the write grant
    # that completes them) get their own category — under SC they are
    # the protocol's defining cost, not generic "network".
    "sc_req": "page_fetch",
    "sc_fetch": "page_fetch",
    "sc_data": "page_fetch",
    "sc_done": "page_fetch",
    "sc_inval": "invalidation",
    "sc_inval_ack": "invalidation",
    "sc_grant": "invalidation",
}


@dataclass(slots=True)
class Slice:
    """One CPU charge on one node (a PAG edge of weight ``end - start``)."""

    start: float
    end: float
    name: str
    category: str
    entity: Optional[str] = None


@dataclass(slots=True)
class WireEdge:
    """One delivered message (a cross-node PAG edge)."""

    msg: str
    kind: str
    src: int
    dst: int
    send_ts: float
    deliver_ts: float
    category: str
    entity: Optional[str] = None


@dataclass
class ProgramActivityGraph:
    """The rebuilt constraint graph plus the indexes the analyzer uses."""

    num_nodes: int = 0
    #: per-node occupancy chain, sorted by start.
    slices: dict[int, list[Slice]] = field(default_factory=dict)
    #: per-node slice start timestamps (bisect index parallel to slices).
    starts: dict[int, list[float]] = field(default_factory=dict)
    #: per-node: slice end timestamp -> slice index (send anchors).
    ends_index: dict[int, dict[float, int]] = field(default_factory=dict)
    #: per-node: delivery timestamp -> wire edges landing then (stream order).
    arrivals: dict[int, dict[float, list[WireEdge]]] = field(default_factory=dict)
    #: every delivered message, in delivery stream order.
    wires: list[WireEdge] = field(default_factory=list)
    #: per-node: timeout instant -> [(dst, seq)] (stream order).
    timeouts: dict[int, dict[float, list[tuple[int, int]]]] = field(default_factory=dict)
    #: (sender, dst, seq) -> sorted transmission timestamps.
    sends_by_key: dict[tuple[int, int, int], list[float]] = field(default_factory=dict)
    #: sorted unique barrier_release instants (epoch boundaries).
    barrier_releases: list[float] = field(default_factory=list)
    #: per-node scheduler finish instants (max if restarted).
    finish_ts: dict[int, float] = field(default_factory=dict)
    #: per-node idle time (informational; not part of the chain).
    idle_us: dict[int, float] = field(default_factory=dict)
    # -- health metrics ----------------------------------------------------
    #: overlapping occupancy detected (should be 0 in supported runs).
    overlap_us: float = 0.0
    #: deliveries whose send timestamp could not be recovered (a truncated
    #: trace lost the async begin and the end carried no ``sent_at``).
    dangling_arrivals: int = 0
    #: events a trace file says its recorder discarded before we saw them.
    events_dropped: int = 0

    @property
    def wall(self) -> float:
        """The run's wall clock: the latest scheduler finish instant.

        Falls back to the latest slice end for traces predating the
        ``sched_finish`` marker (the analyzer flags this).
        """
        if self.finish_ts:
            return max(self.finish_ts.values())
        return max(
            (chain[-1].end for chain in self.slices.values() if chain), default=0.0
        )

    @property
    def end_node(self) -> int:
        """The node whose finish defines the wall (lowest id on ties)."""
        if self.finish_ts:
            wall = max(self.finish_ts.values())
            return min(n for n, ts in self.finish_ts.items() if ts == wall)
        wall = self.wall
        candidates = [
            n for n, chain in self.slices.items() if chain and chain[-1].end == wall
        ]
        return min(candidates) if candidates else 0

    def slice_index_before(self, node: int, t: float) -> int:
        """Index of the last slice on ``node`` with ``start < t`` (-1 if none)."""
        return bisect_left(self.starts.get(node, []), t) - 1


def _entity_of(args: dict) -> Optional[str]:
    for kind in ("page", "lock", "barrier"):
        if kind in args:
            return f"{kind}:{args[kind]}"
    return None


def build_pag(events: Iterable[TraceEvent], events_dropped: int = 0) -> ProgramActivityGraph:
    """Rebuild the PAG from trace events (a file's rows become events in
    :func:`repro.critpath.__main__.load_trace`).

    One pass in stream order (the tracer appends in simulation order,
    which every exactness argument leans on), then a per-node sweep over
    the start-sorted chain and fault intervals for fault-service
    attribution.
    """
    pag = ProgramActivityGraph(events_dropped=events_dropped)
    #: message id -> (kind, src, send_ts) of its latest begin.
    sends: dict[str, tuple[str, Any, float]] = {}
    labels: dict[str, str] = {}
    retransmit_ids: set[str] = set()
    #: open page faults: (node, fault id) -> (start, page).
    open_faults: dict[tuple[int, str], tuple[float, Any]] = {}
    #: per-node fault intervals (start, end, page), in the order they closed.
    faults: dict[int, list[tuple[float, float, Any]]] = {}
    deliveries: list[tuple[int, float, str]] = []
    max_node = -1

    for ts, ph, cat, name, node, _tid, dur, eid, args in events:
        if node > max_node:
            max_node = node
        if ph == "X" and cat == "cpu":
            if name in IDLE_NAMES:
                pag.idle_us[node] = pag.idle_us.get(node, 0.0) + dur
            else:
                pag.slices.setdefault(node, []).append(
                    Slice(ts, ts + dur, name, SLICE_CATEGORY.get(name, "cpu"))
                )
            continue
        args = args or {}
        if ph == "b":
            if name == "page_fault":
                open_faults[node, eid] = (ts, args.get("page"))
            elif cat == "network" and name.startswith("msg:"):
                sends[eid] = (name[4:], node, ts)
                seq, dst = args.get("seq", -1), args.get("dst")
                if seq is not None and seq >= 0 and dst is not None:
                    insort(pag.sends_by_key.setdefault((node, dst, seq), []), ts)
        elif ph == "e":
            if name == "page_fault":
                opened = open_faults.pop((node, eid), None)
                if opened is not None:
                    faults.setdefault(node, []).append((opened[0], ts, opened[1]))
            elif cat == "network" and name.startswith("msg:"):
                # A truncated trace lost the begin; fall back to the
                # redundant sent_at/src stamped on the end event.
                if eid not in sends and args.get("sent_at", -1) >= 0 and "src" in args:
                    sends[eid] = (name[4:], args["src"], args["sent_at"])
                deliveries.append((node, ts, eid))
        elif ph == "i":
            if name == "pag_edge":
                entity = _entity_of(args)
                if entity is not None and "msg" in args:
                    labels[args["msg"]] = entity
            elif name == "retransmit" and "msg" in args:
                retransmit_ids.add(args["msg"])
            elif name == "transport_timeout":
                if "dst" in args and "seq" in args:
                    pag.timeouts.setdefault(node, {}).setdefault(ts, []).append(
                        (args["dst"], args["seq"])
                    )
            elif name == "barrier_release":
                pag.barrier_releases.append(ts)
            elif name == "sched_finish":
                prev = pag.finish_ts.get(node)
                if prev is None or ts > prev:
                    pag.finish_ts[node] = ts

    # Faults still open at the end of the trace extend to +inf.
    for (node, _eid), (start, page) in open_faults.items():
        faults.setdefault(node, []).append((start, math.inf, page))
    pag.num_nodes = max_node + 1

    # -- per-node sweep -----------------------------------------------------
    for node, chain in pag.slices.items():
        chain.sort(key=attrgetter("start", "end"))
        # A dsm charge that starts while a local page fault is open
        # (start <= slice.start <= end) is fault *service* and inherits
        # the page of the innermost such fault: the latest opened, and
        # of faults opened at one instant the last in ``faults`` order.
        # ``active`` stacks the opened faults in that order, and a closed
        # one on top is popped: with starts sorted, it covers no later slice.
        intervals = sorted(faults.get(node, ()), key=itemgetter(0))
        active: list[tuple[float, float, Any]] = []
        opened = 0
        prev_end = -math.inf
        for sl in chain:
            start = sl.start
            if start < prev_end:
                pag.overlap_us += min(prev_end, sl.end) - start
            prev_end = max(prev_end, sl.end)
            while opened < len(intervals) and intervals[opened][0] <= start:
                active.append(intervals[opened])
                opened += 1
            while active and active[-1][1] < start:
                active.pop()
            if active and sl.name == "dsm_overhead":
                sl.category = "fault_service"
                page = active[-1][2]
                if page is not None:
                    sl.entity = f"page:{page}"
        pag.starts[node] = [sl.start for sl in chain]
        pag.ends_index[node] = {sl.end: i for i, sl in enumerate(chain)}

    # -- finalize wire edges ----------------------------------------------
    for node, ts, mid in deliveries:
        sent = sends.get(mid)
        if sent is None or sent[1] is None:
            pag.dangling_arrivals += 1
            continue
        kind, src, send_ts = sent
        category = "retransmit" if mid in retransmit_ids else WIRE_CATEGORY.get(kind, "network")
        wire = WireEdge(mid, kind, src, node, send_ts, ts, category, labels.get(mid))
        pag.wires.append(wire)
        pag.arrivals.setdefault(node, {}).setdefault(ts, []).append(wire)

    pag.barrier_releases = sorted(set(pag.barrier_releases))
    return pag
