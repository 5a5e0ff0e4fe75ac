"""Exact critical-path extraction and what-if projections over the PAG.

The analyzer walks the program-activity graph *backwards* from the end
of the run.  At every instant ``t`` on a node it asks "what finished at
``t``?": a CPU charge (blame the charge's category), a message delivery
(hop to the sender, blame the wire), a transport timeout (blame the
retransmission wait), or — if nothing in the trace explains the gap —
an ``unattributed`` filler that keeps the path contiguous instead of
inventing causality.  The resulting path is a time-contiguous partition
of ``[0, wall]``, so its length telescopes to the wall clock *exactly*
and the per-category blame sums to the path length by construction.

Exactness is kept on integer *ticks* (:mod:`repro.critpath.ticks`):
every float timestamp is a dyadic rational, so one trace has a common
power-of-two denominator, and on that grid every width, sum and
comparison below is a plain ``int`` operation.  A result leaves as
``ticks / 2**shift``, which is the correctly rounded float of the exact
value.  The same graph, built once as a flat DAG with integer weights,
yields the what-if projections: a longest-path DP per scenario in which
some wires or slices weigh nothing, so every projection is a lower
bound on the run it was computed from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

from repro.critpath.pag import ProgramActivityGraph, Slice, WireEdge, build_pag
from repro.critpath.ticks import TickScale
from repro.trace.tracer import TraceEvent

__all__ = ["PathSegment", "CritpathResult", "analyze_events", "analyze_pag"]

#: critpath report section schema (inside RunReport schema v3).
SECTION_VERSION = 1

#: how many hot entities the report keeps.
_TOP_ENTITIES = 12


@dataclass(slots=True)
class PathSegment:
    """One contiguous interval of the critical path.

    ``node`` is the CPU the interval ran on (wire segments carry the
    *sender*; ``dst`` is set only for wire segments).
    """

    t0: float
    t1: float
    category: str
    node: Optional[int] = None
    dst: Optional[int] = None
    entity: Optional[str] = None


def _walk(pag: ProgramActivityGraph) -> list[PathSegment]:
    """Backward walk from (end_node, wall) to time 0."""
    segments: list[PathSegment] = []
    wall = pag.wall
    if wall <= 0:
        return segments
    node = pag.end_node
    t = wall
    total = sum(len(c) for c in pag.slices.values()) + len(pag.wires)
    budget = 4 * total + 64
    while t > 0 and budget > 0:
        budget -= 1
        idx = pag.slice_index_before(node, t)
        if idx < 0:
            segments.append(PathSegment(0.0, t, "unattributed", node=node))
            break
        sl = pag.slices[node][idx]
        if sl.end < t:
            # Nothing occupies (sl.end, t): either the wall outlived the
            # end node's last charge, or a hop landed on a send that was
            # not a charge boundary.  Surface it, keep the partition.
            segments.append(PathSegment(sl.end, t, "unattributed", node=node))
            t = sl.end
            continue
        segments.append(
            PathSegment(sl.start, t, sl.category, node=node, entity=sl.entity)
        )
        t = sl.start
        if t <= 0:
            break
        prev_end = pag.slices[node][idx - 1].end if idx > 0 else 0.0
        if prev_end == t:
            continue  # back-to-back charges: stay on this node
        # A gap ended exactly at t: find its trigger.
        wire = _arrival_at(pag, node, t)
        if wire is not None:
            segments.append(
                PathSegment(
                    wire.send_ts, t, wire.category,
                    node=wire.src, dst=node, entity=wire.entity,
                )
            )
            node = wire.src
            t = wire.send_ts
            continue
        prev_tx = _timeout_source(pag, node, t)
        if prev_tx is not None:
            segments.append(PathSegment(prev_tx, t, "retransmit", node=node))
            t = prev_tx
            continue
        segments.append(PathSegment(prev_end, t, "unattributed", node=node))
        t = prev_end
    segments.reverse()
    return segments


def _arrival_at(pag: ProgramActivityGraph, node: int, t: float) -> Optional[WireEdge]:
    """First delivery at exactly (node, t) that makes backward progress."""
    for wire in pag.arrivals.get(node, {}).get(t, ()):  # stream order
        if wire.send_ts < t:
            return wire
    return None


def _timeout_source(pag: ProgramActivityGraph, node: int, t: float) -> Optional[float]:
    """Previous transmission time explaining a timeout firing at (node, t)."""
    for dst, seq in pag.timeouts.get(node, {}).get(t, ()):
        sends = pag.sends_by_key.get((node, dst, seq))
        if not sends:
            continue
        i = bisect_left(sends, t) - 1
        if i >= 0 and sends[i] < t:
            return sends[i]
    return None


# -- the tick grid ---------------------------------------------------------


def _tick_scale(pag: ProgramActivityGraph) -> TickScale:
    """One pass over every timestamp the walk, the DP or the epochs read."""
    stamps: list[float] = [0.0, pag.wall]
    for chain in pag.slices.values():
        stamps += [sl.start for sl in chain]
        stamps += [sl.end for sl in chain]
    stamps += [w.send_ts for w in pag.wires]
    stamps += [w.deliver_ts for w in pag.wires]
    for by_ts in pag.timeouts.values():
        stamps += by_ts
    for sends in pag.sends_by_key.values():
        stamps += sends
    stamps += pag.barrier_releases
    stamps += pag.finish_ts.values()
    return TickScale(stamps)


# -- what-if projections (forward longest-path DP) -------------------------


@dataclass(slots=True)
class _Dag:
    """The PAG flattened for the DP: slices by position in one
    topological order, weights in ticks, in-edges already resolved.

    Slices sorted by original start time are a valid topological order:
    every in-edge of a slice comes from a strictly earlier-starting
    slice (same-node predecessor, a sender whose charge ended at or
    before this slice's start, or a previous transmission).
    """

    #: position -> the slice, its node and its width.
    slices: list[Slice] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    slice_w: list[int] = field(default_factory=list)
    #: position -> position of the previous slice on the same node (-1: none).
    prev: list[int] = field(default_factory=list)
    #: position -> ``(source position, send instant, edge index)`` per
    #: delivery or timeout landing on that slice.  Source -1 means the
    #: sender boundary is unknown (e.g. an uncharged control send): the
    #: edge anchors at its absolute send instant, which can only make a
    #: projection larger, never smaller.
    in_edges: dict[int, list[tuple[int, int, int]]] = field(default_factory=dict)
    #: edge index -> width, and the wire (None for a timeout wait).
    edge_w: list[int] = field(default_factory=list)
    edge_wire: list[Optional[WireEdge]] = field(default_factory=list)
    #: positions the run ends at: each node's scheduler-finish anchor.
    targets: list[int] = field(default_factory=list)


def _build_dag(pag: ProgramActivityGraph, ticks: TickScale) -> _Dag:
    of = ticks.of
    order = sorted(
        (sl.start, node, i)
        for node, chain in pag.slices.items()
        for i, sl in enumerate(chain)
    )
    dag = _Dag()
    pos_of: dict[int, list[int]] = {node: [0] * len(c) for node, c in pag.slices.items()}
    last: dict[int, int] = {}
    for p, (_start, node, i) in enumerate(order):
        sl = pag.slices[node][i]
        pos_of[node][i] = p
        dag.slices.append(sl)
        dag.nodes.append(node)
        dag.slice_w.append(of[sl.end] - of[sl.start])
        dag.prev.append(last.get(node, -1))
        last[node] = p

    # Every delivery, and every timeout with the earlier transmission
    # it waited on: (dst, src, sent, landed, wire).
    edges = [(w.dst, w.src, w.send_ts, w.deliver_ts, w) for w in pag.wires]
    for node, by_ts in pag.timeouts.items():
        for ts in by_ts:
            prev_tx = _timeout_source(pag, node, ts)
            if prev_tx is not None:
                edges.append((node, node, prev_tx, ts, None))
    for dst, src, sent, landed, wire in edges:
        # The edge enters the first slice on ``dst`` starting at or
        # after ``landed``; its source is the slice whose charge ended
        # exactly at ``sent`` on ``src``.
        starts = pag.starts.get(dst)
        if not starts:
            continue
        j = bisect_left(starts, landed)
        if j == len(starts):
            continue
        src_idx = pag.ends_index.get(src, {}).get(sent)
        src_pos = -1 if src_idx is None else pos_of[src][src_idx]
        dag.in_edges.setdefault(pos_of[dst][j], []).append(
            (src_pos, of[sent], len(dag.edge_w))
        )
        dag.edge_w.append(of[landed] - of[sent])
        dag.edge_wire.append(wire)

    # The run ends at the scheduler-finish anchors, NOT at the latest
    # charge: trailing transport acks run after the wall clock and are
    # off-path by definition.  Each finish instant is the end of that
    # node's last scheduler-side charge, so anchor the target there.
    for node, finish in pag.finish_ts.items():
        idx = pag.ends_index.get(node, {}).get(finish)
        if idx is None:
            idx = pag.slice_index_before(node, finish)
        if idx >= 0:
            dag.targets.append(pos_of[node][idx])
    if not dag.targets:  # old trace without sched_finish markers
        dag.targets = list(range(len(order)))
    return dag


def _longest_path(
    dag: _Dag,
    wire_free: Optional[Callable[[WireEdge], bool]] = None,
    slice_free: Optional[Callable[[Slice], bool]] = None,
) -> int:
    """Longest path through the DAG, in ticks, with the wires and slices
    the predicates select weighing nothing (``None`` frees none).

    Weights never exceed the real intervals, which keeps every
    projection a lower bound on the measured wall clock.  Timeout waits
    are never free: no latency-tolerance technique shortens an RTO.
    """
    edge_w = dag.edge_w
    if wire_free is not None:
        edge_w = [
            0 if wire is not None and wire_free(wire) else w
            for wire, w in zip(dag.edge_wire, edge_w)
        ]
    slice_w = dag.slice_w
    if slice_free is not None:
        slice_w = [0 if slice_free(sl) else w for sl, w in zip(dag.slices, slice_w)]
    in_edges = dag.in_edges.get
    dist_end: list[int] = []
    for p, q in enumerate(dag.prev):
        d = dist_end[q] if q >= 0 else 0  # same-node order edge, weight 0
        for src, sent, k in in_edges(p, ()):
            # A source at or after p (equal starts) is not computed
            # yet: anchor at the send instant, like an unknown one.
            cand = (dist_end[src] if 0 <= src < p else sent) + edge_w[k]
            if cand > d:
                d = cand
        dist_end.append(d + slice_w[p])
    return max((dist_end[p] for p in dag.targets), default=0)


#: scenario -> ("this wire is free", "this slice is free"); ``measured``
#: frees nothing and must reproduce the wall clock.
_SCENARIOS: dict[str, tuple[Optional[Callable], Optional[Callable]]] = {
    "measured": (None, None),
    "zero_latency_network": (lambda wire: True, None),
    # Prefetch hides demand data movement: diff round trips under
    # LRC, whole-page fetch legs under HLRC/SC.  Invalidations stay
    # — no amount of prefetching removes an ownership transfer.
    "perfect_prefetch": (lambda wire: wire.category in ("diff_rtt", "page_fetch"), None),
    "zero_cost_switch": (None, lambda sl: sl.name == "mt_overhead"),
}


def _projections(pag: ProgramActivityGraph, ticks: TickScale) -> tuple[dict[str, int], bool]:
    """What-if lengths in ticks, and whether ``measured`` hit the wall."""
    dag = _build_dag(pag, ticks)
    scenarios = {name: _longest_path(dag, *free) for name, free in _SCENARIOS.items()}
    measured = scenarios.pop("measured")
    busy: dict[int, int] = {}
    for node, sl, w in zip(dag.nodes, dag.slices, dag.slice_w):
        if sl.name == "busy":
            busy[node] = busy.get(node, 0) + w
    scenarios["compute_floor"] = max(busy.values(), default=0)
    return scenarios, measured == ticks.of[pag.wall]


# -- result assembly -------------------------------------------------------


@dataclass
class CritpathResult:
    """Everything the ``critpath`` report section carries."""

    wall: float
    segments: list[PathSegment]
    pag: ProgramActivityGraph
    blame: dict[str, Fraction] = field(default_factory=dict)
    entities: dict[str, Fraction] = field(default_factory=dict)
    on_path: dict[int, Fraction] = field(default_factory=dict)
    epochs: list[dict[str, Any]] = field(default_factory=list)
    what_if: dict[str, Fraction] = field(default_factory=dict)
    identity_exact: bool = False
    dp_identity_exact: bool = False
    epochs_exact: bool = False
    wall_from_finish: bool = True
    #: sum of the segments' widths; equals ``wall`` iff the path is exact.
    path_length: Fraction = field(default_factory=Fraction)

    @property
    def unattributed(self) -> Fraction:
        return self.blame.get("unattributed", Fraction())

    @property
    def hops(self) -> int:
        return sum(1 for s in self.segments if s.dst is not None)

    def flows(self) -> list[dict[str, Any]]:
        """Cross-node hops, for Perfetto flow-event export."""
        return [
            {
                "src": s.node,
                "src_ts": s.t0,
                "dst": s.dst,
                "dst_ts": s.t1,
                "category": s.category,
            }
            for s in self.segments
            if s.dst is not None
        ]

    def dwells(self) -> list[dict[str, Any]]:
        """Maximal same-node path intervals, for the export track."""
        out: list[dict[str, Any]] = []
        for s in self.segments:
            if s.dst is not None or s.node is None:
                continue
            if out and out[-1]["node"] == s.node and out[-1]["end"] == s.t0:
                out[-1]["end"] = s.t1
            else:
                out.append({"node": s.node, "start": s.t0, "end": s.t1})
        return out

    def to_dict(self) -> dict[str, Any]:
        blame = {k: float(v) for k, v in sorted(self.blame.items())}
        hot = sorted(self.entities.items(), key=lambda kv: (-kv[1], kv[0]))
        per_node = []
        wall_f = Fraction(self.wall)
        for node in range(self.pag.num_nodes):
            on = self.on_path.get(node, 0)
            per_node.append(
                {
                    "node": node,
                    "on_path_us": float(on),
                    "slack_us": float(wall_f - on),
                    "idle_us": self.pag.idle_us.get(node, 0.0),
                }
            )
        return {
            "version": SECTION_VERSION,
            "wall_time_us": self.wall,
            "path_us": float(self.path_length),
            "identity_exact": self.identity_exact,
            "dp_identity_exact": self.dp_identity_exact,
            "epochs_exact": self.epochs_exact,
            "wall_from_finish": self.wall_from_finish,
            "unattributed_us": float(self.unattributed),
            "events_dropped": self.pag.events_dropped,
            "dangling_arrivals": self.pag.dangling_arrivals,
            "segments": len(self.segments),
            "hops": self.hops,
            "blame_us": blame,
            "hot_entities": [
                {"entity": k, "us": float(v)} for k, v in hot[:_TOP_ENTITIES]
            ],
            "per_node": per_node,
            "epochs": self.epochs,
            "what_if_us": {k: float(v) for k, v in sorted(self.what_if.items())},
            "flows": self.flows(),
            "dwells": self.dwells(),
        }


def _split_epochs(
    segments: list[PathSegment], bounds: list[float], wall: float, ticks: TickScale
) -> tuple[list[dict[str, Any]], bool]:
    """Per-epoch blame tables; exact iff each epoch's blame sums to its span."""
    of = ticks.of
    edges = [0.0] + [b for b in bounds if 0.0 < b < wall] + [wall]
    edge_t = [of[e] for e in edges]
    epochs = len(edges) - 1
    tables: list[dict[str, int]] = [dict() for _ in range(epochs)]
    ent_tables: list[dict[str, int]] = [dict() for _ in range(epochs)]
    for seg in segments:
        lo, hi = of[seg.t0], of[seg.t1]
        # First epoch whose right edge exceeds seg.t0.
        e = max(0, bisect_right(edge_t, lo) - 1)
        e = min(e, epochs - 1)
        while lo < hi and e < epochs:
            cut = min(hi, edge_t[e + 1])
            take = cut - lo
            if take > 0:
                tables[e][seg.category] = tables[e].get(seg.category, 0) + take
                if seg.entity is not None:
                    ent_tables[e][seg.entity] = ent_tables[e].get(seg.entity, 0) + take
            lo = cut
            e += 1
    out: list[dict[str, Any]] = []
    exact = True
    for i, table in enumerate(tables):
        span = edge_t[i + 1] - edge_t[i]
        if sum(table.values()) != span:
            exact = False
        waits = {
            k: v for k, v in table.items() if k not in ("cpu", "unattributed")
        }
        top_wait = (
            min(
                (k for k, v in waits.items() if v == max(waits.values())),
            )
            if waits
            else None
        )
        ents = ent_tables[i]
        top_entity = (
            sorted(ents.items(), key=lambda kv: (-kv[1], kv[0]))[0][0] if ents else None
        )
        out.append(
            {
                "epoch": i,
                "start": edges[i],
                "end": edges[i + 1],
                "span_us": ticks.to_float(span),
                "blame_us": {k: ticks.to_float(v) for k, v in sorted(table.items())},
                "top_wait": top_wait,
                "top_entity": top_entity,
            }
        )
    return out, exact


def analyze_pag(pag: ProgramActivityGraph) -> CritpathResult:
    """Run the full analysis over an already-built PAG."""
    ticks = _tick_scale(pag)
    of = ticks.of
    segments = _walk(pag)
    blame: dict[str, int] = {}
    entities: dict[str, int] = {}
    on_path: dict[int, int] = {}
    path = 0
    for seg in segments:
        w = of[seg.t1] - of[seg.t0]
        path += w
        blame[seg.category] = blame.get(seg.category, 0) + w
        if seg.entity is not None:
            entities[seg.entity] = entities.get(seg.entity, 0) + w
        if seg.dst is None and seg.node is not None:
            on_path[seg.node] = on_path.get(seg.node, 0) + w
    wall = of[pag.wall]
    epochs, epochs_exact = _split_epochs(segments, pag.barrier_releases, pag.wall, ticks)
    what_if, dp_identity_exact = _projections(pag, ticks)
    exact = ticks.to_fraction
    return CritpathResult(
        wall=pag.wall,
        segments=segments,
        pag=pag,
        blame={k: exact(v) for k, v in blame.items()},
        entities={k: exact(v) for k, v in entities.items()},
        on_path={k: exact(v) for k, v in on_path.items()},
        epochs=epochs,
        what_if={k: exact(v) for k, v in what_if.items()},
        identity_exact=(
            path == wall
            and sum(blame.values()) == wall
            and _contiguous(segments, pag.wall)
        ),
        dp_identity_exact=dp_identity_exact,
        epochs_exact=epochs_exact,
        wall_from_finish=bool(pag.finish_ts),
        path_length=exact(path),
    )


def _contiguous(segments: list[PathSegment], wall: float) -> bool:
    if not segments:
        return wall == 0
    if segments[0].t0 != 0.0 or segments[-1].t1 != wall:
        return False
    return all(a.t1 == b.t0 for a, b in zip(segments, segments[1:]))


def analyze_events(
    events: Iterable[TraceEvent], events_dropped: int = 0
) -> CritpathResult:
    """Build the PAG from trace events and analyze it."""
    return analyze_pag(build_pag(events, events_dropped=events_dropped))
