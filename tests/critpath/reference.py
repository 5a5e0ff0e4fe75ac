"""Reference critical-path analyzer: exact rationals, one object per operation.

This is the analyzer as it stood before ``repro.critpath.analyze`` moved
to integer ticks, kept verbatim (``fractions.Fraction`` everywhere, one
``_longest_path`` DP per what-if with weight callbacks, ``Fraction``
epoch splitting) the way ``ReferenceLink`` and ``ReferenceLog`` were
kept: it is slow and obviously exact, and ``test_equivalence.py`` holds
the tick analyzer to its ``to_dict()`` byte for byte.  It reads only the
public fields of :class:`repro.critpath.pag.ProgramActivityGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from repro.critpath.pag import ProgramActivityGraph, Slice, WireEdge

__all__ = ["analyze_pag"]

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

    @property
    def width(self) -> Fraction:
        return Fraction(self.t1) - Fraction(self.t0)


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
        from bisect import bisect_left

        i = bisect_left(sends, t) - 1
        if i >= 0 and sends[i] < t:
            return sends[i]
    return None


# -- what-if projections (forward longest-path DP) -------------------------


def _longest_path(
    pag: ProgramActivityGraph,
    wire_weight,
    slice_weight,
) -> Fraction:
    """Longest path through the PAG under the given edge weights.

    Slices sorted by original start time are a valid topological order:
    every in-edge of a slice comes from a strictly earlier-starting
    slice (same-node predecessor, a sender whose charge ended at or
    before this slice's start, or a previous transmission).  Weights
    must never exceed the real intervals, which keeps every projection
    a lower bound on the measured wall clock.
    """
    order: list[tuple[float, int, int]] = []
    for node, chain in pag.slices.items():
        for i, sl in enumerate(chain):
            order.append((sl.start, node, i))
    order.sort()

    # Map each delivery/timeout to the first slice with start >= its ts.
    from bisect import bisect_left

    incoming_wires: dict[tuple[int, int], list[WireEdge]] = {}
    for wire in pag.wires:
        starts = pag.starts.get(wire.dst)
        if not starts:
            continue
        j = bisect_left(starts, wire.deliver_ts)
        if j < len(starts):
            incoming_wires.setdefault((wire.dst, j), []).append(wire)
    incoming_timeouts: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for node, by_ts in pag.timeouts.items():
        starts = pag.starts.get(node)
        if not starts:
            continue
        for ts in by_ts:
            prev_tx = _timeout_source(pag, node, ts)
            if prev_tx is None:
                continue
            j = bisect_left(starts, ts)
            if j < len(starts):
                incoming_timeouts.setdefault((node, j), []).append((prev_tx, ts))

    dist_end: dict[tuple[int, int], Fraction] = {}
    chain_dist: dict[int, Fraction] = {}
    zero = Fraction(0)
    for _start, node, i in order:
        sl = pag.slices[node][i]
        d = chain_dist.get(node, zero)  # same-node order edge, weight 0
        for wire in incoming_wires.get((node, i), ()):
            src_idx = pag.ends_index.get(wire.src, {}).get(wire.send_ts)
            if src_idx is None:
                # Sender boundary unknown (e.g. an uncharged control
                # send): anchor at its absolute timestamp, which can
                # only make the projection larger, never smaller.
                src_d = Fraction(wire.send_ts)
            else:
                src_d = dist_end.get((wire.src, src_idx), Fraction(wire.send_ts))
            cand = src_d + wire_weight(wire)
            if cand > d:
                d = cand
        for prev_tx, ts in incoming_timeouts.get((node, i), ()):
            src_idx = pag.ends_index.get(node, {}).get(prev_tx)
            src_d = (
                dist_end[(node, src_idx)] if src_idx is not None else Fraction(prev_tx)
            )
            cand = src_d + (Fraction(ts) - Fraction(prev_tx))
            if cand > d:
                d = cand
        de = d + slice_weight(sl)
        dist_end[(node, i)] = de
        chain_dist[node] = de
    # The run ends at the scheduler-finish anchors, NOT at the latest
    # charge: trailing transport acks run after the wall clock and are
    # off-path by definition.  Each finish instant is the end of that
    # node's last scheduler-side charge, so anchor the target there.
    best = zero
    anchored = False
    for node, finish in pag.finish_ts.items():
        idx = pag.ends_index.get(node, {}).get(finish)
        if idx is None:
            idx = pag.slice_index_before(node, finish)
        d = dist_end.get((node, idx))
        if d is not None:
            anchored = True
            if d > best:
                best = d
    if not anchored and dist_end:  # old trace without sched_finish markers
        best = max(dist_end.values())
    return best


def _real_wire(w: WireEdge) -> Fraction:
    return Fraction(w.deliver_ts) - Fraction(w.send_ts)


def _real_slice(s: Slice) -> Fraction:
    return Fraction(s.end) - Fraction(s.start)


def _projections(pag: ProgramActivityGraph) -> tuple[dict[str, Fraction], bool]:
    zero = Fraction(0)
    measured = _longest_path(pag, _real_wire, _real_slice)
    scenarios = {
        "zero_latency_network": _longest_path(pag, lambda w: zero, _real_slice),
        # Prefetch hides demand data movement: diff round trips under
        # LRC, whole-page fetch legs under HLRC/SC.  Invalidations stay
        # — no amount of prefetching removes an ownership transfer.
        "perfect_prefetch": _longest_path(
            pag,
            lambda w: zero if w.category in ("diff_rtt", "page_fetch") else _real_wire(w),
            _real_slice,
        ),
        "zero_cost_switch": _longest_path(
            pag,
            _real_wire,
            lambda s: zero if s.name == "mt_overhead" else _real_slice(s),
        ),
    }
    floor = zero
    for chain in pag.slices.values():
        busy = sum((_real_slice(s) for s in chain if s.name == "busy"), zero)
        if busy > floor:
            floor = busy
    scenarios["compute_floor"] = floor
    dp_identity = measured == Fraction(pag.wall)
    return scenarios, dp_identity


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

    @property
    def path_length(self) -> Fraction:
        return sum((s.width for s in self.segments), Fraction(0))

    @property
    def unattributed(self) -> Fraction:
        return self.blame.get("unattributed", Fraction(0))

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
            on = self.on_path.get(node, Fraction(0))
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
    segments: list[PathSegment], bounds: list[float], wall: float
) -> tuple[list[dict[str, Any]], bool]:
    """Per-epoch blame tables; exact iff each epoch's blame sums to its span."""
    edges = [0.0] + [b for b in bounds if 0.0 < b < wall] + [wall]
    tables: list[dict[str, Fraction]] = [dict() for _ in range(len(edges) - 1)]
    ent_tables: list[dict[str, Fraction]] = [dict() for _ in range(len(edges) - 1)]
    from bisect import bisect_right

    for seg in segments:
        lo, hi = Fraction(seg.t0), Fraction(seg.t1)
        # First epoch whose right edge exceeds seg.t0.
        e = max(0, bisect_right(edges, seg.t0) - 1)
        e = min(e, len(tables) - 1)
        while lo < hi and e < len(tables):
            right = Fraction(edges[e + 1])
            take = min(hi, right) - lo
            if take > 0:
                tables[e][seg.category] = tables[e].get(seg.category, Fraction(0)) + take
                if seg.entity is not None:
                    ent_tables[e][seg.entity] = (
                        ent_tables[e].get(seg.entity, Fraction(0)) + take
                    )
            lo = min(hi, right)
            e += 1
    out: list[dict[str, Any]] = []
    exact = True
    for i, table in enumerate(tables):
        span = Fraction(edges[i + 1]) - Fraction(edges[i])
        total = sum(table.values(), Fraction(0))
        if total != span:
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
                "span_us": float(span),
                "blame_us": {k: float(v) for k, v in sorted(table.items())},
                "top_wait": top_wait,
                "top_entity": top_entity,
            }
        )
    return out, exact


def analyze_pag(pag: ProgramActivityGraph) -> CritpathResult:
    """Run the full analysis over an already-built PAG."""
    segments = _walk(pag)
    result = CritpathResult(
        wall=pag.wall,
        segments=segments,
        pag=pag,
        wall_from_finish=bool(pag.finish_ts),
    )
    for seg in segments:
        w = seg.width
        result.blame[seg.category] = result.blame.get(seg.category, Fraction(0)) + w
        if seg.entity is not None:
            result.entities[seg.entity] = result.entities.get(seg.entity, Fraction(0)) + w
        if seg.dst is None and seg.node is not None:
            result.on_path[seg.node] = result.on_path.get(seg.node, Fraction(0)) + w
    result.identity_exact = (
        result.path_length == Fraction(pag.wall)
        and sum(result.blame.values(), Fraction(0)) == Fraction(pag.wall)
        and _contiguous(segments, pag.wall)
    )
    result.epochs, result.epochs_exact = _split_epochs(
        segments, pag.barrier_releases, pag.wall
    )
    result.what_if, result.dp_identity_exact = _projections(pag)
    return result


def _contiguous(segments: list[PathSegment], wall: float) -> bool:
    if not segments:
        return wall == 0
    if segments[0].t0 != 0.0 or segments[-1].t1 != wall:
        return False
    return all(a.t1 == b.t0 for a, b in zip(segments, segments[1:]))
