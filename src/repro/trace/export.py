"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and flat JSONL.

The Chrome format (the "JSON Array Format" of the trace_event spec) is
loadable by Perfetto (https://ui.perfetto.dev) and the legacy
``chrome://tracing`` viewer.  The track layout is:

- one *process* per simulated node (``pid`` = node id);
- per node, a ``cpu`` thread carrying the CPU-charge slices (busy, DSM
  overhead, prefetch overhead, MT overhead), an ``idle`` thread
  carrying the attributed idle slices, and a ``protocol`` thread
  carrying node-scoped instants (faults, notices, drops, retransmits);
- one thread per application thread, carrying its stall begin/end
  slices and scheduling instants;
- async (``b``/``e``) pairs for every in-flight message and for every
  request/reply round trip, which Perfetto renders as spans/arrows
  linking the two sides.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.metrics.counters import Category
from repro.trace.tracer import TraceEvent

__all__ = ["chrome_trace", "write_chrome_trace", "write_jsonl", "jsonl_lines"]

#: Synthetic tid values for node-scoped tracks (application thread
#: tracks use ``APP_TID_BASE + tid`` so they can never collide).
CPU_TID = 0
IDLE_TID = 1
PROTOCOL_TID = 2
CRITPATH_TID = 3
TELEMETRY_TID = 4
APP_TID_BASE = 10

_IDLE_NAMES = frozenset((Category.MEMORY_IDLE.value, Category.SYNC_IDLE.value))


def _track_of(event: TraceEvent) -> int:
    """Map a TraceEvent onto its Chrome (tid) track within the node."""
    if event.tid is not None:
        return APP_TID_BASE + event.tid
    if event.cat == "cpu":
        return IDLE_TID if event.name in _IDLE_NAMES else CPU_TID
    return PROTOCOL_TID


def _telemetry_rows(
    section: dict[str, Any], threads: dict[tuple[int, int], str]
) -> list[dict[str, Any]]:
    """Telemetry series as Chrome counter (``"C"``) rows.

    One counter row per metric per node per window boundary; per-peer
    estimator metrics become one multi-series row (one args key per
    peer), which Perfetto renders as stacked series on a single track.
    The metric names come from the shared taxonomy in
    :mod:`repro.telemetry.sampler`, so the offline renderer can rebuild
    the section from the trace alone.
    """
    from repro.telemetry.sampler import DELTA_METRICS, GAUGE_METRICS, PEER_METRICS

    rows: list[dict[str, Any]] = []
    windows = section.get("windows", [])
    for node_key, entry in section.get("nodes", {}).items():
        pid = int(node_key)
        threads.setdefault((pid, TELEMETRY_TID), "telemetry")
        series_by_name = {**entry.get("gauges", {}), **entry.get("deltas", {})}
        for name in GAUGE_METRICS + DELTA_METRICS:
            for ts, value in zip(windows, series_by_name.get(name, [])):
                rows.append(
                    {
                        "name": name,
                        "cat": "telemetry",
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": TELEMETRY_TID,
                        "args": {"value": value},
                    }
                )
        peers = entry.get("peers", {})
        if peers:
            for metric in PEER_METRICS:
                for index, ts in enumerate(windows):
                    args = {
                        peer_key: track[metric][index]
                        for peer_key, track in sorted(peers.items(), key=lambda p: int(p[0]))
                        if index < len(track.get(metric, ()))
                    }
                    if args:
                        rows.append(
                            {
                                "name": f"transport.peer.{metric}",
                                "cat": "telemetry",
                                "ph": "C",
                                "ts": ts,
                                "pid": pid,
                                "tid": TELEMETRY_TID,
                                "args": args,
                            }
                        )
    return rows


def chrome_trace(
    events: Iterable[TraceEvent],
    critpath: dict[str, Any] | None = None,
    telemetry: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Render events into a Chrome trace_event JSON object.

    ``critpath`` is a critical-path report section
    (``repro.critpath.CritpathResult.to_dict``): its same-node dwell
    intervals become X slices on a dedicated per-node track and its
    cross-node hops become ``s``/``f`` flow events linking the tracks,
    so Perfetto draws the critical path as arrows through the run.
    ``telemetry`` is a telemetry report section
    (``repro.telemetry.section_from_events``): its windowed series
    become counter tracks overlaid on the same timeline, and its
    version and window width go to ``otherData``.
    """
    rows: list[dict[str, Any]] = []
    #: (pid, tid) -> thread name, discovered from the event stream.
    threads: dict[tuple[int, int], str] = {}
    for event in events:
        tid = _track_of(event)
        key = (event.node, tid)
        if key not in threads:
            if tid == CPU_TID:
                threads[key] = "cpu"
            elif tid == IDLE_TID:
                threads[key] = "idle"
            elif tid == PROTOCOL_TID:
                threads[key] = "protocol"
            else:
                threads[key] = f"thread {event.tid}"
        row: dict[str, Any] = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            "ts": event.ts,
            "pid": event.node,
            "tid": tid,
        }
        if event.ph == "X":
            row["dur"] = event.dur
        if event.ph == "i":
            row["s"] = "t"  # instant scope: thread
        if event.id is not None:
            row["id"] = event.id
        if event.args:
            row["args"] = event.args
        rows.append(row)
    if critpath is not None:
        for dwell in critpath.get("dwells", ()):
            key = (dwell["node"], CRITPATH_TID)
            threads.setdefault(key, "critical path")
            rows.append(
                {
                    "name": "on critical path",
                    "cat": "critpath",
                    "ph": "X",
                    "ts": dwell["start"],
                    "dur": dwell["end"] - dwell["start"],
                    "pid": dwell["node"],
                    "tid": CRITPATH_TID,
                }
            )
        for i, flow in enumerate(critpath.get("flows", ())):
            threads.setdefault((flow["src"], CRITPATH_TID), "critical path")
            threads.setdefault((flow["dst"], CRITPATH_TID), "critical path")
            common = {
                "name": flow.get("category", "hop"),
                "cat": "critpath",
                "id": f"cp{i}",
            }
            rows.append(
                dict(common, ph="s", ts=flow["src_ts"], pid=flow["src"], tid=CRITPATH_TID)
            )
            rows.append(
                dict(common, ph="f", bp="e", ts=flow["dst_ts"], pid=flow["dst"], tid=CRITPATH_TID)
            )
    if telemetry is not None:
        rows.extend(_telemetry_rows(telemetry, threads))
    # The spec does not require sorted timestamps but viewers load large
    # traces faster when sorted; Python's stable sort preserves emission
    # order at equal timestamps, which keeps B before E and b before e.
    rows.sort(key=lambda r: r["ts"])
    meta: list[dict[str, Any]] = []
    for pid in sorted({node for node, _ in threads}):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": 0,
                "args": {"name": f"node {pid}"},
            }
        )
    for (pid, tid), label in sorted(threads.items()):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
        meta.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    other: dict[str, Any] = {"producer": "repro.trace", "time_unit": "us"}
    if telemetry is not None:
        other["telemetry_version"] = telemetry.get("version", 1)
        other["telemetry_interval_us"] = telemetry["interval_us"]
    return {
        "traceEvents": meta + rows,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    events: Iterable[TraceEvent],
    path: str,
    critpath: dict[str, Any] | None = None,
    telemetry: dict[str, Any] | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events, critpath=critpath, telemetry=telemetry), handle)


def jsonl_lines(events: Iterable[TraceEvent]) -> Iterable[str]:
    for event in events:
        yield json.dumps(event.as_dict(), separators=(",", ":"))


def write_jsonl(events: Iterable[TraceEvent], path: str) -> None:
    """Flat one-event-per-line log (for grep/jq-style analysis)."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in jsonl_lines(events):
            handle.write(line + "\n")
