"""Offline dashboard rendering for telemetry sections.

Input is either a RunReport JSON carrying a ``telemetry`` section or a
Chrome/Perfetto trace whose counter (``"C"``) tracks were exported by
:func:`repro.trace.export.chrome_trace` — the exporter and this module
share the metric taxonomy in :mod:`repro.telemetry.sampler`, so a trace
round-trips back into the same section shape.

Output is a plain-text dashboard (sparkline rows per node per metric)
or a fully self-contained HTML page (inline SVG polylines, no external
assets), so a CI artifact renders anywhere.
"""

from __future__ import annotations

import html as _html
import json
from typing import Any, Optional

from repro.telemetry.sampler import DELTA_METRICS, GAUGE_METRICS, PEER_METRICS

__all__ = ["load_section", "section_from_trace", "render_text", "render_html"]

_SPARK = "▁▂▃▄▅▆▇█"


def load_section(path: str) -> dict:
    """Load a telemetry section from a RunReport or Chrome trace file.

    Raises ``ValueError`` when the file carries no telemetry.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    if isinstance(data.get("telemetry"), dict):
        return data["telemetry"]  # a RunReport with the section attached
    if isinstance(data.get("version"), int) and "windows" in data:
        return data  # a bare section written by --telemetry PATH
    if isinstance(data.get("traceEvents"), list):
        section = section_from_trace(data)
        if section is None:
            raise ValueError(f"{path}: trace has no telemetry counter tracks")
        return section
    raise ValueError(f"{path}: neither a RunReport, a telemetry section, nor a trace")


def section_from_trace(trace: dict) -> Optional[dict]:
    """Rebuild a (partial) telemetry section from Chrome counter events.

    Counter events carry one value per (pid, metric, ts); per-peer
    metrics carry one series per peer in their args.  Epochs and the
    original findings are not exported as counters, so the rebuilt
    section re-runs the watchdogs over the recovered series — the
    series are identical, hence so are the findings.
    """
    samples: dict[int, dict[str, list]] = {}
    peer_samples: dict[int, dict[str, dict[str, list]]] = {}
    #: Window boundaries in first-seen order (a dict keeps it).
    seen: dict[float, None] = {}
    for event in trace["traceEvents"]:
        if not isinstance(event, dict) or event.get("cat") != "telemetry":
            continue
        name = event.get("name")
        args = event.get("args")
        if event.get("ph") != "C" or not isinstance(args, dict):
            continue
        seen[float(event["ts"])] = None
        pid = int(event["pid"])
        if name in GAUGE_METRICS or name in DELTA_METRICS:
            samples.setdefault(pid, {}).setdefault(name, []).append(args["value"])
        elif isinstance(name, str) and name.startswith("transport.peer."):
            metric = name[len("transport.peer.") :]
            if metric in PEER_METRICS:
                by_peer = peer_samples.setdefault(pid, {})
                for peer_key, value in args.items():
                    by_peer.setdefault(peer_key, {}).setdefault(metric, []).append(value)
    windows = list(seen)
    if not windows:
        return None
    nodes: dict[str, dict] = {}
    for pid in sorted(samples):
        series = samples[pid]
        entry: dict[str, Any] = {
            "gauges": {m: series[m] for m in GAUGE_METRICS if m in series},
            "deltas": {m: series[m] for m in DELTA_METRICS if m in series},
        }
        peers = peer_samples.get(pid)
        if peers:
            entry["peers"] = {
                key: peers[key] for key in sorted(peers, key=int)
            }
        nodes[str(pid)] = entry
    other = trace.get("otherData", {})
    section = {
        "version": int(other.get("telemetry_version", 1)),
        # Traces exported before the width was recorded: the first
        # window's width, which is exact unless the run had one window.
        "interval_us": other.get(
            "telemetry_interval_us", windows[1] - windows[0] if len(windows) > 1 else 0.0
        ),
        "windows": windows,
        "nodes": nodes,
    }
    from repro.telemetry.watchdog import run_watchdogs

    section["findings"] = run_watchdogs(section)
    return section


def _sparkline(values: list, width: int = 60) -> str:
    if not values:
        return ""
    numeric = [float(v) for v in values]
    if len(numeric) > width:
        # Downsample by taking the max of each bucket (peaks matter).
        bucketed = []
        for index in range(width):
            lo = index * len(numeric) // width
            hi = max(lo + 1, (index + 1) * len(numeric) // width)
            bucketed.append(max(numeric[lo:hi]))
        numeric = bucketed
    low, high = min(numeric), max(numeric)
    span = high - low
    if span <= 0:
        return _SPARK[0] * len(numeric)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - low) / span * (len(_SPARK) - 1) + 0.5))]
        for v in numeric
    )


def _node_metrics(entry: dict) -> list[tuple[str, list]]:
    series = {**entry.get("gauges", {}), **entry.get("deltas", {})}
    return [(name, series[name]) for name in GAUGE_METRICS + DELTA_METRICS if series.get(name)]


def render_text(section: dict, node: Optional[int] = None) -> str:
    """The terminal dashboard: sparkline per metric per node."""
    lines: list[str] = []
    windows = section.get("windows", [])
    lines.append(
        f"telemetry v{section.get('version')}: {len(windows)} windows of "
        f"{section.get('interval_us', 0):g} us"
        + (f" (last at {windows[-1]:g} us)" if windows else "")
    )
    for node_key in sorted(section.get("nodes", {}), key=int):
        if node is not None and int(node_key) != node:
            continue
        entry = section["nodes"][node_key]
        lines.append(f"node {node_key}:")
        for name, series in _node_metrics(entry):
            numeric = [float(v) for v in series]
            lines.append(
                f"  {name:24s} {_sparkline(series)}  "
                f"min {min(numeric):g} max {max(numeric):g} last {numeric[-1]:g}"
            )
        for peer_key in sorted(entry.get("peers", {}), key=int):
            for metric, label, extreme in (("cwnd", "min", min), ("rto_us", "max", max)):
                series = entry["peers"][peer_key].get(metric)
                if series:
                    lines.append(
                        f"  peer {peer_key} {metric:19s}{_sparkline(series)}  "
                        f"{label} {extreme(series):g} last {series[-1]:g}"
                    )
        epochs = entry.get("epochs", [])
        if epochs:
            worst = max(epochs, key=lambda e: e.get("stall_ratio", 0.0))
            lines.append(
                f"  epochs: {len(epochs)}, worst stall_ratio "
                f"{worst.get('stall_ratio', 0.0):g} "
                f"(barrier {worst.get('barrier')} episode {worst.get('episode')})"
            )
    network = section.get("network", {}).get("deltas", {})
    if network:
        lines.append("network:")
        for name, series in network.items():
            numeric = [float(v) for v in series]
            lines.append(
                f"  {name:24s} {_sparkline(series)}  "
                f"sum {sum(numeric):g} max {max(numeric):g}"
            )
    findings = section.get("findings", [])
    if findings:
        lines.append(f"findings ({len(findings)}):")
        for finding in findings:
            lines.append(
                f"  [{finding['monitor']}] node {finding['node']}"
                + (f" peer {finding['peer']}" if "peer" in finding else "")
                + f" windows {finding['window_start']}..{finding['window_end']}"
                f" ({finding['t_start_us']:g}-{finding['t_end_us']:g} us): "
                f"{finding['detail']}"
            )
    else:
        lines.append("findings: none")
    return "\n".join(lines)


def _svg_polyline(values: list, width: int = 360, height: int = 48) -> str:
    numeric = [float(v) for v in values]
    low, high = min(numeric), max(numeric)
    span = high - low or 1.0
    step = width / max(1, len(numeric) - 1)
    points = " ".join(
        f"{index * step:.1f},{height - (value - low) / span * (height - 4) - 2:.1f}"
        for index, value in enumerate(numeric)
    )
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#2b6cb0" stroke-width="1.5" '
        f'points="{points}"/></svg>'
    )


def render_html(section: dict, title: str = "telemetry") -> str:
    """A self-contained HTML dashboard (inline SVG, no assets)."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        "<style>body{font-family:monospace;margin:1.5em;background:#fafafa}"
        "table{border-collapse:collapse}td,th{padding:2px 10px;text-align:left;"
        "border-bottom:1px solid #eee}h2{margin-top:1.2em}"
        ".finding{color:#b00;margin:2px 0}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f"<p>{len(section.get('windows', []))} windows of "
        f"{section.get('interval_us', 0):g} us "
        f"(schema v{section.get('version')})</p>",
    ]
    findings = section.get("findings", [])
    parts.append(f"<h2>watchdog findings ({len(findings)})</h2>")
    if findings:
        for finding in findings:
            parts.append(
                f"<div class='finding'>[{_html.escape(finding['monitor'])}] "
                f"node {finding['node']}"
                + (f" peer {finding['peer']}" if "peer" in finding else "")
                + f" windows {finding['window_start']}&ndash;{finding['window_end']}: "
                f"{_html.escape(finding['detail'])}</div>"
            )
    else:
        parts.append("<p>none</p>")
    for node_key in sorted(section.get("nodes", {}), key=int):
        entry = section["nodes"][node_key]
        parts.append(f"<h2>node {node_key}</h2><table>")
        parts.append("<tr><th>metric</th><th>series</th><th>min</th><th>max</th>"
                     "<th>last</th></tr>")
        for name, series in _node_metrics(entry):
            numeric = [float(v) for v in series]
            parts.append(
                f"<tr><td>{_html.escape(name)}</td><td>{_svg_polyline(series)}</td>"
                f"<td>{min(numeric):g}</td><td>{max(numeric):g}</td>"
                f"<td>{numeric[-1]:g}</td></tr>"
            )
        for peer_key in sorted(entry.get("peers", {}), key=int):
            track = entry["peers"][peer_key]
            for metric in ("cwnd", "rto_us", "backlog"):
                series = track.get(metric)
                if series:
                    numeric = [float(v) for v in series]
                    parts.append(
                        f"<tr><td>peer {peer_key} {metric}</td>"
                        f"<td>{_svg_polyline(series)}</td>"
                        f"<td>{min(numeric):g}</td><td>{max(numeric):g}</td>"
                        f"<td>{numeric[-1]:g}</td></tr>"
                    )
        parts.append("</table>")
        epochs = entry.get("epochs", [])
        if epochs:
            parts.append("<h3>barrier epochs</h3><table>")
            parts.append(
                "<tr><th>barrier</th><th>episode</th><th>start us</th><th>end us</th>"
                "<th>stall us</th><th>switches</th><th>stall ratio</th></tr>"
            )
            for epoch in epochs:
                parts.append(
                    f"<tr><td>{epoch.get('barrier')}</td><td>{epoch.get('episode')}</td>"
                    f"<td>{epoch.get('start_us'):g}</td><td>{epoch.get('end_us'):g}</td>"
                    f"<td>{epoch.get('stall_us'):g}</td><td>{epoch.get('switches')}</td>"
                    f"<td>{epoch.get('stall_ratio', 0.0):g}</td></tr>"
                )
            parts.append("</table>")
    network = section.get("network", {}).get("deltas", {})
    if network:
        parts.append("<h2>network</h2><table>")
        for name, series in network.items():
            numeric = [float(v) for v in series]
            parts.append(
                f"<tr><td>{_html.escape(name)}</td><td>{_svg_polyline(series)}</td>"
                f"<td>sum {sum(numeric):g}</td><td>max {max(numeric):g}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts)
