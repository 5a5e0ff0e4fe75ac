"""What moved across result files: ``python -m repro.explain FILE...``.

Reads single :class:`~repro.metrics.report.RunReport` JSONs and
multi-run ``BENCH_*.json`` files from :mod:`repro.bench`, one column
per file in the order given (oldest first: shell glob order is
chronological under the date-stamped naming), and prints one row for
every selected metric whose value is not the same in every file, with
its net change from the first file to the last::

    python -m repro.explain BENCH_*.json
    python -m repro.explain --metric '*/wall_time_us' BENCH_*.json
    python -m repro.explain BENCH_2026-10-17.json now.json --tolerance 0

Metrics that did not move are counted, not printed.  ``--metric``
selects by fnmatch pattern over the flattened names.  ``--tolerance
FRACTION`` makes the table a gate: a metric fails when its net change,
up or down, exceeds FRACTION of its first value.  No flattened metric
is "higher is worse" everywhere (``time.busy`` and a histogram's
``count`` are not), so a fall fails like a rise.  At tolerance 0 a
metric found in only one of the two end files fails too.

Exit codes: 0 reported (or the gate held), 1 the gate failed, 2 an
unreadable file, an unknown shape, an empty selection, or under the
gate no metrics in common between the first and last file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fnmatch import fnmatchcase
from typing import Optional, Sequence, TextIO

__all__ = ["flatten", "explain", "main"]

#: Sub-dict keys of a RunReport's profile histograms worth gating on.
_HIST_STATS = ("count", "mean", "p50", "p90", "p99", "max")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flatten_profile(profile: dict, prefix: str, out: dict[str, float]) -> None:
    for name, entry in profile.get("histograms", {}).items():
        for stat in _HIST_STATS:
            if stat in entry:
                out[f"{prefix}hist.{name}.{stat}"] = float(entry[stat])
    for name, value in profile.get("counters", {}).items():
        out[f"{prefix}counter.{name}"] = float(value)


def _flatten_report(report: dict, prefix: str, out: dict[str, float]) -> None:
    for key in ("wall_time_us", "total_messages", "total_kbytes", "message_drops",
                "retransmissions"):
        if _is_number(report.get(key)):
            out[prefix + key] = float(report[key])
    totals: dict[str, float] = {}
    for breakdown in report.get("node_breakdowns", ()):
        for category, value in breakdown.items():
            totals[category] = totals.get(category, 0.0) + float(value)
    for category, value in totals.items():
        out[f"{prefix}time.{category}"] = value
    if isinstance(report.get("profile"), dict):
        _flatten_profile(report["profile"], prefix, out)


def flatten(data: dict) -> dict[str, float]:
    """A result file as a flat ``metric name -> value`` map.

    RunReport JSONs flatten to bare names (``wall_time_us``,
    ``time.busy``, ``hist.diff_rtt_us.p99``); bench files prefix each
    run's metrics with ``app/config/``.
    """
    out: dict[str, float] = {}
    if isinstance(data.get("runs"), list):  # repro.bench output
        for run in data["runs"]:
            prefix = f"{run['app']}/{run['config']}/"
            for name, value in run.get("metrics", {}).items():
                if _is_number(value):
                    out[prefix + name] = float(value)
            for hist_name, stats in run.get("quantiles", {}).items():
                for stat, value in stats.items():
                    out[f"{prefix}hist.{hist_name}.{stat}"] = float(value)
    elif "wall_time_us" in data:  # a single RunReport
        _flatten_report(data, "", out)
    else:
        raise ValueError("unrecognized result file (neither RunReport nor bench output)")
    return out


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.2f}"


def _net(first: Optional[float], last: Optional[float]) -> str:
    if first is None or last is None:
        return "-"
    if first:
        return f"{100.0 * (last - first) / abs(first):+.1f}%"
    return f"{last - first:+g}"  # no base to take a percentage of


def _fails(first: Optional[float], last: Optional[float], tolerance: float) -> bool:
    if first is None or last is None:
        return tolerance == 0 and (first is not None or last is not None)
    return abs(last - first) > tolerance * abs(first)


def explain(
    labels: list[str],
    flats: list[dict[str, float]],
    patterns: Sequence[str] = (),
    tolerance: Optional[float] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Print the moved-metric table; return how many metrics fail the gate.

    ``flats`` are flattened files, oldest first, ``labels`` their column
    headers.  Without a ``tolerance`` nothing fails.  Raises
    ``ValueError`` on an empty selection, and under the gate when the
    first and last file share no metric.
    """
    names = sorted(set().union(*flats))
    if patterns:
        names = [name for name in names if any(fnmatchcase(name, p) for p in patterns)]
    if not names:
        raise ValueError("no metric matched the selection")
    if tolerance is not None and not set(flats[0]) & set(flats[-1]):
        raise ValueError("no metrics in common between the first and last file")
    rows = [["metric", *labels, "net"]]
    failed = set()
    for name in names:
        values = [flat.get(name) for flat in flats]
        if all(value == values[0] for value in values):
            continue
        rows.append([name, *map(_format_value, values), _net(values[0], values[-1])])
        if tolerance is not None and _fails(values[0], values[-1], tolerance):
            failed.add(name)
    print(
        f"{len(rows) - 1} of {len(names)} metric(s) moved across {len(flats)} file(s)",
        file=out,
    )
    if len(rows) > 1:
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            cells = [row[0].ljust(widths[0])]
            cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
            print("  ".join(cells) + ("  FAIL" if row[0] in failed else ""), file=out)
    if tolerance is not None:
        print(
            f"{len(failed)} metric(s) moved by more than {100.0 * tolerance:g}% "
            "of their first value",
            file=out,
        )
    return len(failed)


def _load(path: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as handle:
        return flatten(json.load(handle))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explain",
        description="Tabulate the metrics that moved across RunReport/BENCH_*.json "
        "files; with --tolerance, exit 1 when one moved too far.",
    )
    parser.add_argument(
        "files", nargs="+", metavar="FILE", help="RunReport or bench JSON, oldest first"
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fnmatch pattern over flattened metric names (repeatable; "
        "default every metric)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        metavar="FRACTION",
        help="gate: exit 1 when a metric's net change, up or down, exceeds "
        "FRACTION of its first value (0 = exact; default: report only)",
    )
    args = parser.parse_args(argv)
    if args.tolerance is not None and args.tolerance < 0:
        parser.error("--tolerance must not be negative")

    labels = [
        os.path.basename(path).removeprefix("BENCH_").removesuffix(".json")
        for path in args.files
    ]
    try:
        flats = [_load(path) for path in args.files]
        failed = explain(labels, flats, args.metric, args.tolerance)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
