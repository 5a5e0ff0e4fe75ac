"""Plain-text rendering of the paper's figures and tables."""

from __future__ import annotations

from repro.metrics.counters import Category
from repro.metrics.report import RunReport

__all__ = [
    "BREAKDOWN_ROWS",
    "breakdown_column",
    "render_breakdown_table",
    "render_rows",
]

#: Stacked-bar categories, top-to-bottom as in the paper's figures.
BREAKDOWN_ROWS = [
    ("Prefetch Ovhd", Category.PREFETCH),
    ("MT Ovhd", Category.MT),
    ("Sync Idle", Category.SYNC_IDLE),
    ("Memory Idle", Category.MEMORY_IDLE),
    ("DSM Ovhd", Category.DSM),
    ("Busy", Category.BUSY),
]


def breakdown_column(report: RunReport, baseline: RunReport) -> dict[str, float]:
    """One stacked bar: category percentages normalized to the baseline,
    plus the bar's total height."""
    normalized = report.normalized_breakdown(baseline)
    column = {label: normalized[cat.value] for label, cat in BREAKDOWN_ROWS}
    column["Total"] = report.normalized_total(baseline)
    return column


def render_rows(headers: list[str], rows: list[list[str]]) -> str:
    """Simple fixed-width table."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(headers[i]).rjust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(str(row[i]).rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def render_breakdown_table(
    title: str,
    columns: dict[str, dict[str, float]],
) -> str:
    """Render stacked-bar columns (config -> {row -> pct}) as a table."""
    headers = ["category"] + list(columns)
    rows = []
    for label, _cat in BREAKDOWN_ROWS:
        rows.append([label] + [f"{columns[c].get(label, 0.0):.1f}" for c in columns])
    rows.append(["Total"] + [f"{columns[c]['Total']:.1f}" for c in columns])
    return f"{title}\n{render_rows(headers, rows)}"
