"""The paper's figures, regenerated.

Each function takes an :class:`~repro.experiments.runner.ExperimentRunner`
and returns ``(text, data)``: a printable rendition plus the raw numbers
(for tests and EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.formatting import (
    breakdown_column,
    render_breakdown_table,
    render_rows,
)
from repro.experiments.runner import CONFIG_LABELS, ExperimentRunner

__all__ = ["figure1", "figure2", "figure3", "figure4", "figure5"]


def figure1(runner: ExperimentRunner):
    """Figure 1: baseline execution-time breakdown on 8 nodes."""
    columns = {}
    for app_name in APP_ORDER:
        report = runner.run(app_name, "O")
        columns[app_name] = breakdown_column(report, report)
    text = render_breakdown_table(
        "Figure 1: execution time breakdown (TreadMarks, 8 nodes, % of each run)",
        columns,
    )
    return text, columns


def figure2(runner: ExperimentRunner):
    """Figure 2: original vs prefetching breakdown, normalized to O."""
    sections = []
    data = {}
    for app_name in APP_ORDER:
        baseline = runner.run(app_name, "O")
        prefetched = runner.run(app_name, "P")
        columns = {
            "O": breakdown_column(baseline, baseline),
            "P": breakdown_column(prefetched, baseline),
        }
        data[app_name] = {"columns": columns, "speedup": prefetched.speedup_over(baseline)}
        sections.append(
            render_breakdown_table(f"{app_name} (speedup {data[app_name]['speedup']:.2f}x)", columns)
        )
    low, high = (pick(data, key=lambda app: data[app]["speedup"]) for pick in (min, max))
    text = (
        "Figure 2: impact of prefetching (normalized to O = 100); speed-ups from "
        f"{data[low]['speedup']:.2f}x ({low}) to {data[high]['speedup']:.2f}x ({high})\n\n"
        + "\n\n".join(sections)
    )
    return text, data


def figure3(runner: ExperimentRunner):
    """Figure 3: breakdown of the original remote misses under P."""
    headers = ["app", "no pf", "pf-miss:invalidated", "pf-miss:too late", "pf-hit"]
    rows = []
    data = {}
    for app_name in APP_ORDER:
        stats = runner.run(app_name, "P").prefetch_stats
        total = stats.hits + stats.late + stats.invalidated + stats.no_pf
        if total == 0:
            shares = {"no_pf": 0.0, "invalidated": 0.0, "late": 0.0, "hit": 0.0}
        else:
            shares = {
                "no_pf": 100.0 * stats.no_pf / total,
                "invalidated": 100.0 * stats.invalidated / total,
                "late": 100.0 * stats.late / total,
                "hit": 100.0 * stats.hits / total,
            }
        data[app_name] = shares
        rows.append(
            [
                app_name,
                f"{shares['no_pf']:.0f}",
                f"{shares['invalidated']:.0f}",
                f"{shares['late']:.0f}",
                f"{shares['hit']:.0f}",
            ]
        )
    text = (
        "Figure 3: what happened to the original remote misses (% under P)\n"
        + render_rows(headers, rows)
    )
    return text, data


def _normalized_figure(runner: ExperimentRunner, title: str, labels: list[str]):
    """Per app, every label's breakdown normalized to O, and the best one."""
    sections = []
    data = {}
    for app_name in APP_ORDER:
        baseline = runner.run(app_name, "O")
        columns = {
            label: breakdown_column(runner.run(app_name, label), baseline)
            for label in labels
        }
        best = min(labels, key=lambda lab: columns[lab]["Total"])
        data[app_name] = {"columns": columns, "best": best}
        sections.append(render_breakdown_table(f"{app_name} (best: {best})", columns))
    text = f"{title} (normalized to O = 100)\n\n" + "\n\n".join(sections)
    return text, data


def figure4(runner: ExperimentRunner):
    """Figure 4: multithreading with 2, 4, 8 threads per node."""
    return _normalized_figure(
        runner, "Figure 4: impact of multithreading", ["O", "2T", "4T", "8T"]
    )


def figure5(runner: ExperimentRunner):
    """Figure 5: prefetching and multithreading combined."""
    return _normalized_figure(
        runner, "Figure 5: combining prefetching and multithreading", CONFIG_LABELS
    )
