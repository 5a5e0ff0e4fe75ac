"""Critical-path what-if matrix: predicted bounds next to measured runs.

For every application the O/P/4T/4TP matrix is measured as usual, and
the O run's program-activity graph yields the what-if projections —
what the *same* execution would have cost with a zero-latency network,
with every diff round-trip hidden (an idealized prefetcher), or with
free context switches.  Putting the projection column next to the
measured column answers the paper's core question per app: how much of
the latency could each tolerance technique possibly recover, and how
much did the real technique actually recover.
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.formatting import render_rows
from repro.experiments.runner import ExperimentRunner

__all__ = ["critpath_matrix"]


def critpath_matrix(runner: ExperimentRunner):
    """What-if projections vs the measured O/P/4T/4TP matrix."""
    headers = [
        "app",
        "O(ms)",
        "P(ms)",
        "pred-P(ms)",
        "4T(ms)",
        "pred-4T(ms)",
        "4TP(ms)",
        "pred-net(ms)",
        "floor(ms)",
        "top-wait",
    ]
    rows = []
    data = {}
    # The O runs carry the critpath section whatever the grid's planes
    # are, so they are this matrix's own cells, not the cached grid's.
    bases = runner.run_cells(
        {(app_name, "critpath"): runner.config("O", critpath=True) for app_name in APP_ORDER}
    )
    for (app_name, _), base in bases.items():
        section = base.critpath or {}
        what_if = section.get("what_if_us", {})
        blame = section.get("blame_us", {})
        waits = {
            k: v for k, v in blame.items() if k not in ("cpu", "unattributed")
        }
        top_wait = max(sorted(waits), key=lambda k: waits[k]) if waits else "-"
        entry = {
            "measured_us": {
                "O": base.wall_time_us,
                **{
                    label: runner.run(app_name, label).wall_time_us
                    for label in ("P", "4T", "4TP")
                },
            },
            "what_if_us": dict(what_if),
            "top_wait": top_wait,
            "identity_exact": section.get("identity_exact", False),
        }
        data[app_name] = entry
        ms = lambda us: f"{us / 1000:.2f}"  # noqa: E731
        rows.append(
            [
                app_name,
                ms(entry["measured_us"]["O"]),
                ms(entry["measured_us"]["P"]),
                ms(what_if.get("perfect_prefetch", 0.0)),
                ms(entry["measured_us"]["4T"]),
                ms(what_if.get("zero_cost_switch", 0.0)),
                ms(entry["measured_us"]["4TP"]),
                ms(what_if.get("zero_latency_network", 0.0)),
                ms(what_if.get("compute_floor", 0.0)),
                top_wait,
            ]
        )
    text = (
        "Critical-path what-if matrix (pred-* = the O run's PAG re-weighted "
        "with that latency hidden;\nbeating a projection means the technique "
        "avoided work outright, not just hid latency)\n"
        + render_rows(headers, rows)
    )
    return text, data
