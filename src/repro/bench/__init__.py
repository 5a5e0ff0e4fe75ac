"""The benchmark harness: ``python -m repro.bench``.

Sweeps applications across the paper's technique configurations — base
(O), prefetch (P), multithreading (nT), combined (nTP) — with profiling
on, and emits one machine-readable ``BENCH_<date>.json``: wall time,
category breakdowns, and latency-histogram quantiles per (app, config)
cell.  The files seed the repo's performance trajectory, which
``python -m repro.explain BENCH_*.json`` tabulates.  The simulation is
deterministic, so on one code revision the same sweep always produces the
same numbers; the byte-level gate on them is ``contract.txt``
(``benchmarks/contract/``), not a bench document.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.apps.registry import APP_ORDER
from repro.experiments.runner import ExperimentRunner
from repro.metrics.report import RunReport
from repro.profile import ProfileConfig

__all__ = ["BENCH_SCHEMA", "DEFAULT_CONFIGS", "run_bench", "bench_filename"]

BENCH_SCHEMA = "repro-bench-1"

#: base, prefetch, multithreading, combined — the paper's four schemes.
DEFAULT_CONFIGS = ("O", "P", "4T", "4TP")

#: Histogram stats embedded per quantile row (compare gates on these).
_STATS = ("count", "mean", "p50", "p90", "p99", "max")


def normalize_app(name: str) -> str:
    """Case-insensitive app lookup ('sor' -> 'SOR')."""
    wanted = name.strip().upper()
    if wanted not in APP_ORDER:
        raise ValueError(f"unknown app {name!r} (choose from {', '.join(APP_ORDER)})")
    return wanted


def bench_filename(date: Optional[str] = None) -> str:
    return f"BENCH_{date or time.strftime('%Y%m%d')}.json"


def _run_entry(report: RunReport) -> dict:
    metrics: dict = {
        "wall_time_us": report.wall_time_us,
        "total_messages": report.total_messages,
        "total_kbytes": report.total_kbytes,
        "message_drops": report.message_drops,
        "retransmissions": report.retransmissions,
    }
    for category, value in report.breakdown.as_dict().items():
        metrics[f"time.{category}"] = value
    profile = report.profile or {}
    quantiles = {
        name: {stat: entry[stat] for stat in _STATS}
        for name, entry in profile.get("histograms", {}).items()
    }
    return {
        "app": report.app_name,
        "config": report.config_label,
        "protocol": report.protocol,
        "metrics": metrics,
        "quantiles": quantiles,
        "hot_pages": profile.get("hot_pages", []),
    }


def run_bench(
    apps: list[str],
    configs: list[str],
    num_nodes: int = 8,
    preset: str = "small",
    seed: int = 42,
    verify: bool = True,
    top_n: int = 5,
    verbose: bool = True,
    jobs: int = 1,
    protocol: str = "lrc",
) -> dict:
    """Run the sweep and return the BENCH document (not yet written).

    ``jobs > 1`` fans the (app, config) cells across worker processes;
    every run is still fully deterministic, so the document is
    byte-identical for any jobs count — only the wall clock changes.
    """
    runner = ExperimentRunner(
        num_nodes=num_nodes, preset=preset, seed=seed, verify=verify, verbose=verbose, jobs=jobs
    )
    reports = runner.run_cells(
        {
            (app_name, label): runner.config(
                label, protocol=protocol, profile=ProfileConfig(top_n=top_n)
            )
            for app_name in map(normalize_app, apps)
            for label in configs
        }
    )
    return {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%d"),
        "preset": preset,
        "nodes": num_nodes,
        "seed": seed,
        "protocol": protocol,
        "configs": list(configs),
        "runs": [_run_entry(report) for report in reports.values()],
    }
