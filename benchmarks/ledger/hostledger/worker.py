"""Run one workload in this (fresh) process and print one JSON document.

``run.py`` starts this module with ``PYTHONHASHSEED=0`` and ``src`` on the
path.  Untraced mode repeats passes over the workload's cells for
``--seconds`` and reports per-cell medians; traced mode makes one untraced
pass for the exact counts and then profiles the trace cells with cProfile.
Either way only ``DsmRuntime.execute(app, verify=False)`` is inside the
timed region, every execution is verified right after it, and the
machine-speed probe (``probe``) runs after every cell so that host times can
be reported with the machine's slowdown divided out.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Optional

import numpy

import repro
from repro import DsmRuntime, RunConfig
from repro.apps import APP_ORDER, LuContiguous, Sor
from repro.experiments import ExperimentRunner
from repro.experiments.runner import make_configured_app, parse_label
from repro.experiments.writeup import ARTIFACTS, PAPER_CLAIMS
from repro.metrics.counters import Category
from repro.metrics.report import RunReport
from repro.network import FaultPlan, TransportConfig

from hostledger import probe
from hostledger.layers import entry_point_codes, fold_profile
from hostledger.spec import EXACT_COUNTS, PER_LAYER, WORKLOADS, Cell, Workload, smoke

#: The paper's data sizes (Section 2.3: 2000x512 SOR, 32x32-block LU) with
#: the iteration count and LU order cut so that a cell takes seconds.
_PAPER_SHORT = {
    "SOR": lambda: Sor(rows=2000, cols=512, iterations=5),
    "LU-CONT": lambda: LuContiguous(n=384, block_size=32),
}

#: The artifacts whose paper-shape checks need only the O and P columns.
_CLAIM_ARTIFACTS = ("fig1", "fig2", "tab1", "fig3")

#: Optional report sections that are not part of the byte-identical core.
_NON_CORE = ("profile", "critpath", "telemetry")

_DROP_PROB = 0.05

#: Probe-kernel runs after every cell (~9 ms each).
_PROBE_SAMPLES = 3


def build_app(cell: Cell):
    if cell.preset == "paper-short":
        return _PAPER_SHORT[cell.app]()
    return make_configured_app(cell.app, cell.preset, cell.label)


def build_config(cell: Cell, seed: int) -> RunConfig:
    threads_per_node, prefetch = parse_label(cell.label)
    extra: dict = {}
    if cell.variant in ("lossy-static", "lossy-adaptive"):
        # The fault plan draws from RunConfig.seed, so --seed moves the drops too.
        extra = {
            "fault_plan": FaultPlan(drop_prob=_DROP_PROB),
            "transport": TransportConfig(adaptive=cell.variant == "lossy-adaptive"),
        }
    elif cell.variant == "observed":
        extra = dict.fromkeys(("trace", "profile", "telemetry", "critpath", "sanitizer"), True)
    return RunConfig(
        num_nodes=cell.nodes,
        threads_per_node=threads_per_node,
        prefetch=prefetch,
        seed=seed,
        protocol=cell.protocol,
        **extra,
    )


def report_digest(report: RunReport) -> str:
    core = {key: value for key, value in report.to_dict().items() if key not in _NON_CORE}
    text = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def exact_counts(report: RunReport, runtime: DsmRuntime) -> dict[str, float]:
    events = report.events
    times = report.breakdown.times
    prefetch = report.prefetch_stats
    return {
        "sim.events": runtime.cluster.sim.events_handled,
        "network.messages": report.total_messages,
        "network.kbytes": report.total_kbytes,
        "network.drops": report.message_drops,
        "network.faults.injected": sum(report.injected_faults.values()),
        "network.transport.retransmissions": report.retransmissions,
        "network.transport.timeouts": events.transport_timeouts,
        "network.transport.acks": events.acks_sent,
        "dsm.remote_misses": events.remote_misses,
        "dsm.cache_faults": events.cache_faults,
        "dsm.lock_misses": events.remote_lock_misses,
        "dsm.barrier_waits": events.barrier_waits,
        "threads.context_switches": events.context_switches,
        "prefetch.issued": prefetch.issued if prefetch else 0,
        "prefetch.hits": prefetch.hits if prefetch else 0,
        "prefetch.late": prefetch.late if prefetch else 0,
        "sim_time.busy_ms": times[Category.BUSY] / 1000.0,
        "sim_time.dsm_overhead_ms": times[Category.DSM] / 1000.0,
        "sim_time.prefetch_overhead_ms": times[Category.PREFETCH] / 1000.0,
        "sim_time.mt_overhead_ms": times[Category.MT] / 1000.0,
        "sim_time.memory_idle_ms": times[Category.MEMORY_IDLE] / 1000.0,
        "sim_time.sync_idle_ms": times[Category.SYNC_IDLE] / 1000.0,
    }


def run_cell(cell: Cell, seed: int, profiler: Optional[cProfile.Profile] = None):
    """Execute and verify one cell; returns ``(record, report)``.

    A cell that raises, trips ``max_events`` or fails its verifier yields a
    record with ``error`` set and no report: the benchmark keeps running and
    counts it as failed.
    """
    gc.collect()
    record: dict = {"error": None}
    report = None
    try:
        started = time.perf_counter()
        app = build_app(cell)
        runtime = DsmRuntime(build_config(cell, seed))
        record["construct_s"] = time.perf_counter() - started
        cpu_started = time.process_time()
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            report = runtime.execute(app, verify=False)
        finally:
            if profiler is not None:
                profiler.disable()
            record["host_s"] = time.perf_counter() - started
            record["cpu_s"] = time.process_time() - cpu_started
        started = time.perf_counter()
        app.verify(runtime)
        record["verify_s"] = time.perf_counter() - started
        record["sim_wall_ms"] = report.wall_time_us / 1000.0
        record["digest"] = report_digest(report)
        record["counts"] = exact_counts(report, runtime)
    except Exception as exc:  # cell boundary: record the failure, keep measuring
        traceback.print_exc(file=sys.stderr)
        record["error"] = f"{cell.id}: {type(exc).__name__}: {exc}"
        report = None
    return record, report


class _CannedRunner(ExperimentRunner):
    """Serves reports the sweep already produced, so the figure and table
    code computes its numbers without simulating anything again."""

    def __init__(self, reports: dict[tuple[str, str], RunReport]) -> None:
        super().__init__(verify=False)
        self._reports = reports

    def run(self, app_name: str, label: str) -> RunReport:
        return self._reports[(app_name, label)]


def claim_cells() -> dict[Cell, tuple[str, str]]:
    """The cells EXPERIMENTS.md's O/P artifacts are built from."""
    return {
        Cell(app, "default", label, 8): (app, label) for app in APP_ORDER for label in ("O", "P")
    }


def paper_claims(reports: dict[Cell, RunReport]) -> dict:
    """Paper-shape checks that DEVIATE on these reports; nothing is checked
    unless the reports cover every cell the checks read."""
    wanted = claim_cells()
    if not all(cell in reports for cell in wanted):
        return {"checked": 0, "missed": []}
    runner = _CannedRunner({key: reports[cell] for cell, key in wanted.items()})
    checked, missed = 0, []
    for artifact in _CLAIM_ARTIFACTS:
        _text, data = ARTIFACTS[artifact](runner)
        for description, check in PAPER_CLAIMS[artifact]:
            checked += 1
            try:
                held = bool(check(data))
            except (KeyError, ZeroDivisionError, ValueError):
                held = False
            if not held:
                missed.append(f"{artifact}: {description}")
    return {"checked": checked, "missed": missed}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def cell_seeds(workload: Workload, seed: int) -> dict[Cell, int]:
    """``RunConfig.seed`` of every cell.  Clean cells all run on ``seed``.
    Lossy cells step it by their rank within their variant: with one seed
    the fault stream drops the same early messages in every application, and
    the retransmit timeouts that costs would add up instead of averaging out.
    The static and the adaptive run of one application share a seed."""
    seeds, ranks = {}, {}
    for cell in workload.cells:
        rank = 0
        if cell.variant.startswith("lossy"):
            rank = ranks[cell.variant] = ranks.get(cell.variant, -1) + 1
        seeds[cell] = seed + rank
    return seeds


def warm_up(workload: Workload, seed: int) -> None:
    """One untimed tiny run per (protocol, variant) the workload uses, so lazy
    imports and first-call caches are paid before the first timed cell."""
    for protocol, variant in dict.fromkeys((c.protocol, c.variant) for c in workload.cells):
        record, _report = run_cell(Cell("SOR", "small", "O", 4, protocol, variant), seed)
        if record["error"]:
            raise RuntimeError(f"warm-up failed: {record['error']}")


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    warm_up(workload, seed)
    seeds = cell_seeds(workload, seed)
    per_cell: dict[Cell, list[dict]] = {cell: [] for cell in workload.cells}
    reports: dict[Cell, RunReport] = {}
    probe_ms: list[float] = []
    before = probe.samples(_PROBE_SAMPLES)
    passes = 0
    started = time.perf_counter()
    while True:
        passes += 1
        pass_started = time.perf_counter()
        for cell in workload.cells:
            record, report = run_cell(cell, seeds[cell])
            # The cell's garbage would otherwise be collected inside the kernel.
            gc.collect()
            after = probe.samples(_PROBE_SAMPLES)
            # How slow the machine was on either side of the cell.
            speed = probe.slowdown(before + after)
            record["host_cal_s"] = record.get("host_s", 0.0) / speed
            record["construct_cal_s"] = record.get("construct_s", 0.0) / speed
            probe_ms += after
            before = after
            runs = per_cell[cell]
            if runs and not record["error"] and record["digest"] != runs[0].get("digest"):
                record["error"] = f"{cell.id}: report differs between passes of one seed"
            runs.append(record)
            if report is not None:
                reports.setdefault(cell, report)
        now = time.perf_counter()
        # Another pass only if at least half of it would fit in the budget;
        # traced mode needs the counts once and spends its time profiling.
        if trace or (now - started) + (now - pass_started) / 2 > seconds:
            break

    def median(cell: Cell, key: str) -> float:
        values = [run[key] for run in per_cell[cell] if key in run]
        return statistics.median(values) if values else 0.0

    def total(key: str) -> float:
        return sum(median(cell, key) for cell in workload.cells)

    runs = [run for cell in workload.cells for run in per_cell[cell]]
    errors = [run["error"] for run in runs if run["error"]]
    first = {cell: per_cell[cell][0] for cell in workload.cells}
    counts = {
        metric.name: sum(run["counts"][metric.name] for run in first.values() if "counts" in run)
        for metric in EXACT_COUNTS
    }
    digest = hashlib.sha256(
        "".join(f"{cell.id}={run.get('digest')}\n" for cell, run in first.items()).encode()
    ).hexdigest()
    wall_all = sum(run.get("host_s", 0.0) for run in runs)
    cpu_all = sum(run.get("cpu_s", 0.0) for run in runs)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "passes": passes,
        "cells": [
            {
                "id": cell.id,
                "seed": seeds[cell],
                "host_s": [run.get("host_cal_s") for run in per_cell[cell]],
                "host_raw_s": [run.get("host_s") for run in per_cell[cell]],
                "sim_wall_ms": first[cell].get("sim_wall_ms"),
                "events": first[cell].get("counts", {}).get("sim.events"),
                "digest": first[cell].get("digest"),
            }
            for cell in workload.cells
        ],
        "attempted": len(runs),
        "failed": len(errors),
        "errors": errors,
        "report_digest": digest,
        "counts": counts,
        "claims": paper_claims(reports),
        "host_s": total("host_cal_s"),
        "host_raw_s": total("host_s"),
        "host_cpu_s": total("cpu_s"),
        "construct_s": total("construct_cal_s"),
        "verify_s": total("verify_s"),
        "slowest_cell_s": max(median(cell, "host_cal_s") for cell in workload.cells),
        "host_probe_ms": statistics.median(probe_ms),
        "sim_wall_ms": sum(run.get("sim_wall_ms", 0.0) for run in first.values()),
        # Wall time well above CPU time means something else held the core.
        "contended": wall_all > 1.05 * cpu_all,
    }
    if trace:
        untraced = {cell: median(cell, "host_s") for cell in workload.trace_cells}
        doc["traced"] = trace_cells(workload, seeds, untraced)
        doc["attempted"] += len(workload.trace_cells)
        doc["failed"] += len(doc["traced"]["errors"])
        doc["errors"] += doc["traced"]["errors"]
        doc["per_layer"] = per_layer_metrics(doc)
    return doc


def trace_cells(workload: Workload, seeds: dict[Cell, int], untraced: dict[Cell, float]) -> dict:
    """cProfile around ``execute`` for each trace cell, folded by layer."""
    codes = entry_point_codes()
    repro_root = os.path.dirname(os.path.abspath(repro.__file__))
    cells = {}
    errors = []
    for cell in workload.trace_cells:
        profiler = cProfile.Profile()
        record, _report = run_cell(cell, seeds[cell], profiler=profiler)
        if record["error"]:
            errors.append(record["error"])
        folded = fold_profile(profiler.getstats(), repro_root, codes)
        folded["traced_s"] = record.get("host_s", 0.0)
        folded["untraced_s"] = untraced[cell]
        cells[cell.id] = folded
    total: dict[str, float] = {}
    for folded in cells.values():
        for name, value in folded.items():
            total[name] = total.get(name, 0) + value
    return {"cells": cells, "total": total, "errors": errors}


def per_layer_metrics(doc: dict) -> dict[str, float]:
    """Every PER_LAYER metric of one traced run, by name."""
    counts = doc["counts"]
    traced = doc["traced"]["total"]
    values = dict(counts)
    values.update({name: value for name, value in traced.items() if name != "untraced_s"})
    values["trace_overhead_x"] = (
        traced["traced_s"] / traced["untraced_s"] if traced["untraced_s"] else 0.0
    )
    events, messages = counts["sim.events"], counts["network.messages"]
    values["sim.host_ns_per_event"] = 1e9 * doc["host_s"] / events if events else 0.0
    values["sim.events_per_msg"] = events / messages if messages else 0.0
    values["prefetch.useful_share"] = (
        counts["prefetch.hits"] / counts["prefetch.issued"] if counts["prefetch.issued"] else 0.0
    )
    values["host_raw_s"] = doc["host_raw_s"]
    values["host_cpu_s"] = doc["host_cpu_s"]
    values["host_probe_ms"] = doc["host_probe_ms"]
    values["slowest_cell_s"] = doc["slowest_cell_s"]
    values["apps.verify_s"] = doc["verify_s"]
    values["paper_claims_missed"] = len(doc["claims"]["missed"])
    return {metric.name: values[metric.name] for metric in PER_LAYER}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = next(w for w in WORKLOADS if w.name == args.workload)
    if args.smoke:
        workload = smoke(workload)
    doc = measure(workload, args.seed, args.seconds, bool(args.trace))
    doc["env"] = environment()
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
