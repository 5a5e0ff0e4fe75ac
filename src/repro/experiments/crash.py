"""The crash-recovery matrix (an extension beyond the paper).

For each application: one fault-free baseline run, then the same
configuration with a crash-stop failure injected partway through the
run, detected by heartbeat timeout, and recovered from the last
coordinated barrier checkpoint.  The columns show where the extra wall
time went — checkpointing, dead time before the rollback, state
restoration — plus the checkpoint footprint.  Every crashed run
executes with the sanitizer on, so each committed checkpoint cut on the
recovery path is checked.
"""

from __future__ import annotations

from repro.apps.registry import APP_ORDER
from repro.experiments.formatting import render_rows
from repro.experiments.runner import ExperimentRunner
from repro.metrics.counters import Category
from repro.network.faults import FaultPlan, NodeCrash

__all__ = ["crash_matrix"]

#: The node that dies (node 0 hosts the barrier manager and never crashes).
CRASH_NODE = 3
#: When it dies, as a fraction of the fault-free wall time.
CRASH_FRAC = 0.45


def crash_matrix(runner: ExperimentRunner):
    """Crash matrix: recovery overhead per application.

    The crash is scheduled at ``CRASH_FRAC`` of the baseline's wall
    time, so it lands mid-computation for every application regardless
    of problem size.  No datagram is lost.
    """
    headers = [
        "app",
        "base(ms)",
        "crash(ms)",
        "overhead%",
        "ckpts",
        "ckpt(ms)",
        "down(ms)",
        "recov(ms)",
        "ckpt-KB",
        "heartbeats",
    ]
    rows = []
    data = {}
    baselines = {app_name: runner.run(app_name, "O") for app_name in APP_ORDER}
    crashed = runner.run_cells(
        {
            (app_name, f"crash n{CRASH_NODE}@{CRASH_FRAC:.0%}"): runner.config(
                "O",
                fault_plan=FaultPlan(
                    crashes=(
                        NodeCrash(node=CRASH_NODE, at_us=baseline.wall_time_us * CRASH_FRAC),
                    ),
                ),
                sanitizer=True,
            )
            for app_name, baseline in baselines.items()
        }
    )
    for (app_name, _), report in crashed.items():
        baseline = baselines[app_name]
        ft = report.extra["ft"]
        times = report.breakdown.times
        entry = {
            "base_ms": baseline.wall_time_us / 1000.0,
            "crash_ms": report.wall_time_us / 1000.0,
            "overhead_pct": 100.0 * (report.wall_time_us / baseline.wall_time_us - 1.0),
            "checkpoints": ft["checkpoints"],
            "checkpoint_ms": times[Category.CHECKPOINT] / 1000.0,
            "downtime_ms": times[Category.DOWNTIME] / 1000.0,
            "recovery_ms": times[Category.RECOVERY] / 1000.0,
            "checkpoint_kb": ft["checkpoint_bytes"] / 1024.0,
            "heartbeats": ft["heartbeats"],
            "detections": ft["detections"],
            "recoveries": ft["recoveries"],
        }
        data[app_name] = entry
        rows.append(
            [
                app_name,
                f"{entry['base_ms']:.1f}",
                f"{entry['crash_ms']:.1f}",
                f"{entry['overhead_pct']:.1f}",
                str(entry["checkpoints"]),
                f"{entry['checkpoint_ms']:.1f}",
                f"{entry['downtime_ms']:.1f}",
                f"{entry['recovery_ms']:.1f}",
                f"{entry['checkpoint_kb']:.0f}",
                str(entry["heartbeats"]),
            ]
        )
    text = (
        f"Crash matrix: node {CRASH_NODE} crashes at {CRASH_FRAC:.0%} of the fault-free wall "
        "time (loss=0%); recovery from the last barrier checkpoint\n"
        + render_rows(headers, rows)
    )
    return text, data
