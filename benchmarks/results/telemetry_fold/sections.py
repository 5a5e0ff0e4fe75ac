"""sha256 of the telemetry section of every planes-on contract cell, at one window width.

    python3 benchmarks/results/telemetry_fold/sections.py ROOT INTERVAL_US OUT

Runs ROOT's simulator over the cells of ``run.py digest``'s planes-on sets
(the 111 eight-node cells, the 32 fault-plan cells and ``observed``'s ten)
with ``TelemetryConfig(interval_us=INTERVAL_US)`` and writes
``CELL sha256(section) windows`` lines.  Run it on the parent (the live
sampler) and on the change (the fold) and ``diff`` the two files.
"""

import hashlib
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


def main(root: str, interval: float, out: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"), REPO, os.path.join(REPO, "benchmarks", "ledger")]
    from hostledger.spec import WORKLOADS

    from repro.apps import APP_ORDER
    from repro.dsm.backend import BACKEND_NAMES
    from repro.network import FaultPlan
    from repro.network.faults import NodeCrash
    from repro.telemetry import TelemetryConfig
    from tests.dsm.fixtures.record import FAULTS, TRANSPORTS, fault_overrides, traced_run

    lines = []

    def cell(name, app, label, protocol, **overrides):
        window = TelemetryConfig(interval_us=interval)
        _, report = traced_run(app, label, protocol, telemetry=window, **overrides)
        text = json.dumps(report.telemetry, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode()).hexdigest()
        lines.append(f"{name} {digest} {len(report.telemetry['windows'])}")
        return report

    eight = {"num_nodes": 8, "seed": 42}
    for protocol in BACKEND_NAMES:
        for app in APP_ORDER:
            for label in ("O", "P", "4T", "4TP"):
                report = cell(f"{app}:{label}:{protocol}", app, label, protocol, **eight)
                if (app, label) == ("SOR", "O"):
                    clean_wall_us = report.wall_time_us
        for app in ("SOR", "RADIX"):
            for kind, transport in TRANSPORTS.items():
                lossy = {**eight, "fault_plan": FaultPlan(drop_prob=0.05), "transport": transport}
                cell(f"{app}:O:{protocol}:lossy-{kind}", app, "O", protocol, **lossy)
        plan = FaultPlan(crashes=(NodeCrash(node=3, at_us=clean_wall_us * 0.45),))
        cell(f"SOR:O:{protocol}:crash", "SOR", "O", protocol, **eight, fault_plan=plan)
    for app in ("SOR", "RADIX"):
        for fault in (f"{plan}-{kind}" for plan in FAULTS for kind in TRANSPORTS):
            cell(f"{app}:P:lrc:{fault}", app, "P", "lrc", **fault_overrides(fault))
    (observed,) = [workload for workload in WORKLOADS if workload.name == "observed"]
    for spec in observed.cells:
        size = {"preset": spec.preset, "num_nodes": spec.nodes, "seed": 42}
        cell(spec.id, spec.app, spec.label, spec.protocol, **size)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3])
