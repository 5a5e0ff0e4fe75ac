"""The profile sections of 576 runs outside the contract cell set.

    python3 benchmarks/results/profile_fold/sweep.py PARENT_ROOT parent.json
    python3 benchmarks/results/profile_fold/sweep.py . change.json
    cmp parent.json change.json

Runs ROOT's simulator with only the profile on: every app x O/P/2T/4TP x
lrc/hlrc/sc on 4 and 5 nodes (seeds 1 and 7), then SOR, WATER-NSQ, RADIX
and OCEAN (O and 4TP, every protocol, both transports) under crashes at
four instants with 2 % loss, a 900 ms and a 100 ms partition, a node stall
and 20 % loss with duplication and reordering.  Writes one JSON object,
run name -> profile section (keys sorted), so equal sections are equal files.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[3]
root, out = Path(sys.argv[1]).resolve(), sys.argv[2]
sys.path[:0] = [str(root / "src"), str(REPO)]
from repro.apps import APP_ORDER  # noqa: E402
from repro.dsm.backend import BACKEND_NAMES  # noqa: E402
from repro.network import FaultPlan, TransportConfig  # noqa: E402
from repro.network.faults import LinkPartition, NodeCrash, NodeStall  # noqa: E402
from tests.dsm.fixtures.record import traced_run  # noqa: E402

PROFILE_ONLY = {"trace": False, "telemetry": False, "critpath": False, "sanitizer": False}
PLANS = {
    "part900": FaultPlan(partitions=(LinkPartition(6_000.0, 906_000.0, nodes=frozenset({2})),)),
    "part100": FaultPlan(partitions=(LinkPartition(6_000.0, 106_000.0, nodes=frozenset({2})),)),
    "stall": FaultPlan(stalls=(NodeStall(1, 4_000.0, 54_000.0),)),
    "loss20": FaultPlan(drop_prob=0.2, duplicate_prob=0.05, reorder_prob=0.1, jitter_us=300.0),
}
sections = {}


def run(name, app_name, label, protocol, **overrides):
    _, report = traced_run(app_name, label, protocol, **PROFILE_ONLY, **overrides)
    sections[name] = report.profile


for seed in (1, 7):
    for protocol in BACKEND_NAMES:
        for app_name in APP_ORDER:
            for label in ("O", "P", "2T", "4TP"):
                name = f"{app_name}:{label}:{protocol}:s{seed}"
                run(name, app_name, label, protocol, seed=seed, num_nodes=3 + seed % 3)
for protocol in BACKEND_NAMES:
    for app_name in ("SOR", "WATER-NSQ", "RADIX", "OCEAN"):
        for label in ("O", "4TP"):
            for adaptive in (False, True):
                transport = TransportConfig(adaptive=adaptive)
                for at in (3_000.0, 9_000.0, 20_000.0, 40_000.0):
                    plan = FaultPlan(drop_prob=0.02, crashes=(NodeCrash(1 + int(at) % 3, at),))
                    name = f"{app_name}:{label}:{protocol}:crash{int(at)}:{adaptive}"
                    run(name, app_name, label, protocol, seed=3, fault_plan=plan, transport=transport)
                for plan_name, plan in PLANS.items():
                    name = f"{app_name}:{label}:{protocol}:{plan_name}:{adaptive}"
                    run(name, app_name, label, protocol, seed=5, fault_plan=plan, transport=transport)
Path(out).write_text(json.dumps(sections, sort_keys=True) + "\n", encoding="utf-8")
print(f"{len(sections)} profile sections -> {out}")
