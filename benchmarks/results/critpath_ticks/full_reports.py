"""Dump the full RunReport of every `observed` ledger cell, one sha256 per cell.

    python3 benchmarks/results/critpath_ticks/full_reports.py REPO_ROOT OUT_DIR [SEED]

Runs REPO_ROOT's simulator on the ten cells of the ledger's `observed`
workload (trace, profile, telemetry, critpath and sanitizer on) and writes
OUT_DIR/<cell>.json — `RunReport.to_dict()` *with* the `profile`, `critpath`
and `telemetry` sections the ledger's `report_digest` leaves out — plus
OUT_DIR/SHA256SUMS.  Run it on two checkouts and `diff` the two SHA256SUMS.
"""

import hashlib
import json
import os
import sys

root, out_dir = sys.argv[1], sys.argv[2]
seed = int(sys.argv[3]) if len(sys.argv) > 3 else 42
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks", "ledger")]

from hostledger.spec import WORKLOADS  # noqa: E402
from hostledger.worker import build_app, build_config  # noqa: E402
from repro import DsmRuntime  # noqa: E402

os.makedirs(out_dir, exist_ok=True)
(workload,) = [w for w in WORKLOADS if w.name == "observed"]
lines = []
for cell in workload.cells:
    report = DsmRuntime(build_config(cell, seed)).execute(build_app(cell))
    text = json.dumps(report.to_dict(), sort_keys=True, indent=1)
    name = cell.id.replace(":", "_").replace("+", "_") + ".json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    section = report.critpath
    lines.append(
        f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"
        f"  identity={section['identity_exact']} dp={section['dp_identity_exact']}"
        f" epochs={section['epochs_exact']} path_us={section['path_us']!r}"
    )
with open(os.path.join(out_dir, "SHA256SUMS"), "w", encoding="utf-8") as handle:
    handle.write("\n".join(lines) + "\n")
print("\n".join(lines))
