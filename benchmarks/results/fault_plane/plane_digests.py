"""sha256 of the full RunReport and of the trace stream, across protocols.

    python3 benchmarks/results/fault_plane/plane_digests.py REPO_ROOT OUT_FILE [SEED]

Runs REPO_ROOT's simulator with trace, profile, telemetry, critpath and
sanitizer all on over 111 `small` 8-node cells — 8 apps x O/P/4T/4TP x
lrc/hlrc/sc, SOR and RADIX at 5 % loss under the static and the adaptive
transport per protocol, and one crash-recovery run per protocol — and
writes one line per cell: sha256 of `RunReport.to_dict()` (every section,
not only the core the ledger's `report_digest` keeps), sha256 of the JSONL
trace, event count.  Run it on two checkouts and `diff` the two files.
"""

import hashlib
import itertools
import json
import os
import sys

root, out_file = sys.argv[1], sys.argv[2]
seed = int(sys.argv[3]) if len(sys.argv) > 3 else 42
sys.path.insert(0, os.path.join(root, "src"))

from repro import DsmRuntime, RunConfig  # noqa: E402
from repro.apps import APP_ORDER  # noqa: E402
from repro.experiments.runner import make_configured_app, parse_label  # noqa: E402
from repro.network import FaultPlan, TransportConfig, message  # noqa: E402
from repro.network.faults import NodeCrash  # noqa: E402
from repro.trace.export import jsonl_lines  # noqa: E402

PROTOCOLS = ("lrc", "hlrc", "sc")
PLANES = dict.fromkeys(("trace", "profile", "telemetry", "critpath", "sanitizer"), True)


def run(app_name, label, protocol, **extra):
    threads_per_node, prefetch = parse_label(label)
    config = RunConfig(
        num_nodes=8,
        threads_per_node=threads_per_node,
        prefetch=prefetch,
        seed=seed,
        protocol=protocol,
        **PLANES,
        **extra,
    )
    # Message ids are process-wide and name the trace's wire spans.
    message._message_ids = itertools.count()
    runtime = DsmRuntime(config)
    report = runtime.execute(make_configured_app(app_name, "small", label))
    text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    trace = hashlib.sha256()
    count = 0
    for line in jsonl_lines(runtime.tracer.events):
        trace.update(line.encode() + b"\n")
        count += 1
    return report, f"{hashlib.sha256(text.encode()).hexdigest()}  {trace.hexdigest()}  {count}"


lines = []
for protocol in PROTOCOLS:
    for app_name in APP_ORDER:
        for label in ("O", "P", "4T", "4TP"):
            lines.append(f"{app_name}:{label}:{protocol}  " + run(app_name, label, protocol)[1])
    for app_name in ("SOR", "RADIX"):
        for adaptive in (False, True):
            extra = {
                "fault_plan": FaultPlan(drop_prob=0.05),
                "transport": TransportConfig(adaptive=adaptive),
            }
            name = f"{app_name}:O:{protocol}:lossy-{'adaptive' if adaptive else 'static'}"
            lines.append(f"{name}  " + run(app_name, "O", protocol, **extra)[1])
    clean, _ = run("SOR", "O", protocol)
    plan = FaultPlan(crashes=(NodeCrash(node=3, at_us=clean.wall_time_us * 0.45),))
    report, digest = run("SOR", "O", protocol, fault_plan=plan)
    assert report.extra["ft"]["recoveries"] == 1, report.extra["ft"]
    lines.append(f"SOR:O:{protocol}:crash  {digest}")
with open(out_file, "w", encoding="utf-8") as handle:
    handle.write("\n".join(lines) + "\n")
print(f"{len(lines)} cells -> {out_file}")
