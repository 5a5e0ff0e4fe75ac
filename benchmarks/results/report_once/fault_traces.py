"""sha256 of the full RunReport and of the trace stream under fault plans.

    python3 benchmarks/results/report_once/fault_traces.py REPO_ROOT OUT_FILE

`fault_plane/plane_digests.py` never fences, rejoins, corrupts or duplicates,
so this runs REPO_ROOT's simulator, every plane on, over SOR and RADIX (`P`,
small, 4 nodes, seed 7, lrc) under each plan of `tests/dsm/fixtures/record.py`
(this checkout's: the plans are the tier-1 fixture's, defined once) and both
transports, and writes one line per cell — sha256 of `RunReport.to_dict()`,
sha256 of the JSONL trace, event count — then how often each event the change
re-routed through a shared reporter was emitted over all cells.  Run it on
two checkouts and `diff` the two files.
"""

import collections
import hashlib
import json
import os
import sys

root, out_file = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(root, "src"))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "../../.."))

from repro.trace.export import jsonl_lines  # noqa: E402
from tests.dsm.fixtures.record import FAULTS, TRANSPORTS, fault_overrides, traced_run  # noqa: E402

REROUTED = (
    "network/msg_drop network/msg_corrupt network/msg_duplicate network/msg_checksum_fail "
    "ft/crash ft/stand_down ft/fence ft/rejoin ft/checkpoint_stood_down ft/checkpoint "
    "ft/declare_dead ft/recover ft/suspicion_opened ft/suspicion_reported ft/suspicion_cleared "
    "transport/transport_timeout transport/retries_exhausted transport/cwnd_halved "
    "transport/retransmit transport/park_probe transport/duplicate_suppressed "
    "prefetch/prefetch_throttled prefetch/prefetch_shed prefetch/prefetch_drop "
    "sched/stall:memory sched/stall:lock sched/stall:barrier "
    "cpu/memory_idle cpu/sync_idle cpu/checkpoint cpu/recovery cpu/downtime"
).split()

lines = []
emitted = collections.Counter()
for app_name in ("SOR", "RADIX"):
    for fault in (f"{plan}-{transport}" for plan in FAULTS for transport in TRANSPORTS):
        runtime, report = traced_run(app_name, "P", "lrc", **fault_overrides(fault))
        text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
        trace = hashlib.sha256()
        count = 0
        for line in jsonl_lines(runtime.tracer.events):
            trace.update(line.encode() + b"\n")
            count += 1
        emitted.update(f"{event.cat}/{event.name}" for event in runtime.tracer.events)
        lines.append(
            f"{app_name}:P:lrc:{fault}  {hashlib.sha256(text.encode()).hexdigest()}  "
            f"{trace.hexdigest()}  {count}"
        )
lines.append("")
lines.extend(f"{name:32s} {emitted[name]:6d}" for name in REROUTED)
with open(out_file, "w", encoding="utf-8") as handle:
    handle.write("\n".join(lines) + "\n")
print(f"{len(FAULTS) * len(TRANSPORTS) * 2} cells -> {out_file}")
