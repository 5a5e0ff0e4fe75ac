"""Hash each contract cell's JSONL with this change's declared trace
additions removed, and compare with the parent's trace sha.

    python3 strip.py PARENT_DIGEST OUT

Runs ``benchmarks/contract/run.py digest`` on this checkout with
``run_digests`` replaced by a version that drops the added instants and
the added arguments before hashing.
"""
import hashlib
import json
import os
from pathlib import Path
import sys
import tempfile

REPO = str(Path(__file__).resolve().parents[3])
sys.path[:0] = [os.path.join(REPO, "src"), REPO, os.path.join(REPO, "benchmarks", "contract")]
import tests.dsm.fixtures.record as record  # noqa: E402
from repro.trace.export import jsonl_lines  # noqa: E402

NEW_EVENTS = {"interval_close", "diff_admit", "sc_dir_start", "sc_dir_end", "sc_restore"}
NEW_ARGS = {
    "write_notices": ("notices", "vc"),
    "home_update": ("home",),
    "page_serve": ("home", "covers"),
    "recover": ("vcs",),
}
counts = {"events": 0, "args": 0}
original = record.run_digests


def stripped_digests(runtime, report):
    report_sha, _, _ = original(runtime, report)
    trace = hashlib.sha256()
    count = 0
    for line in jsonl_lines(runtime.tracer.events):
        row = json.loads(line)
        if row["name"] in NEW_EVENTS:
            counts["events"] += 1
            continue
        for key in NEW_ARGS.get(row["name"], ()):
            if key in row.get("args", {}):
                del row["args"][key]
                counts["args"] += 1
        if "args" in row and not row["args"]:
            del row["args"]
        trace.update(json.dumps(row, separators=(",", ":")).encode() + b"\n")
        count += 1
    return report_sha, trace.hexdigest(), count


record.run_digests = stripped_digests
import run as contract  # noqa: E402

parent_file, out = sys.argv[1], sys.argv[2]
with tempfile.TemporaryDirectory() as tmp:
    contract.digest(REPO, os.path.join(tmp, "d.txt"))
    mine = contract.facts(os.path.join(tmp, "d.txt"))
parent = contract.facts(parent_file)
same = sum(parent[k] == mine[k] for k in parent)
lines = [f"{k}: {'same' if parent[k] == mine[k] else 'DIFFERS'}" for k in parent if parent[k] != mine[k]]
summary = (
    f"{same} of {len(parent)} digest lines equal to the parent's after stripping "
    f"({counts['events']} added events and {counts['args']} added arguments stripped)"
)
open(out, "w").write("\n".join(lines + [summary]) + "\n")
print(summary)
