"""Hash the parent's reports with ``extra.ft.split_brain_checkpoints``
removed, and diff them against this checkout's digest.

    python3 strip.py PARENT_ROOT CHANGE_DIGEST OUT

Runs ``benchmarks/contract/run.py digest`` on PARENT_ROOT's simulator with
``run_digests`` replaced by one that drops the removed counter from each
report before hashing, writes that digest to OUT and prints ``diff OUT
CHANGE_DIGEST``: no cell may move.
"""
import hashlib
import json
import os
import sys
from pathlib import Path

REPO = str(Path(__file__).resolve().parents[3])
parent_root, change_digest, out = sys.argv[1:4]
sys.path[:0] = [
    os.path.join(parent_root, "src"),
    REPO,
    os.path.join(REPO, "benchmarks", "contract"),
]
import tests.dsm.fixtures.record as record  # noqa: E402

original = record.run_digests
stripped = {"reports": 0}


def stripped_digests(runtime, report):
    _, trace_sha, count = original(runtime, report)
    data = report.to_dict()
    if "split_brain_checkpoints" in data.get("extra", {}).get("ft", {}):
        del data["extra"]["ft"]["split_brain_checkpoints"]
        stripped["reports"] += 1
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), trace_sha, count


record.run_digests = stripped_digests
import run as contract  # noqa: E402

contract.digest(parent_root, out)
print(f"stripped the counter from {stripped['reports']} reports")
sys.exit(contract.diff(out, change_digest))
