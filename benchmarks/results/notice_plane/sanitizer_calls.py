"""Count and fingerprint the sanitizer's per-notice calls on the `observed` cells.

    python3 benchmarks/results/notice_plane/sanitizer_calls.py REPO_ROOT OUT.txt [SEED]

Runs REPO_ROOT's simulator on the ten cells of the ledger's `observed`
workload with `ProtocolSanitizer.on_write_notice` and `on_vc_update`
wrapped, and writes one line per cell: calls to each, and the sha256 of
the whole call sequence (name and arguments, in call order).  Run it on
two checkouts and `diff` the two files: equal lines mean the per-notice
calls kept their count, their arguments and their order.
"""

import hashlib
import os
import sys

root, out_path = sys.argv[1], sys.argv[2]
seed = int(sys.argv[3]) if len(sys.argv) > 3 else 42
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks", "ledger")]

from hostledger.spec import WORKLOADS  # noqa: E402
from hostledger.worker import build_app, build_config  # noqa: E402
from repro import DsmRuntime  # noqa: E402
from repro.ft.sanitizer import ProtocolSanitizer  # noqa: E402

WATCHED = ("on_write_notice", "on_vc_update")
calls = {}
sequence = hashlib.sha256()


def watch(name):
    inner = getattr(ProtocolSanitizer, name)

    def wrapper(self, *args):
        calls[name] += 1
        sequence.update(repr((name, args)).encode())
        return inner(self, *args)

    setattr(ProtocolSanitizer, name, wrapper)


for name in WATCHED:
    watch(name)

(workload,) = [w for w in WORKLOADS if w.name == "observed"]
lines = []
for cell in workload.cells:
    calls.update(dict.fromkeys(WATCHED, 0))
    sequence = hashlib.sha256()
    DsmRuntime(build_config(cell, seed)).execute(build_app(cell))
    counts = " ".join(f"{name}={calls[name]}" for name in WATCHED)
    lines.append(f"{cell.id}  {counts}  order={sequence.hexdigest()}")
with open(out_path, "w", encoding="utf-8") as handle:
    handle.write("\n".join(lines) + "\n")
print("\n".join(lines))
