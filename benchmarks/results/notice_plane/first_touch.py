"""What the first touch of a page costs, per cell: how many there are, how
late in the run they come and how much log each one scans.

    python3 benchmarks/results/notice_plane/first_touch.py [CELL ...]

A cell is APP:preset:label:nodes (lrc).  Wraps `WriteNoticeLog.history`
and, for every call that builds a history, records the log's size at that
moment (records scanned) and the host time of the build.  Default cells:
the LU cells of `paper_sweep` (the pivot block of step k is first touched
at step k, with k steps of records already logged) and `SOR:default:O:64`.
"""

import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import DsmRuntime  # noqa: E402
from repro.dsm.writenotice import WriteNoticeLog  # noqa: E402
from repro.experiments.runner import ExperimentRunner, make_configured_app  # noqa: E402

cells = sys.argv[1:] or [
    "LU-NCONT:default:O:8", "LU-NCONT:default:P:8", "LU-NCONT:default:4T:8",
    "LU-CONT:default:O:8", "LU-CONT:default:P:8", "SOR:default:O:64",
]
inner = WriteNoticeLog.history
stats = {}


def history(log, page_id):
    if page_id in log._by_page:
        return inner(log, page_id)
    scanned = sum(len(known) for known in log._by_proc)
    started = time.perf_counter()
    result = inner(log, page_id)
    stats["build_s"] += time.perf_counter() - started
    stats["builds"] += 1
    stats["late"] += scanned > 0
    stats["scanned"] += scanned
    stats["found"] += len(result)
    return result


WriteNoticeLog.history = history
print("cell  run_s  first_touches  with_a_non-empty_log  records_scanned  records_found  build_s  share")
for cell in cells:
    app_name, preset, label, nodes = cell.split(":")
    stats.update(builds=0, late=0, scanned=0, found=0, build_s=0.0)
    config = ExperimentRunner(num_nodes=int(nodes), preset=preset, seed=42).config(label)
    runtime, app = DsmRuntime(config), make_configured_app(app_name, preset, label)
    started = time.perf_counter()
    runtime.execute(app, verify=False)
    run_s = time.perf_counter() - started
    print(
        f"{cell}  {run_s:.3f}  {stats['builds']}  {stats['late']}  {stats['scanned']}  "
        f"{stats['found']}  {stats['build_s']:.4f}  {100 * stats['build_s'] / run_s:.2f}%"
    )
