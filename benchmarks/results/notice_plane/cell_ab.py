"""Alternating parent/change CPU timings of one lrc cell, each side in fresh subprocesses.

    python3 benchmarks/results/notice_plane/cell_ab.py PARENT_ROOT CHANGE_ROOT APP PRESET NODES [ROUNDS]

Per round and side: one interpreter runs the cell three times (label O, seed
42, verify off) and reports the fastest `process_time` and its peak RSS; odd
rounds run the parent first.  Prints each side's minimum and median.
"""

import statistics
import subprocess
import sys

roots = dict(zip(("parent", "change"), sys.argv[1:3]))
cell = sys.argv[3:6]
rounds = int(sys.argv[6]) if len(sys.argv) > 6 else 4
CHILD = r'''
import sys, time, gc, resource
sys.path.insert(0, sys.argv[1] + "/src")
from repro import DsmRuntime, RunConfig
from repro.apps import make_app
app_name, preset, nodes = sys.argv[2], sys.argv[3], int(sys.argv[4])
times = []
for _ in range(3):
    runtime, app = DsmRuntime(RunConfig(num_nodes=nodes, seed=42)), make_app(app_name, preset=preset)
    gc.collect()
    started = time.process_time()
    runtime.execute(app, verify=False)
    times.append(time.process_time() - started)
print(min(times), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
'''

results = {"parent": [], "change": []}
for index in range(rounds):
    for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
        done = subprocess.run(
            [sys.executable, "-c", CHILD, roots[side], *cell],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin"},
        )
        cpu_s, rss_mb = map(float, done.stdout.split())
        results[side].append((cpu_s, rss_mb))
print(":".join(cell), f"{rounds} alternating rounds")
for side, pairs in results.items():
    cpu = [pair[0] for pair in pairs]
    print(
        f"  {side}: cpu_s min {min(cpu):.3f} med {statistics.median(cpu):.3f}, "
        f"peak_rss_mb med {statistics.median(pair[1] for pair in pairs):.1f}, "
        f"runs {[round(value, 3) for value in cpu]}"
    )
