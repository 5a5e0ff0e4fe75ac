"""Write one RunReport JSON per ledger cell, from ROOT's simulator.

    python3 benchmarks/results/timer_per_peer/cell_reports.py ROOT OUTDIR [WORKLOAD...]

Each cell runs on the RunConfig and seed the ledger gives it
(``hostledger.worker.build_config`` and ``cell_seeds``, seed 42), and its
report goes to ``OUTDIR/WORKLOAD/CELL.json``.  Run it on two checkouts and
feed each pair of files to ``python -m repro.explain``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve()
root, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(HERE.parents[2] / "ledger")]

from hostledger import spec, worker  # noqa: E402
from repro import DsmRuntime  # noqa: E402

names = sys.argv[3:] or [workload.name for workload in spec.WORKLOADS]
for workload in spec.WORKLOADS:
    if workload.name not in names:
        continue
    for cell, seed in worker.cell_seeds(workload, 42).items():
        report = DsmRuntime(worker.build_config(cell, seed)).execute(worker.build_app(cell))
        path = out / workload.name / f"{cell.id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json() + "\n")
        print(path)
