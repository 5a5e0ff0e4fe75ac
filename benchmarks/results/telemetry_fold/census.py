"""Per-cell trace growth: the event count of every traced cell, parent vs change.

    python3 benchmarks/results/telemetry_fold/census.py count ROOT OUT
    python3 benchmarks/results/telemetry_fold/census.py table PARENT_DIGEST CHANGE_DIGEST \\
        PARENT_COUNTS CHANGE_COUNTS

``count`` runs ROOT's simulator over the ledger's ``observed`` cells (every
plane on, as the ledger runs them) and ``lossy_net``'s trace cells with the
tracer on, full size, seed 42, and writes ``CELL events`` lines.  ``table``
joins those with the event-count column of two ``run.py digest`` files and
prints one line per traced cell with its growth, then the totals and the
largest growth.
"""

import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(os.path.dirname(HERE)))


def count(root: str, out: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(REPO, "benchmarks", "ledger")]
    from hostledger.spec import WORKLOADS
    from hostledger.worker import build_app, build_config, cell_seeds

    from repro import DsmRuntime

    lines = []
    for workload in WORKLOADS:
        if workload.name not in ("observed", "lossy_net"):
            continue
        seeds = cell_seeds(workload, 42)
        cells = workload.cells if workload.name == "observed" else workload.trace_cells
        for cell in cells:
            config = replace(build_config(cell, seeds[cell]), trace=True)
            runtime = DsmRuntime(config)
            runtime.execute(build_app(cell), verify=False)
            lines.append(f"ledger:{workload.name}/{cell.id} {len(runtime.tracer)}")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _events(path: str) -> dict[str, int]:
    """CELL -> event count, from a digest file or a ``count`` file."""
    got = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            # A digest line has four fields (its trailer lines have two);
            # a ``count`` line two, named ``ledger:...``.
            if (len(parts) == 4 or parts[:1] and parts[0].startswith("ledger:")) and (
                parts[-1].isdigit()
            ):
                got[parts[0]] = int(parts[-1])
    return got


def table(*paths: str) -> None:
    parent = {**_events(paths[0]), **_events(paths[2])}
    change = {**_events(paths[1]), **_events(paths[3])}
    rows = [(name, parent[name], change[name]) for name in parent if parent[name]]
    print(f"{'cell':48s} {'parent':>8s} {'change':>8s} {'growth':>8s}")
    for name, before, after in rows:
        print(f"{name:48s} {before:8d} {after:8d} {100.0 * (after - before) / before:+7.1f}%")
    before, after = sum(r[1] for r in rows), sum(r[2] for r in rows)
    worst = max(rows, key=lambda r: (r[2] - r[1]) / r[1])
    print(f"{len(rows)} traced cells: {before} -> {after} events ({100.0 * (after - before) / before:+.1f}%)")
    print(f"largest growth: {worst[0]} {100.0 * (worst[2] - worst[1]) / worst[1]:+.1f}%")


if __name__ == "__main__":
    verb, args = sys.argv[1], sys.argv[2:]
    count(*args) if verb == "count" else table(*args)
