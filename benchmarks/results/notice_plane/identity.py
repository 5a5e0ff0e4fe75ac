"""Byte identity of two ledger result files: `run.py --compare` gates host
metrics; this prints what must not move at all.

    python3 benchmarks/results/notice_plane/identity.py PARENT.json CHANGE.json

Per workload: `report_digest`, every exact count, `failed`, and per cell
`events`, `sim_wall_ms` and `digest`.  Exits non-zero on any difference.
"""

import json
import sys

parent, change = (json.load(open(path, encoding="utf-8"))["workloads"] for path in sys.argv[1:3])
moved = cells = 0
for name, old in parent.items():
    new = change[name]
    diffs = [key for key in ("report_digest", "failed") if old[key] != new[key]]
    diffs += [f"counts.{key}" for key in old["counts"] if old["counts"][key] != new["counts"].get(key)]
    for before, after in zip(old["cells"], new["cells"]):
        cells += 1
        diffs += [
            f"{before['id']}.{key}"
            for key in ("id", "events", "sim_wall_ms", "digest")
            if before[key] != after[key]
        ]
    moved += len(diffs)
    print(
        f"{name:13s} report_digest {new['report_digest'][:16]}  {len(old['counts'])} exact counts, "
        f"{len(old['cells'])} cells, failed {new['failed']}: {'equal' if not diffs else 'MOVED ' + ', '.join(diffs)}"
    )
print(f"{cells} cells, {moved} differences")
sys.exit(1 if moved else 0)
