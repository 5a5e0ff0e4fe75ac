"""Alternating parent/change pairs of one ledger workload.

    python3 benchmarks/results/notice_plane/pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD [PAIRS] [SEED]

Runs `benchmarks/ledger/run.py --workload WORKLOAD --out ...` from each
checkout (each side builds what it runs from its own tree), PAIRS times
(default 10), odd pairs parent first and even pairs change first, nothing
else in between.  Prints, per end-to-end metric, each side's quartiles,
the median change, the parent's own quartile distance and how many pairs
the change won, then every pair; exits non-zero unless `report_digest`
and the exact counts are equal on every run and no execution failed.
"""

import json
import statistics
import subprocess
import sys
import tempfile

parent_root, change_root, workload = sys.argv[1:4]
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seed = sys.argv[5] if len(sys.argv) > 5 else "42"
METRICS = ("host_s", "peak_rss_mb", "setup_s", "sim_wall_ms")


def run(root):
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run(
            [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
             "--seed", seed, "--out", out.name],
            cwd=root, check=True, stdout=subprocess.DEVNULL,
        )
        with open(out.name, encoding="utf-8") as handle:  # by name: run.py may replace it
            return json.load(handle)["workloads"][workload]


runs = {"parent": [], "change": []}
roots = {"parent": parent_root, "change": change_root}
for pair in range(pairs):
    for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
        runs[side].append(run(roots[side]))

first = runs["parent"][0]
identical = all(
    entry["report_digest"] == first["report_digest"] and entry["counts"] == first["counts"]
    for side in runs.values() for entry in side
)
failed = sum(entry.get("failed", 0) for side in runs.values() for entry in side)
print(
    f"{workload}: {pairs} alternating pairs, seed {seed} (odd pairs parent first, even pairs "
    f"change first); report_digest and exact counts "
    f"{'equal on every run' if identical else 'DIFFER'}, failed {failed}"
)
for name in METRICS:
    series = {
        side: [entry["end_to_end"][name]["value"] for entry in entries]
        for side, entries in runs.items()
    }
    p, c = (statistics.quantiles(series[side], n=4, method="inclusive") for side in runs)
    wins = sum(b < a for a, b in zip(series["parent"], series["change"]))
    losses = sum(b > a for a, b in zip(series["parent"], series["change"]))
    print(
        f"  {name}: parent q1/med/q3 {p[0]:.4f}/{p[1]:.4f}/{p[2]:.4f} "
        f"(min-max {min(series['parent']):.4f}-{max(series['parent']):.4f}) | "
        f"change {c[0]:.4f}/{c[1]:.4f}/{c[2]:.4f} "
        f"(min-max {min(series['change']):.4f}-{max(series['change']):.4f}) | "
        f"median {100 * (c[1] - p[1]) / p[1]:+.2f}%, parent q3-q1 "
        f"{100 * (p[2] - p[0]) / p[1]:.2f}% of its median, change lower in {wins} pairs, "
        f"higher in {losses}"
    )
    print(
        f"  {name} per pair (parent, change): "
        f"{[(round(a, 4), round(b, 4)) for a, b in zip(series['parent'], series['change'])]}"
    )
contended = {side: sum(bool(e.get("contended")) for e in entries) for side, entries in runs.items()}
print(f"  contended runs: {contended['parent']} parent, {contended['change']} change")
sys.exit(0 if identical and not failed else 1)
