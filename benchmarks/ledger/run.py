#!/usr/bin/env python3
"""Host-time ledger: what the simulator itself costs, end to end and by layer.

    python3 benchmarks/ledger/run.py                        # six workloads, end to end
    python3 benchmarks/ledger/run.py --trace 1              # six workloads, by layer
    python3 benchmarks/ledger/run.py --workload lossy_net --seed 7 --seconds 16 --trace 0
    python3 benchmarks/ledger/run.py --smoke --trace 1      # small preset, 4 nodes, seconds
    python3 benchmarks/ledger/run.py --compare A.json B.json

Each workload runs alone in a fresh single-threaded subprocess.  With
``--workload`` the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
README.md beside this file defines every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from hostledger import compare, probe
from hostledger.spec import (
    END_TO_END,
    LAYERS,
    PER_LAYER,
    REPORTED_ONLY,
    RUN_SECONDS,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Fresh interpreters that time ``import repro`` for setup_s.
_IMPORT_PROBES = 5
#: The driver allows a run 180 s; stop a runaway child before that.
_CHILD_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # Set ordering and dict-of-set iteration must not depend on the run.
    env["PYTHONHASHSEED"] = "0"
    # One core per workload: keep numpy's BLAS from spawning a thread pool.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _child(args: list[str], env: dict[str, str]) -> str:
    """Run one Python child to completion and return its standard output."""
    done = subprocess.run(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, text=True,
        timeout=_CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"ledger: child {args[:3]} exited with code {done.returncode}")
    return done.stdout


def source_digest() -> str:
    """Identifies the program under test: sha256 over src/repro/**/*.py."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload -> its entry in the result file."""
    env = child_env()
    args = ["-m", "hostledger.worker", "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    doc = json.loads(_child(args + (["--smoke"] if smoke else []), env).splitlines()[-1])
    entry = {
        key: doc[key]
        for key in ("cells", "passes", "attempted", "failed", "errors", "contended",
                    "host_probe_ms", "host_raw_s", "report_digest", "counts", "claims", "env")
    }
    missed = len(doc["claims"]["missed"])
    entry["correct"] = doc["failed"] == 0 and missed == 0
    if trace:
        entry["per_layer"] = {
            metric.name: {"value": doc["per_layer"][metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        }
        entry["trace_cells"] = doc["traced"]["cells"]
    else:
        probes = [json.loads(_child(["-m", "hostledger.probe"], env)) for _ in range(_IMPORT_PROBES)]
        imports = [p["import_s"] / probe.slowdown(p["kernel_ms"]) for p in probes]
        values = {
            "host_s": doc["host_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "setup_s": statistics.median(imports) + doc["construct_s"],
            "sim_wall_ms": doc["sim_wall_ms"],
            "fail_share": doc["failed"] / doc["attempted"],
            "paper_claims_missed": missed,
        }
        entry["end_to_end"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in END_TO_END + REPORTED_ONLY
        }
    return entry


def print_entry(name: str, entry: dict) -> None:
    flags = ("correct" if entry["correct"] else "NOT CORRECT") + (
        ", contended (host wall > 1.05 x host cpu)" if entry["contended"] else "")
    flags += (f", machine-speed probe {entry['host_probe_ms']:.3f} ms "
              f"(host_s {entry['host_raw_s']:.4f} s as the clock read it)")
    print(f"\n== {name}: {len(entry['cells'])} cells x {entry['passes']} passes, "
          f"{entry['failed']} of {entry['attempted']} executions failed, {flags}")
    for error in entry["errors"] + entry["claims"]["missed"]:
        print(f"   !! {error}")
    print(f"   report_digest {entry['report_digest']}")
    for metric in END_TO_END + REPORTED_ONLY:
        if metric.name in entry.get("end_to_end", {}):
            value = entry["end_to_end"][metric.name]["value"]
            print(f"   {metric.name:20s} {value:14.4f} {metric.unit:7s} "
                  f"{metric.better} is better, bound {100 * metric.bound:g}%")
    if "per_layer" not in entry:
        return
    value = {name: metric["value"] for name, metric in entry["per_layer"].items()}
    print(f"   traced {len(entry['trace_cells'])} cells: {', '.join(entry['trace_cells'])}")
    print(f"   traced_s {value['traced_s']:.4f} s = {value['trace_overhead_x']:.2f} x untraced")
    print(f"   {'layer':20s} {'self_s':>10s} {'share':>7s} {'calls':>12s}")
    for layer in LAYERS:
        share = 100 * value[f"{layer}.self_s"] / value["traced_s"] if value["traced_s"] else 0.0
        print(f"   {layer:20s} {value[f'{layer}.self_s']:10.4f} {share:6.1f}% "
              f"{value[f'{layer}.calls']:12.0f}")
    for metric in PER_LAYER[2 * len(LAYERS):]:
        print(f"   {metric.name:36s} {value[metric.name]:16.4f} {metric.unit:7s} "
              f"{metric.better} is better")


def contract_line(entry: dict, trace: int) -> str:
    """The driver's result line for one workload."""
    shown = PER_LAYER if trace else END_TO_END
    metrics = entry["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {metric.name: metrics[metric.name] for metric in shown},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run this workload only (default: all six, one after another)")
    parser.add_argument("--seed", type=int, default=42,
                        help="feeds RunConfig.seed, hence app inputs and fault plans")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="untraced passes repeat until this much time is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the separate per-layer pass under cProfile")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every cell to the small preset on 4 nodes")
    parser.add_argument("--out", help="also write the full result as JSON to this path")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="gate candidate B against baseline A and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: the program under test is missing ({SRC}/repro)", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    result = {
        "schema": "host-ledger-1",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "source_digest": source_digest(),
        "workloads": {},
    }
    for name in names:
        entry = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        result["workloads"][name] = entry
        print_entry(name, entry)
        sys.stdout.flush()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    if args.workload:
        print(contract_line(result["workloads"][args.workload], args.trace))
    return 0 if all(entry["failed"] == 0 for entry in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
