"""Gate one ledger result file against another (``run.py --compare A B``).

A is the baseline, B the candidate.  Every (workload, end-to-end metric)
gets one row: *worse* or *better* when B moved past the metric's bound,
*same* inside it, *unresolved* when a side lacks the metric.  A host-time
metric is also *unresolved* when a run was marked ``contended``, or when the
two runs' machine-speed probes differ by so much that the verdict could be
the machine's doing: the probes' relative difference is the error bar of the
change.  When both files were produced from one source tree with one seed,
the simulated side must not have moved at all: ``report_digest``,
``sim_wall_ms`` and every exact count are compared for equality.  With one
seed but two source trees, ``sim_wall_ms`` of a workload that injects no
faults is still free of noise, and gets ISSUE 11's 0.5 % bound.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from dataclasses import replace

from hostledger.spec import END_TO_END, REPORTED_ONLY, SIM_WALL_SAME_SEED_BOUND, Metric

__all__ = ["classify", "compare_results", "main"]

#: Metrics read off the host clock: a contended run says nothing about them.
_HOST_TIMED = ("host_s", "setup_s")


def classify(
    metric: Metric, base: Optional[float], new: Optional[float], error: float = 0.0
) -> tuple[str, float]:
    """``(verdict, signed relative change)``; positive change = got worse.

    ``error`` is how far the change may be off either way: a verdict stands
    only if the whole of ``change +- error`` lies on one side of the bound.
    """
    if base is None or new is None:
        return "unresolved", math.nan
    delta = new - base if metric.better == "lower" else base - new
    change = delta / abs(base) if base else (0.0 if delta == 0 else math.copysign(math.inf, delta))
    if change - error > metric.bound:
        return "worse", change
    if change + error < -metric.bound:
        return "better", change
    if abs(change) + error <= metric.bound:
        return "same", change
    return "unresolved", change


def _value(entry: dict, name: str) -> Optional[float]:
    metric = entry.get("end_to_end", {}).get(name)
    return None if metric is None else metric["value"]


def compare_results(base: dict, new: dict) -> list[dict]:
    """One row per (workload, metric), plus the exactness rows."""
    same_seed = all(base.get(key) == new.get(key) for key in ("seed", "smoke"))
    same_program = same_seed and base.get("source_digest") == new.get("source_digest")
    rows = []
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            rows.append({"workload": name, "metric": "*", "verdict": "unresolved",
                         "note": "workload missing from the candidate"})
            continue
        contended = base_entry.get("contended") or new_entry.get("contended")
        probes = base_entry["host_probe_ms"], new_entry["host_probe_ms"]
        drift = abs(probes[1] - probes[0]) / probes[0]
        for metric in END_TO_END + REPORTED_ONLY:
            old, cur = _value(base_entry, metric.name), _value(new_entry, metric.name)
            if old is None and cur is None:
                continue  # a traced file carries no end-to-end metrics
            host_timed = metric.name in _HOST_TIMED
            if metric.name == "sim_wall_ms" and same_seed and not (
                base_entry["counts"]["network.faults.injected"]
                or new_entry["counts"]["network.faults.injected"]
            ):
                # No random faults: simulated time depends on seed and source only.
                metric = replace(metric, bound=SIM_WALL_SAME_SEED_BOUND)
            verdict, change = classify(metric, old, cur, drift if host_timed else 0.0)
            note = ""
            if host_timed and contended:
                verdict, note = "unresolved", "a run was contended"
            elif host_timed and verdict == "unresolved" and None not in (old, cur):
                note = (f"the machine-speed probe read {probes[0]:.3f} ms, then {probes[1]:.3f} ms "
                        f"({100 * drift:.1f}% apart)")
            rows.append({"workload": name, "metric": metric.name, "base": old, "new": cur,
                         "change": change, "bound": metric.bound, "verdict": verdict,
                         "note": note})
        if not same_program:
            continue
        exact = {"report_digest": (base_entry["report_digest"], new_entry["report_digest"])}
        for key in base_entry["counts"]:
            exact[key] = (base_entry["counts"][key], new_entry["counts"].get(key))
        if _value(base_entry, "sim_wall_ms") is not None:
            exact["sim_wall_ms (exact)"] = (
                _value(base_entry, "sim_wall_ms"), _value(new_entry, "sim_wall_ms"))
        differing = [key for key, (old, cur) in exact.items() if old != cur]
        rows.append({
            "workload": name, "metric": "simulated side", "verdict": "worse" if differing else "same",
            "note": ("one source tree and seed, but these differ: " + ", ".join(differing))
            if differing else f"digest and {len(exact) - 1} exact values identical",
        })
    return rows


def _format(row: dict) -> str:
    text = f"{row['workload']:13s} {row['metric']:20s} {row['verdict']:10s}"
    if "base" in row and row["base"] is not None and row["new"] is not None:
        text += f" {row['base']:12.4f} -> {row['new']:12.4f} {100 * row['change']:+7.2f}%"
        text += f" (bound {100 * row['bound']:g}%)"
    if row.get("note"):
        text += f"  {row['note']}"
    return text


def main(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    rows = compare_results(base, new)
    print(f"baseline {base_path}  candidate {new_path}  (change > 0 means worse)")
    for row in rows:
        print(_format(row))
    tally = {verdict: sum(1 for row in rows if row["verdict"] == verdict)
             for verdict in ("same", "better", "worse", "unresolved")}
    print("  ".join(f"{verdict} {count}" for verdict, count in tally.items()))
    return 1 if tally["worse"] else 0
