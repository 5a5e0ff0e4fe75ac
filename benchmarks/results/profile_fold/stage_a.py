"""Stage A: fold a parent checkout's traces with this tree's fold, and list
every metric that does not match the parent's hooked profiler.

    python3 benchmarks/results/profile_fold/stage_a.py PARENT_ROOT > stage_a.txt

Runs the 153 contract cells (the cell list of ``benchmarks/contract/run.py
digest``) on PARENT_ROOT's simulator with the trace and the profiler on,
folds each trace with this tree's ``repro.profile.profiler.fold_events``
and compares the two per node (histograms, counters) and per hot-entity
metric.  Events that need a fact the parent's trace does not carry (a
``since`` argument, an unrounded ``rto_update``) are left out of the fold,
so the metrics they feed show up as mismatches.  PARENT_ROOT must still
have the hooked profiler (``runtime.profiler``).
"""

import collections
import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[3]
parent = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(parent / "src"), str(REPO), str(REPO / "benchmarks" / "ledger")]
from hostledger.spec import WORKLOADS  # noqa: E402
from repro.apps import APP_ORDER  # noqa: E402
from repro.dsm.backend import BACKEND_NAMES  # noqa: E402
from repro.network import FaultPlan  # noqa: E402
from repro.network.faults import NodeCrash  # noqa: E402
from tests.dsm.fixtures.record import FAULTS, TRANSPORTS, fault_overrides, traced_run  # noqa: E402

# This tree's fold, loaded beside the parent's package (it imports only
# repro.errors and repro.profile.registry, which the parent has).
_spec = importlib.util.spec_from_file_location("fold", REPO / "src/repro/profile/profiler.py")
fold = importlib.util.module_from_spec(_spec)
sys.modules["fold"] = fold
_spec.loader.exec_module(fold)

#: (phase, name) -> the argument the fold needs that the parent may lack.
NEEDS = {("e", "lock_wait"): "since", ("i", "lock_handoff"): "since",
         ("i", "retransmit"): "since", ("i", "rto_update"): "sample"}
registries = collections.Counter()
equal = collections.Counter()
tables = collections.Counter()
tables_equal = collections.Counter()
skipped = collections.Counter()


def foldable(events):
    for event in events:
        need = NEEDS.get((event.ph, event.name))
        if need is not None and need not in (event.args or {}):
            skipped[event.name] += 1
            continue
        yield event


def cell(app_name, label, protocol, **overrides):
    runtime, report = traced_run(app_name, label, protocol, **overrides)
    live = runtime.profiler
    got = fold.fold_events(foldable(runtime.tracer.events), len(live.registries))
    for theirs, mine in zip(live.registries, got.registries):
        for metric, histogram in theirs.histograms.items():
            registries[metric] += 1
            other = mine.histograms.get(metric)
            equal[metric] += other is not None and other.to_dict() == histogram.to_dict()
        for metric, value in theirs.counters.items():
            registries[metric] += 1
            equal[metric] += mine.counters.get(metric) == value
    for kind, table in live.entities.items():
        for metric in {m for stats in table.values() for m in stats}:
            key = f"{kind}.{metric}"
            tables[key] += 1
            want = {e: s[metric] for e, s in table.items() if metric in s}
            have = {e: s[metric] for e, s in got.entities[kind].items() if metric in s}
            tables_equal[key] += have == want
    return report


eight = {"num_nodes": 8, "seed": 42}
for protocol in BACKEND_NAMES:
    for app_name in APP_ORDER:
        for label in ("O", "P", "4T", "4TP"):
            report = cell(app_name, label, protocol, **eight)
            if (app_name, label) == ("SOR", "O"):
                clean_wall_us = report.wall_time_us
    for app_name in ("SOR", "RADIX"):
        for transport in TRANSPORTS.values():
            lossy = {**eight, "fault_plan": FaultPlan(drop_prob=0.05), "transport": transport}
            cell(app_name, "O", protocol, **lossy)
    plan = FaultPlan(crashes=(NodeCrash(node=3, at_us=clean_wall_us * 0.45),))
    cell("SOR", "O", protocol, **eight, fault_plan=plan)
for app_name in ("SOR", "RADIX"):
    for fault in (f"{plan}-{kind}" for plan in FAULTS for kind in TRANSPORTS):
        cell(app_name, "P", "lrc", **fault_overrides(fault))
(observed,) = [workload for workload in WORKLOADS if workload.name == "observed"]
for spec in observed.cells:
    cell(spec.app, spec.label, spec.protocol, preset=spec.preset, num_nodes=spec.nodes, seed=42)

print("| histogram or counter | per-node registries | fold byte-equal |")
print("|---|---|---|")
for metric in sorted(registries):
    print(f"| `{metric}` | {registries[metric]} | {equal[metric]} |")
print()
print("| hot-entity metric | cells | fold equal on every entity |")
print("|---|---|---|")
for key in sorted(tables):
    print(f"| `{key}` | {tables[key]} | {tables_equal[key]} |")
print()
print("events left out (fact not on the trace):", dict(sorted(skipped.items())))
