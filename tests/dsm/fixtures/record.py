"""The cells and digests ``test_fault_plane.py`` holds the three backends to.

``python3 benchmarks/contract/run.py rebaseline`` re-records the fixture;
run it on the commit whose behaviour is the contract (the parent of a
change to the coherence data plane, or to how a fact is traced) and commit
the file it rewrites.  Each cell is a ``small`` 4-node run with
trace, profile, telemetry, critpath and sanitizer all on; the fixture
keeps the sha256 of the full ``RunReport.to_dict()`` — with the
``profile``/``critpath``/``telemetry`` sections the ledger's
``report_digest`` leaves out — and of the JSONL trace stream, which no
other gate looks at under hlrc/sc.

The fault cells (SOR, ``P``, lrc, seed 7, one per plan in ``FAULTS`` and
transport) are the only tier-1 gate on the bytes of the membership,
corruption, duplication, park and throttle trace events: a clean run emits
none.  ``run.py digest`` runs the same plans, and this module's hashing,
over its wider cell set.
"""

import hashlib
import itertools
import json
import os

from repro.api.runtime import DsmRuntime, RunConfig
from repro.dsm.backend import BACKEND_NAMES
from repro.experiments.runner import make_configured_app, parse_label
from repro.network import FaultPlan, TransportConfig
from repro.network.faults import BitCorruption, LinkPartition, NodeCrash, NodeStall
from repro.trace.export import jsonl_lines

APPS = ("SOR", "RADIX", "WATER-NSQ")
LABELS = ("O", "4TP")
#: Fault plans in absolute sim time: SOR's clean ``P`` run is 51 ms, so
#: every onset lands mid-run.  What each is there to reach:
FAULTS = {
    # fence, then rejoin when the partition heals inside the grace period
    "partition120": FaultPlan(
        partitions=(LinkPartition(8_000.0, 128_000.0, nodes=frozenset({1})),)
    ),
    # fences that expire: declare_dead + recover, several times over
    "partition900": FaultPlan(
        partitions=(LinkPartition(8_000.0, 908_000.0, nodes=frozenset({1})),)
    ),
    # the coordinator cut off from everyone: stand_down
    "partition0": FaultPlan(
        partitions=(LinkPartition(8_000.0, 128_000.0, nodes=frozenset({0})),)
    ),
    # msg_corrupt + msg_checksum_fail
    "corrupt": FaultPlan(corruptions=(BitCorruption(2_000.0, 1_000_000.0, prob=0.05),)),
    # msg_duplicate + duplicate_suppressed, drops, reordering
    "lossy": FaultPlan(drop_prob=0.03, duplicate_prob=0.05, reorder_prob=0.2, jitter_us=500.0),
    # a silent-but-alive node: suspicion that clears
    "stall60": FaultPlan(stalls=(NodeStall(2, 6_000.0, 66_000.0),)),
    # crash + retries_exhausted/park_probe (adaptive) on the recovery path
    "crashloss": FaultPlan(drop_prob=0.05, crashes=(NodeCrash(2, 10_000.0),)),
    # enough refused prefetch requests to open the throttle (static)
    "loss30": FaultPlan(drop_prob=0.3),
}
TRANSPORTS = {"static": TransportConfig(), "adaptive": TransportConfig(adaptive=True)}
CELLS = tuple(itertools.product(APPS, LABELS, BACKEND_NAMES)) + tuple(
    ("SOR", "P", "lrc", f"{fault}-{transport}")
    for fault in FAULTS
    for transport in TRANSPORTS
)
FIXTURE = os.path.join(os.path.dirname(__file__), "plane-digests.json")


def traced_run(app_name: str, label: str, protocol: str, preset: str = "small", **overrides):
    """One all-planes-on run (4 nodes unless overridden): ``(runtime, report)``."""
    threads_per_node, prefetch = parse_label(label)
    config = RunConfig(
        **{
            "num_nodes": 4,
            "threads_per_node": threads_per_node,
            "prefetch": prefetch,
            "protocol": protocol,
            "trace": True,
            "profile": True,
            "telemetry": True,
            "critpath": True,
            "sanitizer": True,
            **overrides,
        }
    )
    runtime = DsmRuntime(config)
    report = runtime.execute(make_configured_app(app_name, preset, label))
    return runtime, report


def fault_overrides(fault: str) -> dict:
    """``RunConfig`` fields of a ``<plan>-<transport>`` fault cell."""
    plan, transport = fault.rsplit("-", 1)
    return {"seed": 7, "fault_plan": FAULTS[plan], "transport": TRANSPORTS[transport]}


def run_digests(runtime, report) -> tuple[str, str, int]:
    """sha256 of the whole ``RunReport.to_dict()``, sha256 of the JSONL trace, event count."""
    report_text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    trace = hashlib.sha256()
    count = 0
    for line in jsonl_lines(runtime.tracer.events):
        trace.update(line.encode() + b"\n")
        count += 1
    return hashlib.sha256(report_text.encode()).hexdigest(), trace.hexdigest(), count


def cell_digests(app_name: str, label: str, protocol: str, fault: str = "") -> dict[str, str]:
    overrides = fault_overrides(fault) if fault else {}
    report_sha, trace_sha, _ = run_digests(*traced_run(app_name, label, protocol, **overrides))
    return {"report": report_sha, "trace": trace_sha}


def cell_key(*cell: str) -> str:
    return ":".join(cell)

