"""Record the digests ``test_fault_plane.py`` holds the three backends to.

    PYTHONPATH=<checkout>/src python tests/dsm/fixtures/record.py

Run it against the commit whose behaviour is the contract (the parent of
a change to the coherence data plane) and commit the file it rewrites.
Each cell is a ``small`` 4-node run with trace, profile, telemetry,
critpath and sanitizer all on; the fixture keeps the sha256 of the full
``RunReport.to_dict()`` — with the ``profile``/``critpath``/``telemetry``
sections the ledger's ``report_digest`` leaves out — and of the JSONL
trace stream, which no other gate looks at under hlrc/sc.
"""

import hashlib
import itertools
import json
import os

from repro.api.runtime import DsmRuntime, RunConfig
from repro.dsm.backend import BACKEND_NAMES
from repro.experiments.runner import make_configured_app, parse_label
from repro.trace.export import jsonl_lines

APPS = ("SOR", "RADIX", "WATER-NSQ")
LABELS = ("O", "4TP")
CELLS = tuple(itertools.product(APPS, LABELS, BACKEND_NAMES))
FIXTURE = os.path.join(os.path.dirname(__file__), "plane-digests.json")


def traced_run(app_name: str, label: str, protocol: str, **overrides):
    """One all-planes-on small run: ``(runtime, report)``."""
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
    report = runtime.execute(make_configured_app(app_name, "small", label))
    return runtime, report


def cell_digests(app_name: str, label: str, protocol: str) -> dict[str, str]:
    runtime, report = traced_run(app_name, label, protocol)
    report_text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    trace = hashlib.sha256()
    for line in jsonl_lines(runtime.tracer.events):
        trace.update(line.encode() + b"\n")
    return {
        "report": hashlib.sha256(report_text.encode()).hexdigest(),
        "trace": trace.hexdigest(),
    }


def cell_key(app_name: str, label: str, protocol: str) -> str:
    return f"{app_name}:{label}:{protocol}"


if __name__ == "__main__":
    digests = {cell_key(*cell): cell_digests(*cell) for cell in CELLS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", FIXTURE, f"({len(digests)} cells)")
