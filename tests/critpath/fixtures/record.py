"""Record the full-report fixtures ``test_equivalence.py`` compares against.

    PYTHONPATH=<checkout>/src python tests/critpath/fixtures/record.py

Run it against the commit whose reports are the contract (the parent of
a change to the analyzer) and commit the two files it rewrites.
"""

import json
import os

from repro.api.runtime import DsmRuntime, RunConfig
from repro.experiments.runner import make_configured_app, parse_label

CELLS = (("SOR", "O"), ("RADIX", "4TP"))


def full_report_json(app_name: str, label: str) -> str:
    """``RunReport.to_dict()`` of an all-sections-on small run, as text."""
    threads_per_node, prefetch = parse_label(label)
    config = RunConfig(
        num_nodes=4,
        threads_per_node=threads_per_node,
        prefetch=prefetch,
        critpath=True,
        profile=True,
        telemetry=True,
    )
    report = DsmRuntime(config).execute(make_configured_app(app_name, "small", label))
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def fixture_path(app_name: str, label: str) -> str:
    return os.path.join(os.path.dirname(__file__), f"{app_name}-{label}.json")


if __name__ == "__main__":
    for cell in CELLS:
        with open(fixture_path(*cell), "w", encoding="utf-8") as handle:
            handle.write(full_report_json(*cell) + "\n")
        print("wrote", fixture_path(*cell))
