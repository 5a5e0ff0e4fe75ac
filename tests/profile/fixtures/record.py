"""Record the profile sections ``test_from_trace.py`` compares against.

    PYTHONPATH=<checkout>/src python -m tests.profile.fixtures.record

Run it from the repository root against the commit whose profiles are the
contract (the parent of a change to how a fact is traced or folded) and
commit the file it rewrites.  Each cell is a ``small`` 4-node run with only
the profile on, chosen so that every kind of fact the profile reads occurs
in at least one: locks (WATER-NSQ; local handoffs in OCEAN ``4TP``),
prefetch lead time (SOR ``P``), home fetches and updates (hlrc), ownership
transactions (sc), retransmissions, RTT samples, pacing and shed prefetches
(loss on both transports), and the two rollback paths, a crash
(``crashloss``) and an expired fence (``partition900``).
"""

import json
import os

from tests.dsm.fixtures.record import fault_overrides, traced_run

CELLS = (
    ("WATER-NSQ", "4TP", "lrc", ""),
    ("WATER-NSQ", "O", "sc", ""),
    ("SOR", "P", "lrc", ""),
    ("RADIX", "4TP", "hlrc", ""),
    ("OCEAN", "4TP", "sc", ""),
    ("SOR", "P", "lrc", "lossy-static"),
    ("SOR", "P", "lrc", "lossy-adaptive"),
    ("SOR", "P", "lrc", "loss30-adaptive"),
    ("SOR", "P", "lrc", "crashloss-static"),
    ("SOR", "P", "lrc", "crashloss-adaptive"),
    ("SOR", "P", "lrc", "partition900-static"),
    ("SOR", "P", "lrc", "partition900-adaptive"),
)
FIXTURE = os.path.join(os.path.dirname(__file__), "profiles.json")
#: Every plane but the profile off (``traced_run`` turns them all on).
PROFILE_ONLY = {"trace": False, "telemetry": False, "critpath": False, "sanitizer": False}


def profile_section(app_name: str, label: str, protocol: str, fault: str = "", **planes) -> dict:
    """The cell's ``profile`` section, as JSON would read it back."""
    overrides = fault_overrides(fault) if fault else {}
    _, report = traced_run(app_name, label, protocol, **{**PROFILE_ONLY, **overrides, **planes})
    return json.loads(json.dumps(report.profile))


def cell_key(*cell: str) -> str:
    return ":".join(part for part in cell if part)


if __name__ == "__main__":
    sections = {cell_key(*cell): profile_section(*cell) for cell in CELLS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(sections, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(sections)} profile sections -> {FIXTURE}")
