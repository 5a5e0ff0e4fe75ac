"""A chaos search with a planted bug from ``tests/plants.py`` applied,
and the shrink of its first failures.

    python3 plant_search.py [PLANT] [SEED] [BUDGET]

Defaults: ``split_brain``, seed 2026, budget 50, lrc, 4 nodes, the three
default apps.  Runs in one process (``jobs=1``): a monkeypatch does not
reach ``repro.parallel``'s workers.  Prints each failing sample, then its
shrunk plan's entry count, failures and error head.
"""
import os
import sys
from pathlib import Path

import pytest

REPO = str(Path(__file__).resolve().parents[3])
sys.path[:0] = [os.path.join(REPO, "src"), REPO]
from repro.chaos import ChaosConfig, fault_entry_count, search, shrink  # noqa: E402
from tests.plants import PLANTS  # noqa: E402

name, seed, budget = (sys.argv[1:] + ["split_brain", "2026", "50"][len(sys.argv) - 1 :])[:3]
patch = pytest.MonkeyPatch()
PLANTS[name].apply(patch)
results = search(ChaosConfig(seed=int(seed), budget=int(budget), protocol=PLANTS[name].protocol))
failing = [result for result in results if not result.ok]
print(f"{name}: seed {seed}, {len(results)} samples, {len(failing)} failing")
for result in failing:
    head = result.error.splitlines()[0] if result.error else ""
    print(
        f"  sample {result.sample.index:>3} {result.sample.app_name:<8}"
        f" entries={fault_entry_count(result.sample.plan)} {'+'.join(result.failures)}: {head}"
    )
for result in failing[:3]:
    minimal = shrink(result)
    print(
        f"  shrunk sample {result.sample.index}: {fault_entry_count(result.sample.plan)} -> "
        f"{fault_entry_count(minimal.sample.plan)} entries, {'+'.join(minimal.failures)}, "
        f"plan {sorted(key for key, value in minimal.sample.plan.items() if value)}"
    )
