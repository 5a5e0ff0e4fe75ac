"""The mutation yardstick (``benchmarks/mutants/run.py``) still names today's code.

The committed kill matrix describes mutants of the source as it was
measured.  A refactor that moves a named mutant's target text, or edits a
sampled site, would quietly turn its mutant into a no-op or into another
bug; these checks fail instead, and the fix is to re-run the yardstick
(its README) or re-plant the named mutant.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from tests.plants import PLANTS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "benchmarks/mutants/run.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)
MATRIX = ROOT / "benchmarks/results/mutants/kill-matrix.jsonl"


@pytest.mark.parametrize("name", sorted(mutants.NAMED))
def test_each_named_target_appears_once(name):
    rel, old, new = mutants.NAMED[name]
    assert (mutants.PKG / rel).read_text().count(old) == 1
    assert old != new


def test_the_seed_draws_the_committed_sample():
    committed = [json.loads(line)["mutant"] for line in MATRIX.read_text().splitlines()]
    sampled = [name for name in committed if ":" in name]
    assert sorted(sampled) == sorted(mutants.draw(mutants.SEED))
    assert len(committed) == len(set(committed))
    assert set(committed) - set(sampled) == set(PLANTS) | set(mutants.NAMED)
