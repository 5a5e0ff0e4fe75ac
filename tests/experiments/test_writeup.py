"""Structural tests for the EXPERIMENTS.md generator."""

import itertools
import time
from types import SimpleNamespace

from repro.experiments import writeup
from repro.experiments.writeup import ARTIFACTS, PAPER_CLAIMS


def test_every_artifact_has_claims():
    assert set(ARTIFACTS) == {"fig1", "fig2", "tab1", "fig3", "fig4", "tab2", "fig5"}
    for artifact_id in ARTIFACTS:
        claims = PAPER_CLAIMS[artifact_id]
        assert claims, f"{artifact_id} has no paper-shape checks"
        for description, check in claims:
            assert isinstance(description, str) and len(description) > 10
            assert callable(check)


def test_claim_checks_are_defensive():
    """A check crashing on malformed data must not raise (the generator
    treats exceptions as DEVIATES)."""
    for claims in PAPER_CLAIMS.values():
        for _description, check in claims:
            try:
                check({})
            except Exception:
                pass  # allowed: generate() catches these


def test_document_depends_on_the_runs_alone(tmp_path, monkeypatch):
    """Two writeups of the same runs are the same bytes, however long each took."""
    clock = itertools.accumulate(itertools.count(1.0))  # 1, 3, 6, 10, ...: every gap longer
    monkeypatch.setattr(time, "time", lambda: next(clock))
    monkeypatch.setattr(writeup, "ARTIFACTS", {"fig1": lambda runner: ("table", {})})
    runner = SimpleNamespace(num_nodes=4, preset="small", seed=42)
    texts = []
    for name in ("a.md", "b.md"):
        writeup.generate(runner, str(tmp_path / name))
        texts.append((tmp_path / name).read_text(encoding="utf-8"))
    assert texts[0] == texts[1]
