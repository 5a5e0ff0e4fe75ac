"""The EXPERIMENTS.md generator: its checks and its block writer."""

import itertools
import os
import re
import time

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.writeup import ARTIFACTS, PAPER_CLAIMS, _holds, write_blocks

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PAPER_ARTIFACTS = ("fig1", "fig2", "tab1", "fig3", "fig4", "tab2", "fig5")


def block(ident, body=""):
    return f"<!-- generated: {ident} -->\n{body}<!-- end: {ident} -->\n"


def tiny_document(bodies=None):
    """Hand-written prose around one block per experiment."""
    bodies = bodies or {}
    return "# Tiny — ünïcode\n\nintro `<!-- generated: fig1 -->` in a line\n" + "".join(
        f"\n## {ident}\n\nprose for {ident}\n\n{block(ident, bodies.get(ident, ''))}\ntail\n"
        for ident in ALL_EXPERIMENTS
    )


def test_every_artifact_has_claims():
    assert ARTIFACTS is ALL_EXPERIMENTS
    assert set(PAPER_CLAIMS) <= set(ALL_EXPERIMENTS)
    for artifact_id in PAPER_ARTIFACTS:
        assert PAPER_CLAIMS[artifact_id], f"{artifact_id} has no paper-shape checks"
    for claims in PAPER_CLAIMS.values():
        for description, check in claims:
            assert isinstance(description, str) and len(description) > 10
            assert callable(check)


def test_the_ledger_still_reads_ten_checks():
    """The host-time ledger's ``paper_claims_missed`` feeds the O/P
    artifacts through ``ARTIFACTS`` and counts their checks."""
    ledger = ("fig1", "fig2", "tab1", "fig3")
    assert all(callable(ARTIFACTS[artifact]) for artifact in ledger)
    assert sum(len(PAPER_CLAIMS[artifact]) for artifact in ledger) == 10


def test_claim_checks_are_defensive():
    """A check on data that lacks what it reads fails only in the ways
    the block writer reads as DEVIATES (a missing key, an empty
    sequence, a zero division)."""
    for claims in PAPER_CLAIMS.values():
        for _description, check in claims:
            _holds(check, {})


def test_experiments_md_has_one_block_per_experiment():
    with open(os.path.join(REPO, "EXPERIMENTS.md"), encoding="utf-8") as handle:
        text = handle.read()
    starts = re.findall(r"^<!-- generated: (\S+) -->$", text, re.MULTILINE)
    ends = re.findall(r"^<!-- end: (\S+) -->$", text, re.MULTILINE)
    assert sorted(starts) == sorted(ends) == sorted(ALL_EXPERIMENTS)


def test_text_outside_the_blocks_survives_byte_for_byte(tmp_path):
    path = tmp_path / "doc.md"
    path.write_text(tiny_document({"fig1": "stale\n", "crash": "kept\n"}), encoding="utf-8")
    # hlrc slower and sc faster than lrc: every protocol check deviates.
    protocol = {"RADIX": {"O": {"hlrc": {"vs_lrc": 1.1}, "sc": {"vs_lrc": 0.9}}}}
    outcomes = write_blocks(str(path), {"fig1": ("T1", {}), "protocol": ("TP", protocol)})
    expected = tiny_document(
        {
            ident: f"\n```text\n{text}\n```\n\n**Shape checks:**\n\n"
            + "".join(f"- DEVIATES: {what}\n" for what, _check in PAPER_CLAIMS[ident])
            + "\n"
            for ident, text in (("fig1", "T1"), ("protocol", "TP"))
        }
        | {"crash": "kept\n"}
    )
    assert path.read_text(encoding="utf-8") == expected
    for ident in ("fig1", "protocol"):
        assert [held for _what, held in outcomes[ident]] == [False] * len(PAPER_CLAIMS[ident])


@pytest.mark.parametrize(
    "mangle",
    [
        lambda doc: doc + block("fig9"),  # unknown id
        lambda doc: doc + block("fig1"),  # duplicated
        lambda doc: doc.replace(block("crash"), ""),  # missing
        lambda doc: doc.replace("<!-- end: fig2 -->\n", ""),  # unterminated
        lambda doc: doc.replace("<!-- end: tab1 -->", "<!-- end: tab2 -->"),  # crossed
        lambda doc: doc + "<!-- end: fig1 -->\n",  # stray end marker
    ],
)
def test_a_malformed_document_raises_and_is_left_alone(tmp_path, mangle):
    path = tmp_path / "doc.md"
    text = mangle(tiny_document())
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        write_blocks(str(path), {"fig1": ("T1", {})})
    assert path.read_text(encoding="utf-8") == text


def test_document_depends_on_the_runs_alone(tmp_path, monkeypatch):
    """Two CLI runs of the same experiments write the same bytes, however
    long each took."""
    clock = itertools.accumulate(itertools.count(1.0))  # 1, 3, 6, 10, ...: every gap longer
    monkeypatch.setattr(time, "time", lambda: next(clock))
    monkeypatch.setitem(ALL_EXPERIMENTS, "fig1", lambda runner: ("table", {}))
    texts = []
    for name in ("a.md", "b.md"):
        path = tmp_path / name
        path.write_text(tiny_document(), encoding="utf-8")
        argv = ["fig1", "--nodes", "2", "--preset", "small", "--out", str(path)]
        assert experiments_main(argv) == 0
        texts.append(path.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]
    assert "```text\ntable\n```" in texts[0]
