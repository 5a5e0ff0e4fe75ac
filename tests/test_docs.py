"""Every ``python`` code block of README.md and EXPERIMENTS.md runs, and
README.md and DESIGN.md stay within their line budgets.

A document's blocks run in order in one namespace (a later block may use
an earlier block's imports), in a scratch working directory, so a
renamed or removed API cannot leave a dead example behind.
"""

import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("document", ["README.md", "EXPERIMENTS.md"])
def test_python_blocks_run(document, tmp_path, monkeypatch):
    with open(os.path.join(REPO, document), encoding="utf-8") as handle:
        text = handle.read()
    blocks = list(BLOCK.finditer(text))
    assert blocks, f"{document} has no python block"
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": "__docs__"}
    for block in blocks:
        # Pad with the lines above the block, so a traceback names the
        # document's own line numbers.
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, document, "exec"), namespace)


#: Line budgets: README is install, quickstart and one paragraph and one
#: command per plane; DESIGN.md is one entry per mechanism in ``src/``.
#: History belongs in CHANGES.md and ``benchmarks/results/``.
BUDGET = {"README.md": 400, "DESIGN.md": 500}


@pytest.mark.parametrize("document", sorted(BUDGET))
def test_documents_stay_within_their_line_budget(document):
    with open(os.path.join(REPO, document), encoding="utf-8") as handle:
        lines = handle.read().count("\n")
    assert lines <= BUDGET[document], f"{document}: {lines} lines, budget {BUDGET[document]}"
