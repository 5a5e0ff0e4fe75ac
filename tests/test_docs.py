"""Every ``python`` code block of README.md and EXPERIMENTS.md runs.

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
