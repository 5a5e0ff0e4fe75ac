#!/usr/bin/env python3
"""Which gate catches a bug in the one wire?

    python3 benchmarks/results/one_wire/mutations.py

For each mutation below: copy this checkout's ``src/``, ``tests/``,
``benchmarks/`` and ``pyproject.toml`` to a scratch directory, plant the
mutation in its ``src/``, then run tier-1 there and the contract digest on it
(``digest`` against the committed ``contract.txt``).  Prints one table row per
mutation: how many tier-1 tests fail, the first few of them, and how many
digest facts moved.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[3]

#: name -> (file under src/repro, text, replacement, what it breaks)
MUTATIONS = {
    "link-exempts-tracked": (
        "network/link.py",
        "        if self._queued_bytes + wire > config.queue_capacity_bytes:",
        "        if not message.kind.is_tracked and"
        " self._queued_bytes + wire > config.queue_capacity_bytes:",
        "a full queue never drops a tracked kind (the removed `reliable` exemption)",
    ),
    "faults-exempt-tracked": (
        "network/faults.py",
        "        if in_scope and plan.drop_prob > 0 and rng.random() < plan.drop_prob:",
        "        if in_scope and not message.kind.is_tracked and plan.drop_prob > 0"
        " and rng.random() < plan.drop_prob:",
        "injected loss spares tracked kinds (the removed `reliable` exemption)",
    ),
    "prefetch-reply-tracked": (
        "network/message.py",
        "    kind for kind in MessageKind if kind.is_prefetch or kind.is_control\n",
        "    kind for kind in MessageKind if kind.is_control"
        " or kind is MessageKind.PREFETCH_REQUEST\n",
        "the transport acks and retransmits prefetch replies",
    ),
}


def tier1(tree: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-o", "addopts=", "-p", "no:cacheprovider"],
        cwd=tree, env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
        capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED")]
    return len(failed), failed


def moved(tree: str, scratch: str) -> str:
    out = os.path.join(scratch, "digest.txt")
    run_py = str(REPO / "benchmarks/contract/run.py")
    done = subprocess.run([sys.executable, run_py, "digest", tree, out],
                          capture_output=True, text=True)
    if done.returncode:
        return "raised " + done.stderr.strip().splitlines()[-1][:60]
    diff = subprocess.run(
        [sys.executable, run_py, "diff", str(REPO / "benchmarks/baselines/contract.txt"), out],
        capture_output=True, text=True,
    )
    return diff.stdout.strip().splitlines()[-1]  # "N vs M facts, K moved"


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    print("| mutation | what it breaks | tier-1 failures | first failures | digest |")
    print("|---|---|---|---|---|")
    for name, (path, text, replacement, what) in MUTATIONS.items():
        with tempfile.TemporaryDirectory() as scratch:
            tree = os.path.join(scratch, "mutant")
            for part in ("src", "tests", "benchmarks"):
                shutil.copytree(REPO / part, os.path.join(tree, part), ignore=ignore)
            shutil.copy(REPO / "pyproject.toml", tree)
            for doc in ("README.md", "EXPERIMENTS.md"):  # tests/test_docs.py reads them
                shutil.copy(REPO / doc, tree)
            source = Path(tree, "src", "repro", path)
            original = source.read_text(encoding="utf-8")
            assert original.count(text) == 1, (name, path)
            source.write_text(original.replace(text, replacement), encoding="utf-8")
            count, failed = tier1(tree)
            first = ", ".join(f"`{test.split('::', 1)[1]}`" for test in failed[:3])
            cells = [f"`{name}`", what, str(count), first or "-", moved(tree, scratch)]
            print("| " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
