"""Count code tokens under a source tree, independent of formatting.

    python3 benchmarks/results/message_plane/code_tokens.py [ROOT/src]

``tokenize.tokenize`` over every ``*.py`` under the directory, not
counting ``COMMENT``, ``NL``, ``NEWLINE``, ``INDENT``, ``DEDENT``,
``ENCODING``, ``ENDMARKER``, nor ``STRING`` tokens that open with a
triple quote (docstrings).  A denser call form, a re-wrapped line or a
deleted comment does not move this number; deleted code does.  Prints
one line per top-level package and the total.
"""

from __future__ import annotations

import sys
import tokenize
from collections import Counter
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_tokens(path: Path) -> int:
    count = 0
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in SKIPPED:
                continue
            text = token.string.lstrip("rRbBuUfF")
            if token.type == tokenize.STRING and text[:3] in ('"""', "'''"):
                continue
            count += 1
    return count


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    per_package: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        # src/repro/<package>/...: group by the package under repro/.
        package = parts[1] if len(parts) > 2 else parts[-1]
        per_package[package] += code_tokens(path)
    for package, count in sorted(per_package.items()):
        print(f"{package:24s} {count:7d}")
    print(f"{'total':24s} {sum(per_package.values()):7d}")


if __name__ == "__main__":
    main()
