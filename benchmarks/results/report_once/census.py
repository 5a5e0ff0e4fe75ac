"""Census of the instrumentation hook sites: who watches which fact.

    python3 benchmarks/results/report_once/census.py [ROOT/src] > census_<side>.txt

ROADMAP item 3 proposed a typed probe bus on the premise that four observers
(tracer, profiler, sanitizer, telemetry) watch one event stream.  This counts
what they watch.  The profiler has since become a fold over the trace and
holds no guards, so its flags are no longer matched (a tree that still has
them counts its profiler guards under no plane).  Definitions, all syntactic
(`ast` + `tokenize`):

- a *guarded block* is an `if` statement whose test reads a plane's flag
  (`trace_on`, `sanitizer_on`, `telemetry_on`, or `.enabled` / a cached
  `*_on` local of a tracer or sanitizer) together with its body; a block
  nested in another counts with the outer one;
- a *fact* is a run of guarded blocks in one function, each starting at most
  two lines after the one before ends: the same protocol event reported to
  several planes, or to one plane in several steps;
- a fact's *planes* are the planes whose flags guard its blocks.

Prints the totals, the per-file table, the facts more than one plane sees,
and the size of all instrumentation (lines and `tokenize` code tokens inside
guarded blocks, counted like `benchmarks/contract/run.py numbers`) against `src/`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

FLAGS = {
    "trace_on": "trace",
    "sanitizer_on": "sanitizer",
    "telemetry_on": "telemetry",
    "san_on": "sanitizer",
}
#: ``<receiver>.enabled`` -> plane, by the receiver's name.
RECEIVERS = {
    "tr": "trace",
    "tracer": "trace",
    "trace": "trace",
    "san": "sanitizer",
    "sanitizer": "sanitizer",
}
SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def planes_read(test: ast.expr) -> set[str]:
    planes = set()
    for node in ast.walk(test):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in FLAGS:
            planes.add(FLAGS[name])
        elif name == "enabled" and isinstance(node, ast.Attribute):
            owner = node.value
            owner = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if owner in RECEIVERS:
                planes.add(RECEIVERS[owner])
    return planes


def guarded_blocks(function: ast.AST) -> list[tuple[int, int, set[str]]]:
    """Outermost guarded ``if`` statements of one function: (first, last, planes)."""
    blocks = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # has its own census
            if isinstance(child, ast.If) and (planes := planes_read(child.test)):
                last = child.body[-1].end_lineno
                for inner in ast.walk(child):
                    if isinstance(inner, ast.If):
                        planes |= planes_read(inner.test)
                blocks.append((child.lineno, last, planes))
                visit(ast.Module(body=child.orelse, type_ignores=[]))
                continue
            visit(child)

    visit(function)
    return sorted(blocks)


def code_tokens_by_line(source: str) -> Counter:
    counts: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        text = token.string.lstrip("rRbBuUfF")
        if token.type == tokenize.STRING and text[:3] in ('"""', "'''"):
            continue
        counts[token.start[0]] += 1
    return counts


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    blocks_total = lines_total = tokens_total = src_tokens = 0
    facts: list[tuple[str, str, int, int, frozenset]] = []
    per_file: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        tokens = code_tokens_by_line(source)
        src_tokens += sum(tokens.values())
        tree = ast.parse(source)
        scopes = [tree] + [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for scope in scopes:
            run: list[tuple[int, int, set[str]]] = []
            for block in guarded_blocks(scope) + [None]:
                if block is not None:
                    blocks_total += 1
                    lines_total += block[1] - block[0] + 1
                    tokens_total += sum(tokens[line] for line in range(block[0], block[1] + 1))
                if run and (block is None or block[0] - run[-1][1] > 2):
                    planes = frozenset().union(*(b[2] for b in run))
                    name = getattr(scope, "name", "<module>")
                    rel = str(path.relative_to(root))
                    facts.append((rel, name, run[0][0], run[-1][1], planes))
                    per_file[rel] += 1
                    run = []
                if block is not None:
                    run.append(block)
    shared = [fact for fact in facts if len(fact[4]) > 1]
    only = Counter(next(iter(fact[4])) for fact in facts if len(fact[4]) == 1)
    print(f"guarded blocks           {blocks_total}")
    print(f"facts                    {len(facts)}")
    print(f"  seen by > 1 plane      {len(shared)} ({len(shared) / len(facts):.0%})")
    for plane in ("trace", "sanitizer", "telemetry"):
        print(f"  {plane + '-only':22s} {only[plane]}")
    print(f"subscribers per fact     {sum(len(fact[4]) for fact in facts) / len(facts):.2f}")
    print(
        f"instrumentation          {lines_total} lines, {tokens_total} code tokens "
        f"({tokens_total / src_tokens:.1%} of {src_tokens})"
    )
    print("\nfacts per file")
    for rel, count in per_file.most_common():
        print(f"  {rel:32s} {count}")
    print("\nfacts seen by more than one plane")
    for rel, name, first, last, planes in shared:
        print(f"  {rel}:{first}-{last}  {name}  {'+'.join(sorted(planes))}")


if __name__ == "__main__":
    main()
