"""The mutation yardstick: which check catches which bug (README.md beside it).

Each mutant runs, on a scratch copy of ``src/`` and ``tests/``, through five
detectors: verify, sanitizer, drf, litmus and chaos, each in its own process.
"""

import argparse, ast, hashlib, itertools, json, os, re, resource, shutil, signal, subprocess, sys, tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PKG = ROOT / "src" / "repro"
TARGETS = sorted((PKG / "dsm").glob("*.py")) + [PKG / f for f in ("network/transport.py", "ft/manager.py", "ft/checkpoint.py")]
SEED = 48
#: A site is drawn when its key's hash with the seed is 0 modulo this.
RATE = 6
#: DESIGN.md section 8's bugs 1-4 and 6: file under ``src/repro``, text that
#: appears once there, its replacement (bug 5 has no edit: diffs are whole words).
NAMED = {
    "bug1_duplicate_flush": ("dsm/protocol.py", "if in_flight is not None and not in_flight.triggered:", "if False:"),
    "bug2_store_races_flush": ("threads/scheduler.py", "ready = all(", "ready = guard > 0 or all("),
    "bug3_no_write_protect": ("dsm/protocol.py", "state.write_protected = True", "pass"),
    "bug4_no_word_watermark": ("dsm/pagestate.py", "if not newer.all():", "if False:"),
    "bug6_filtered_notice_logged": ("dsm/protocol.py", "full=advance_vc, skip_proc", "full=True, skip_proc"),
}
FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
DETECTORS = ("verify", "sanitizer", "drf", "litmus", "chaos")
#: Host seconds before a matrix cell, or a whole detector, counts as a hang.
CELL_S, DETECTOR_S = 15, {"verify": 300, "sanitizer": 300}

def mutations(node, siblings, i):
    """``(operator, text, apply)`` for each mutation of one node; ``apply`` edits the tree."""
    if isinstance(node, ast.Compare) and type(node.ops[0]) in FLIP:
        yield "flip", ast.unparse(node), lambda: node.ops.__setitem__(0, FLIP[type(node.ops[0])]())
    if isinstance(node, (ast.If, ast.While)):
        yield "negate", ast.unparse(node.test), lambda: setattr(node, "test", ast.UnaryOp(ast.Not(), node.test))
    if isinstance(node, ast.AugAssign):
        yield "drop", ast.unparse(node), lambda: siblings.__setitem__(i, ast.Pass())
    if isinstance(node, ast.BoolOp):
        yield "swap", ast.unparse(node), lambda: setattr(node, "op", ast.Or() if isinstance(node.op, ast.And) else ast.And())
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield "return", node.name, lambda: node.body.insert(int(ast.get_docstring(node) is not None), ast.Return())

def sites(path: Path):
    """``{key: apply}`` over one file; a key is content (file, scope, operator, text, occurrence)."""
    found, seen = {}, Counter()
    prefix = path.relative_to(PKG).as_posix()

    def visit(node, scope):
        for value in (v for _, v in ast.iter_fields(node)):
            items = value if isinstance(value, list) else [value]
            for i, child in enumerate(items):
                if not isinstance(child, ast.AST):
                    continue
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}".lstrip(".")
                for op, text, apply in mutations(child, items, i):
                    key = f"{prefix}:{inner}:{op}:{text}"
                    seen[key] += 1
                    found[f"{key}#{seen[key]}"] = apply
                visit(child, inner)
    tree = ast.parse(path.read_text())
    visit(tree, "")
    return tree, found

def draw(seed: int = SEED) -> list[str]:
    """The sampled mutants' keys, in file order."""
    keys = [key for path in TARGETS for key in sites(path)[1]]
    return [k for k in keys if int(hashlib.sha256(f"{seed}:{k}".encode()).hexdigest(), 16) % RATE == 0]

def materialize(name: str, work: Path) -> Path:
    """A scratch copy of ``src/`` and ``tests/`` with the mutant planted."""
    dest = Path(tempfile.mkdtemp(dir=work))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    rel = NAMED[name][0] if name in NAMED else name.split(":", 1)[0]
    path = dest / "src" / "repro" / rel
    if name in NAMED:
        path.write_text(path.read_text().replace(*NAMED[name][1:], 1))
    elif ":" in name:
        tree, found = sites(PKG / rel)
        found[name]()
        path.write_text(ast.unparse(ast.fix_missing_locations(tree)) + "\n")
    return dest

def matrix(sanitizer: bool) -> list[str]:
    """The verify matrix's first failure; with ``sanitizer``, the invariants its violations name."""
    from repro import DsmRuntime, RunConfig
    from repro.apps import APP_ORDER
    from repro.experiments.runner import make_configured_app, parse_label

    def hang(*_):
        raise TimeoutError(f"no end after {CELL_S} s")
    signal.signal(signal.SIGALRM, hang)
    found, hangs = [], 0
    for protocol, app, scheme in itertools.product(("lrc", "hlrc", "sc"), APP_ORDER, ("O", "P", "4T", "4TP")):
        tpn, prefetch = parse_label(scheme)
        config = RunConfig(num_nodes=4, threads_per_node=tpn, prefetch=prefetch,
                           protocol=protocol, sanitizer=sanitizer, max_events=2_000_000)
        signal.alarm(CELL_S)
        try:
            DsmRuntime(config).execute(make_configured_app(app, "small", scheme))
        except Exception as exc:
            hangs += isinstance(exc, TimeoutError)
            seen = re.match(r"sanitizer: (.+?) violated", str(exc))
            if not sanitizer:
                return [f"{protocol} {app} {scheme}: {type(exc).__name__}: {exc}"[:300]]
            if seen and seen[1] not in found:
                found.append(seen[1])
            if hangs == 2:  # a hung run folds nothing: stop paying for more
                return found
        finally:
            signal.alarm(0)
    return found

def detect(detector: str, mutant: str) -> None:
    """One detector on the mutant this process's path holds; prints its verdict."""
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    try:
        from tests.plants import PLANTS
        if mutant in PLANTS:
            PLANTS[mutant].apply(pytest.MonkeyPatch())
        if detector in ("verify", "sanitizer"):
            failed = matrix(detector == "sanitizer")
        elif detector == "chaos":
            import repro.api.runtime
            from repro.chaos.search import ChaosConfig, search
            repro.api.runtime.check_events = lambda *_: None
            failed = [f"sample {r.sample.index}: {r.failures} {r.error}"[:300]
                      for r in search(ChaosConfig(seed=2026, budget=20)) if r.failures]
        else:
            args = ["tests/dsm/test_drf.py", "-k", "not corpus"] if detector == "drf" else ["tests/dsm/test_litmus.py"]
            failed = [f"pytest exit {code}" for code in [pytest.main(["-x", "-q", "-p", "no:cacheprovider", *args])] if code]
    except Exception as exc:  # outside the matrix cells: a raise, never an invariant
        failed = [] if detector == "sanitizer" else [f"{type(exc).__name__}: {exc}"[:300]]
    print("VERDICT " + json.dumps(failed))

def run_one(name: str, work: Path) -> dict:
    dest = materialize(name, work)
    env = {**os.environ, "PYTHONPATH": f"{dest / 'src'}{os.pathsep}{dest}", "PYTHONDONTWRITEBYTECODE": "1"}
    row = {"mutant": name}
    try:
        for detector in DETECTORS:
            try:
                out = subprocess.run([sys.executable, __file__, "detect", detector, name], cwd=dest, env=env,
                                     capture_output=True, text=True, timeout=DETECTOR_S.get(detector, 60))
                verdict = [line for line in out.stdout.splitlines() if line.startswith("VERDICT ")]
                failed = json.loads(verdict[-1][8:]) if verdict else ["died: " + out.stderr[-200:]]
            except subprocess.TimeoutExpired:
                failed = ["hang: detector timed out"]
            # Only a named invariant is a sanitizer kill; a death or a hang is the others'.
            row[detector] = [f for f in failed if detector != "sanitizer" or not f.startswith(("died", "hang"))]
    finally:
        shutil.rmtree(dest)
    return row

def report(path: Path) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    print(f"{len(rows)} mutants; kills: {({d: sum(bool(r[d]) for r in rows) for d in DETECTORS})}")
    for r in rows:
        if not any(r[d] for d in DETECTORS if d != "sanitizer"):
            print(f"- {'sanitizer only' if r['sanitizer'] else 'survivor'}: `{r['mutant']}` {r['sanitizer']}")

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("all", "one", "report", "detect"))
    parser.add_argument("args", nargs="*", help="NAME for one, FILE for report")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks/results/mutants/kill-matrix.jsonl")
    args = parser.parse_args()
    if args.command == "detect":
        return detect(*args.args)
    if args.command == "report":
        return report(Path(args.args[0]))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from tests.plants import PLANTS
    names = sorted(PLANTS) + sorted(NAMED) + draw()
    work = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        if args.command == "one":
            return print(json.dumps(run_one(args.args[0], work)))
        done = {json.loads(row)["mutant"] for row in args.out.read_text().splitlines()} if args.out.exists() else set()
        with ThreadPoolExecutor(args.jobs) as pool, args.out.open("a") as out:
            for row in pool.map(lambda name: run_one(name, work), [n for n in names if n not in done]):
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(row["mutant"], {d: bool(row[d]) for d in DETECTORS}, flush=True)
    finally:
        shutil.rmtree(work)

if __name__ == "__main__":
    main()
