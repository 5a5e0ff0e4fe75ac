#!/usr/bin/env python3
"""Which ``src/`` lines each CI gate executes, and what else executes them.

    python3 benchmarks/results/one_gate/reach.py PARENT OUTDIR [GATE ...]

Runs each named gate (default: all) with a line tracer and writes
``OUTDIR/GATE.lines``, one ``path:line`` per executed line under ``src/``;
a gate whose file exists is not run again.  Then prints the reach table from
whatever files OUTDIR holds.  The tracer is stdlib ``sys.settrace``, started
by a generated ``sitecustomize`` in every Python process a gate starts
(``--jobs`` workers and test subprocesses included); each process appends a
line the first time it executes it, so a killed pool worker loses nothing.

Every gate runs this tree's ``src/``.  ``digest-parent`` is PARENT's
``benchmarks/contract/run.py`` (extracted with ``git archive``) pointed at
this tree, so the "before" digest and every other gate share line numbers.
The deleted gates are the commands CI ran to produce and check the four smoke
baselines and the static-vs-adaptive comparison; their compare steps read a
fresh document twice, since the baselines are gone.  The eleven deleted
``pytest`` steps ran files tier-1 runs, so ``tier1`` stands for them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[3]
SRC = REPO / "src"
LEDGER_WORKLOADS = ("paper_sweep", "scale_ladder", "paper_size", "protocol_mix", "lossy_net",
                    "observed")

HOOK = '''
import os, sys, threading
_src = os.environ["REACH_SRC"]
_seen = set()
_fd = os.open(f"{os.environ['REACH_OUT']}.{os.getpid()}", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
def _line(frame, event, arg):
    if event == "line":
        key = f"{frame.f_code.co_filename[len(_src):]}:{frame.f_lineno}"
        if key not in _seen:
            _seen.add(key)
            os.write(_fd, (key + "\\n").encode())
    return _line
def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_src) else None
sys.settrace(_call)
threading.settrace(_call)
'''


def apps(*args):
    return ["-m", "repro.apps", *args]


def chaos(*args):
    return ["-m", "repro.chaos", "--seed", "2026", "--budget", "50", "--jobs", "2",
            "--out", "{T}/chaos", *args]


SOR4 = ("SOR", "--preset", "small", "--nodes", "4")
LEDGER = [["-m", "hostledger.worker", "--workload", name, "--seed", "42", "--seconds", "2",
           "--trace", "0", "--smoke"] for name in LEDGER_WORKLOADS]
ADAPTIVE_TOLS = ["--tolerance", "0.02", "--tol", "hist.*=-1", "--tol", "counter.*=-1",
                 "--tol", "total_*=-1", "--tol", "retrans*=-1", "--tol", "time.*=-1",
                 "--tol", "message_drops=-1"]

#: Gates CI no longer runs.
DELETED = {
    "bench-smoke": [
        ["-m", "repro.bench", "--apps", "sor,fft", "--quick", "--jobs", "2", "--out", "{T}/b.json"],
        ["-m", "repro.profile.compare", "{T}/b.json", "{T}/b.json", "--tolerance", "0.10",
         "--slack", "5", "--tol", "*/hist.*.count=0.25", "--tol", "*/hist.*.max=0.25"],
    ],
    "protocol-smoke-lrc": [
        ["-m", "repro.bench", "--apps", "sor,radix", "--quick", "--jobs", "2", "--out", "{T}/p.json"],
        ["-m", "repro.profile.compare", "{T}/p.json", "{T}/p.json", "--tolerance", "0"],
    ],
    "ledger-smoke-digests": LEDGER,
    "critpath-smoke-sor": [apps(*SOR4, "--trace", "{T}/t.json", "--critpath", "{T}/e.json")],
    "adaptive-smoke": [
        apps(app, "--preset", "small", "--nodes", "4", "--loss", "0.05", *extra,
             "--profile", f"{{T}}/{app}{len(extra)}.json")
        for app in ("SOR", "FFT") for extra in ((), ("--adaptive",))
    ] + [["-m", "repro.profile.compare", f"{{T}}/{app}0.json", f"{{T}}/{app}1.json", *ADAPTIVE_TOLS]
         for app in ("SOR", "FFT")],
}
#: What the new digest is measured against, and what CI still runs.
KEPT = {
    "digest-parent": [["{T}/parent/benchmarks/contract/run.py", "digest", str(REPO), "{T}/c.txt"]],
    "digest": [["benchmarks/contract/run.py", "digest", str(REPO), "{T}/c.txt"]],
    "tier1": [["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]],
    "cli-smoke": [
        apps(*SOR4, "--crash", "0.5", "--crash-node", "2", "--loss", "0.05", "--sanitizer",
             "--trace", "{T}/crash.json"),
        ["-m", "repro.trace.validate", "{T}/crash.json"],
        apps(*SOR4, "--trace", "{T}/t.json", "--critpath", "{T}/e.json",
             "--telemetry", "{T}/tel.json", "--telemetry-strict"),
        ["-m", "repro.trace.validate", "{T}/t.json"],
        ["-m", "repro.critpath", "{T}/t.json"],
        ["-m", "repro.telemetry", "{T}/tel.json", "--strict", "--html", "{T}/d.html"],
        ["-m", "repro.telemetry", "{T}/t.json", "--strict"],
        *(apps(app, "--config", "4TP", "--preset", "small", "--nodes", "4", "--protocol", proto,
               "--sanitizer", "--profile", f"{{T}}/{app}-{proto}.json")
          for proto in ("lrc", "hlrc", "sc") for app in ("SOR", "RADIX")),
        ["-m", "repro.profile.trend", *sorted(str(p) for p in REPO.glob("BENCH_*.json"))],
    ],
    "chaos-search": [chaos(), chaos("--adaptive"), chaos("--protocol", "hlrc"),
                     chaos("--protocol", "sc")],
    "ledger-smoke": LEDGER + [["benchmarks/ledger/test_ledger.py"]],
}
GATES = {**DELETED, **KEPT}
#: Driver and output code: what a CLI, a sweep or a search does around the simulator.
HARNESS = ("__main__.py", "repro/bench/", "repro/experiments/", "repro/parallel.py",
           "repro/chaos/", "repro/profile/compare.py", "repro/profile/trend.py",
           "repro/critpath/format.py", "repro/telemetry/render.py", "repro/trace/validate.py")


def run_gate(name: str, parent: str, outdir: Path) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        if name == "digest-parent":
            archive = subprocess.run(["git", "archive", parent], cwd=REPO, check=True,
                                     capture_output=True).stdout
            os.mkdir(f"{scratch}/parent")
            subprocess.run(["tar", "-x", "-C", f"{scratch}/parent"], input=archive, check=True)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([scratch, str(SRC), str(REPO / "benchmarks" / "ledger")]),
            "REACH_SRC": str(SRC) + os.sep,
            "REACH_OUT": f"{scratch}/lines",
        }
        for command in GATES[name]:
            command = [part.replace("{T}", scratch) for part in command]
            subprocess.run([sys.executable, *command], cwd=REPO, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        lines = set()
        for path in Path(scratch).glob("lines.*"):
            lines.update(path.read_text(encoding="utf-8").split())
    (outdir / f"{name}.lines").write_text("".join(f"{key}\n" for key in sorted(lines)))


def is_harness(key: str) -> bool:
    return any(part in key for part in HARNESS)


def ranges(keys) -> str:
    """``a.py:3, a.py:4, a.py:7`` -> ``3-4, 7``."""
    numbers = sorted(int(key.rsplit(":", 1)[1]) for key in keys)
    spans, start = [], numbers[0]
    for previous, number in zip(numbers, numbers[1:] + [None]):
        if number != previous + 1:
            spans.append(f"{start}-{previous}" if previous > start else str(start))
            start = number
    return ", ".join(spans)


def report(outdir: Path) -> None:
    reach = {path.stem: set(path.read_text().split()) for path in sorted(outdir.glob("*.lines"))}
    print("lines of src/ each gate executes:")
    for name in GATES:
        if name in reach:
            print(f"  {name:22s} {len(reach[name]):6d}  {'deleted' if name in DELETED else 'kept'}")
    if not all(name in reach for name in ("digest-parent", "digest", "tier1", *DELETED)):
        return
    deleted = set().union(*(reach[name] for name in DELETED))

    def split(keys):
        harness = {key for key in keys if is_harness(key)}
        return f"{len(keys)} ({len(harness)} harness or CLI, {len(keys) - len(harness)} simulator)"

    before, after = deleted - reach["digest-parent"], deleted - reach["digest"]
    print(f"\nexecuted by a deleted gate: {len(deleted)} lines")
    print(f"  outside the parent's digest: {split(before)}")
    print(f"  outside the new digest:      {split(after)}")
    print(f"  outside the new digest and tier-1: {split(after - reach['tier1'])}")
    missed = {key for key in after - reach["tier1"] if not is_harness(key)}
    print(f"\nsimulator lines a deleted gate executed that neither the new digest nor tier-1 "
          f"does: {len(missed)}")
    print("\nthe parent's digest missed these and the new digest executes them:")
    for key_file, keys in group(before - after).items():
        print(f"  {key_file}: {ranges(keys)}")
    print("\nlines a deleted gate executed outside the new digest, and what else executes them:")
    kept = [name for name in KEPT if name not in ("digest-parent", "digest") and name in reach]
    for key_file, keys in group(after).items():
        by_cover: dict[str, list] = {}
        for key in keys:
            cover = " + ".join(name for name in kept if key in reach[name]) or "NOTHING"
            by_cover.setdefault(cover, []).append(key)
        for cover, part in sorted(by_cover.items()):
            print(f"  {key_file}: {ranges(part)}  <- {cover}")


def group(keys) -> dict[str, list]:
    files: dict[str, list] = {}
    for key in sorted(keys):
        files.setdefault(key.rsplit(":", 1)[0], []).append(key)
    return files


def main(argv: list[str]) -> int:
    if len(argv) < 2 or any(name not in GATES for name in argv[2:]):
        print(__doc__, file=sys.stderr)
        return 2
    parent, outdir = argv[0], Path(argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    for name in argv[2:] or GATES:
        if not (outdir / f"{name}.lines").exists():
            print(f"running {name}", file=sys.stderr, flush=True)
            run_gate(name, parent, outdir)
    report(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
