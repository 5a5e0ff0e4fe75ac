#!/usr/bin/env python3
"""Does the one remaining byte gate catch what the deleted gates caught?

    python3 benchmarks/results/one_gate/mutations.py PARENT

For each mutation below: extract PARENT (``git archive``), plant the mutation
in its ``src/``, and run there, against PARENT's committed baselines, every
gate this change deleted, exactly as CI ran it.  Then run PARENT's digest and
this tree's digest on the mutant and count the lines each moves against its
own committed ``contract.txt``, and run the tier-1 test that replaced the
static-vs-adaptive comparison.  Prints one table row per mutation.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[3]

#: name -> (file under src/repro, text, replacement, what it breaks)
MUTATIONS = {
    "planes-off-vc": (
        "dsm/protocol.py",
        "            elif advance_vc:\n                vc.observe(proc, interval_idx)\n",
        "",
        "the sanitizer-off branch of apply_notices_charged (lines 325-326) is gone",
    ),
    "context-switch": (
        "machine/timing.py",
        "    context_switch: float = 110.0",
        "    context_switch: float = 330.0",
        "a thread switch costs 330 us, not 110",
    ),
    "critpath-projection": (
        "critpath/analyze.py",
        'wire.category in ("diff_rtt", "page_fetch")',
        'wire.category in ("page_fetch",)',
        "perfect_prefetch no longer hides diff round trips (analysis only)",
    ),
    "adaptive-rto": (
        "network/transport.py",
        "MIN_RTO_US = 5_000.0",
        "MIN_RTO_US = 30_000.0",
        "the adaptive RTO floor is 3x the static timeout",
    ),
}

BENCH = ["-m", "repro.bench", "--quick", "--jobs", "2", "--apps"]
COMPARE = ["-m", "repro.profile.compare"]
SOR4 = ["-m", "repro.apps", "SOR", "--preset", "small", "--nodes", "4"]
LEDGER_CHECK = """
import json, sys
got = {k: v["report_digest"] for k, v in json.load(open(sys.argv[1]))["workloads"].items()}
want = json.load(open("benchmarks/baselines/ledger-smoke-digests.json"))
sys.exit(1 if any(want.get(k) != got.get(k) for k in want.keys() | got.keys()) else 0)
"""
ADAPTIVE_TOLS = ["--tolerance", "0.02", "--tol", "hist.*=-1", "--tol", "counter.*=-1",
                 "--tol", "total_*=-1", "--tol", "retrans*=-1", "--tol", "time.*=-1",
                 "--tol", "message_drops=-1"]

#: The deleted CI gates, as CI ran them on PARENT: name -> commands ({T}: a scratch dir).
GATES = {
    "bench-smoke": [
        [*BENCH, "sor,fft", "--out", "{T}/b.json"],
        [*COMPARE, "benchmarks/baselines/bench-smoke.json", "{T}/b.json", "--tolerance", "0.10",
         "--slack", "5", "--tol", "*/hist.*.count=0.25", "--tol", "*/hist.*.max=0.25"],
    ],
    "protocol-smoke-lrc": [
        [*BENCH, "sor,radix", "--out", "{T}/p.json"],
        [*COMPARE, "benchmarks/baselines/protocol-smoke-lrc.json", "{T}/p.json", "--tolerance", "0"],
    ],
    "ledger-smoke-digests": [
        ["benchmarks/ledger/run.py", "--smoke", "--seconds", "2", "--out", "{T}/l.json"],
        ["-c", LEDGER_CHECK, "{T}/l.json"],
    ],
    "critpath-smoke-sor": [
        [*SOR4, "--trace", "{T}/t.json", "--critpath", "{T}/e.json"],
        ["-c", "import filecmp, sys; sys.exit(not filecmp.cmp(*sys.argv[1:], shallow=False))",
         "benchmarks/baselines/critpath-smoke-sor.json", "{T}/e.json"],
    ],
    "adaptive-smoke": [
        ["-m", "repro.apps", app, "--preset", "small", "--nodes", "4", "--loss", "0.05", *extra,
         "--profile", f"{{T}}/{app}{len(extra)}.json"]
        for app in ("SOR", "FFT") for extra in ((), ("--adaptive",))
    ] + [[*COMPARE, f"{{T}}/{app}0.json", f"{{T}}/{app}1.json", *ADAPTIVE_TOLS]
         for app in ("SOR", "FFT")],
}


def run(commands, cwd, env, scratch) -> bool:
    """True when a command of the gate failed, i.e. the gate caught the mutation."""
    for command in commands:
        command = [part.replace("{T}", scratch) for part in command]
        done = subprocess.run([sys.executable, *command], cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode:
            return True
    return False


def moved(run_py: Path, mutant: str, committed: Path, scratch: str) -> str:
    out = os.path.join(scratch, "digest.txt")
    done = subprocess.run([sys.executable, str(run_py), "digest", mutant, out],
                          capture_output=True, text=True)
    if done.returncode:
        return "raised " + done.stderr.strip().splitlines()[-1][:60]
    diff = subprocess.run([sys.executable, str(REPO / "benchmarks/contract/run.py"), "diff",
                           str(committed), out], capture_output=True, text=True)
    return diff.stdout.strip().splitlines()[-1]  # "N vs M facts, K moved"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "archive", argv[0]], cwd=REPO, check=True,
                             capture_output=True).stdout
    print("| mutation | what it breaks | " + " | ".join(GATES) + " | parent digest | "
          "new digest | tier-1 adaptive test |")
    print("|---" * (len(GATES) + 5) + "|")
    for name, (path, text, replacement, what) in MUTATIONS.items():
        with tempfile.TemporaryDirectory() as scratch:
            mutant = os.path.join(scratch, "mutant")
            os.mkdir(mutant)
            subprocess.run(["tar", "-x", "-C", mutant], input=archive, check=True)
            source = Path(mutant, "src", "repro", path)
            original = source.read_text(encoding="utf-8")
            assert original.count(text) == 1, (name, path)
            source.write_text(original.replace(text, replacement), encoding="utf-8")
            env = {**os.environ, "PYTHONPATH": os.path.join(mutant, "src")}
            caught = ["caught" if run(commands, mutant, env, scratch) else "missed"
                      for commands in GATES.values()]
            parent = moved(Path(mutant, "benchmarks/contract/run.py"), mutant,
                           Path(mutant, "benchmarks/baselines/contract.txt"), scratch)
            new = moved(REPO / "benchmarks/contract/run.py", mutant,
                        REPO / "benchmarks/baselines/contract.txt", scratch)
            test = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/apps/test_cli.py", "-k", "within_2pct"],
                cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            cells = [f"`{name}`", what, *caught, parent, new,
                     "fails" if test.returncode else "passes"]
            print("| " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
