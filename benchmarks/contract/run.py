"""One command for the byte-identity contract (see README.md beside this file).

    python3 benchmarks/contract/run.py digest ROOT OUT [SEED]
    python3 benchmarks/contract/run.py diff A B
    python3 benchmarks/contract/run.py pairs PARENT CHANGE WORKLOAD [N] [SEED]
    python3 benchmarks/contract/run.py numbers [--check FILE]
    python3 benchmarks/contract/run.py rebaseline

``digest`` runs ROOT's simulator, mostly with trace, profile, telemetry,
critpath and sanitizer on, and writes one line per cell: sha256 of
``RunReport.to_dict()``, sha256 of the JSONL trace, event count.  Run it on two
checkouts and ``diff`` the two files; ``diff`` also takes two ledger result
files.  ``numbers`` reads ``src/`` under the current directory, so it measures
whichever checkout it is run from.  ``rebaseline`` rewrites this checkout's two
committed baselines: ``contract.txt`` and the tier-1 fixture.
"""

from __future__ import annotations

import ast
import collections
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import tokenize
import traceback
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CONTRACT = REPO / "benchmarks" / "baselines" / "contract.txt"
SEED = 42
PLANE_LABELS = ("O", "P", "4T", "4TP")
#: The trailer: how often the fault-plan cells emitted each loss- or
#: membership-driven event, so a plan that stopped reaching one shows.
LOSS_EVENTS = (
    "network/msg_drop network/msg_corrupt network/msg_duplicate network/msg_checksum_fail "
    "ft/crash ft/stand_down ft/fence ft/rejoin ft/checkpoint_stood_down ft/checkpoint "
    "ft/declare_dead ft/recover ft/suspicion_opened ft/suspicion_reported ft/suspicion_cleared "
    "transport/transport_timeout transport/retries_exhausted transport/cwnd_halved "
    "transport/retransmit transport/park_probe transport/duplicate_suppressed "
    "prefetch/prefetch_throttled prefetch/prefetch_shed prefetch/prefetch_drop "
    "sched/stall:memory sched/stall:lock sched/stall:barrier "
    "cpu/memory_idle cpu/sync_idle cpu/checkpoint cpu/recovery cpu/downtime"
).split()
END_TO_END = ("host_s", "peak_rss_mb", "setup_s", "sim_wall_ms")
#: A smoke cell handles at most ~7 000 events; past this one it is a livelock.
SMOKE_MAX_EVENTS = 1_000_000
HOOK_SITE = re.compile(r"trace_on|sanitizer_on|telemetry_on|tr\.enabled|san\.enabled")
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
#: Python 3.12 splits an f-string into parts (PEP 701); earlier versions have no such tokens.
FSTRING_START = getattr(tokenize, "FSTRING_START", -1)
FSTRING_END = getattr(tokenize, "FSTRING_END", -1)


def digest(root: str, out_file: str, seed: int = SEED) -> None:
    # ROOT's simulator; this checkout's fault plans and ledger cells, configs and seeds.
    sys.path[:0] = [os.path.join(root, "src"), str(REPO), str(REPO / "benchmarks" / "ledger")]
    from hostledger.spec import WORKLOADS, smoke
    from hostledger.worker import build_app, build_config, cell_seeds
    from repro import DsmRuntime
    from repro.apps import APP_ORDER
    from repro.dsm.backend import BACKEND_NAMES
    from repro.network import FaultPlan
    from repro.network.faults import NodeCrash
    from tests.dsm.fixtures.record import FAULTS, TRANSPORTS
    from tests.dsm.fixtures.record import fault_overrides, run_digests, traced_run

    lines = []

    def line(name, runtime, report):
        lines.append(f"{name}  " + "  ".join(map(str, run_digests(runtime, report))))
        return runtime, report

    def cell(name, app_name, label, protocol, **overrides):
        return line(name, *traced_run(app_name, label, protocol, **overrides))

    # 111 small 8-node cells: every app and technique on every backend, loss
    # on both transports and one crash recovery per backend.
    eight = {"num_nodes": 8, "seed": seed}
    for protocol in BACKEND_NAMES:
        for app_name in APP_ORDER:
            for label in PLANE_LABELS:
                name = f"{app_name}:{label}:{protocol}"
                _, report = cell(name, app_name, label, protocol, **eight)
                if (app_name, label) == ("SOR", "O"):
                    clean_wall_us = report.wall_time_us
        for app_name in ("SOR", "RADIX"):
            for kind, transport in TRANSPORTS.items():
                lossy = {**eight, "fault_plan": FaultPlan(drop_prob=0.05), "transport": transport}
                cell(f"{app_name}:O:{protocol}:lossy-{kind}", app_name, "O", protocol, **lossy)
        plan = FaultPlan(crashes=(NodeCrash(node=3, at_us=clean_wall_us * 0.45),))
        _, report = cell(f"SOR:O:{protocol}:crash", "SOR", "O", protocol, **eight, fault_plan=plan)
        if report.extra["ft"]["recoveries"] != 1:
            sys.exit(f"SOR:O:{protocol}:crash did not recover once: {report.extra['ft']}")
    # 32 fault-plan cells (4 nodes, seed 7): fences, rejoins, corruption,
    # duplication, parks and throttles, which the set above never reaches.
    emitted: collections.Counter = collections.Counter()
    for app_name in ("SOR", "RADIX"):
        for fault in (f"{plan}-{kind}" for plan in FAULTS for kind in TRANSPORTS):
            name = f"{app_name}:P:lrc:{fault}"
            runtime, _ = cell(name, app_name, "P", "lrc", **fault_overrides(fault))
            emitted.update(f"{event.cat}/{event.name}" for event in runtime.tracer.events)
    # The ledger's `observed` cells, whose `report_digest` leaves out the
    # profile, critpath and telemetry sections.
    (observed,) = [workload for workload in WORKLOADS if workload.name == "observed"]
    for spec in observed.cells:
        size = {"preset": spec.preset, "num_nodes": spec.nodes, "seed": seed}
        cell(spec.id, spec.app, spec.label, spec.protocol, **size)
    # The ledger's smoke cells (`benchmarks/ledger/run.py --smoke`) on the
    # config and seed the ledger gives each, so all but `observed` run
    # planes-off: the path every benchmark and user run takes.  A lossy
    # cell's seed is its rank within the workload, hence the workload name.
    # Unverified, as in the ledger's timed region (its smoke run verifies
    # them), and a cell that raises or livelocks says so in its line: on a
    # broken tree every other cell still shows whether it moved.
    ran = set()
    for workload in map(smoke, WORKLOADS):
        for spec, cell_seed in cell_seeds(workload, seed).items():
            if (spec, cell_seed) in ran:
                continue
            ran.add((spec, cell_seed))
            name = f"{workload.name}/{spec.id}"
            config = replace(build_config(spec, cell_seed), max_events=SMOKE_MAX_EVENTS)
            runtime = DsmRuntime(config)
            try:
                report = runtime.execute(build_app(spec), verify=False)
            except Exception as exc:  # the cell boundary, as in the ledger's worker
                traceback.print_exc()
                lines.append(f"{name}  raised {type(exc).__name__}")
            else:
                line(name, runtime, report)
    cells = len(lines)
    lines.append("")
    lines.extend(f"{name:32s} {emitted[name]:6d}" for name in LOSS_EVENTS)
    Path(out_file).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{cells} cells -> {out_file}")


def facts(path: str) -> dict[str, str]:
    """What must not move at all in a digest file or a ledger result file."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.lstrip().startswith("{"):
        rows = (line.partition(" ") for line in text.splitlines())
        return {name: rest for name, _, rest in rows if name}
    found = {}
    for name, workload in json.loads(text)["workloads"].items():
        found[f"{name}.report_digest"] = workload["report_digest"]
        found[f"{name}.failed"] = workload["failed"]
        found.update({f"{name}.counts.{key}": value for key, value in workload["counts"].items()})
        for entry in workload["cells"]:
            for key in ("events", "sim_wall_ms", "digest"):
                found[f"{name}.{entry['id']}.{key}"] = entry[key]
    return {key: str(value) for key, value in found.items()}


def diff(path_a: str, path_b: str) -> int:
    a, b = facts(path_a), facts(path_b)
    moved = [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
    for key in moved:
        old, new = a.get(key, "(absent)").split(), b.get(key, "(absent)").split()
        if len(old) == len(new) == 3:  # a digest line: say which columns moved
            columns = zip(("report", "trace", "events"), old, new)
            print(f"MOVED {key}: " + ", ".join(f"{c} {x} -> {y}" for c, x, y in columns if x != y))
        else:
            print(f"MOVED {key}: {' '.join(old)} -> {' '.join(new)}")
    print(f"{len(a)} vs {len(b)} facts, {len(moved)} moved")
    return 1 if moved else 0


def verdict(parent: list[float], change: list[float]) -> str:
    """The guide's rule for a lower-is-better metric over alternating pairs."""
    p = statistics.quantiles(parent, n=4, method="inclusive")
    c = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(b < a for a, b in zip(parent, change))
    losses = sum(b > a for a, b in zip(parent, change))
    gain = wins >= 0.9 * len(parent) and p[1] - c[1] > p[2] - p[0]
    return (
        f"parent q1/med/q3 {p[0]:.4f}/{p[1]:.4f}/{p[2]:.4f} | "
        f"change {c[0]:.4f}/{c[1]:.4f}/{c[2]:.4f} | median {100 * (c[1] - p[1]) / p[1]:+.2f}%, "
        f"parent q3-q1 {100 * (p[2] - p[0]) / p[1]:.2f}% of its median, "
        f"change lower in {wins} pairs, higher in {losses}: "
        + ("GAIN" if gain else "no gain shown")
        + " (a gain is >= 9/10 pairs won and a median gap wider than the parent's q3-q1)"
    )


def pairs(parent_root, change_root, workload: str, count: int = 10, seed: int = SEED) -> int:
    """Each side runs its own ledger from its own tree, odd pairs parent first."""

    def run(root):
        with tempfile.TemporaryDirectory() as scratch:
            out = os.path.join(scratch, "out.json")
            command = [sys.executable, "benchmarks/ledger/run.py", "--workload", workload]
            command += ["--seed", str(seed), "--out", out]
            subprocess.run(command, cwd=root, check=True, stdout=subprocess.DEVNULL)
            return json.loads(Path(out).read_text(encoding="utf-8"))["workloads"][workload]

    roots = {"parent": parent_root, "change": change_root}
    runs: dict[str, list] = {"parent": [], "change": []}
    for pair in range(count):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            runs[side].append(run(roots[side]))
    everything = runs["parent"] + runs["change"]
    first = everything[0]
    identical = all(
        entry["report_digest"] == first["report_digest"] and entry["counts"] == first["counts"]
        for entry in everything
    )
    failed = sum(entry["failed"] for entry in everything)
    print(
        f"{workload}: {count} alternating pairs, seed {seed}; report_digest and exact counts "
        f"{'equal on every run' if identical else 'DIFFER'}, failed {failed}, contended runs "
        + ", ".join(f"{sum(bool(e['contended']) for e in runs[side])} {side}" for side in runs)
    )
    for name in END_TO_END:
        series = {side: [e["end_to_end"][name]["value"] for e in runs[side]] for side in runs}
        print(f"  {name}: {verdict(series['parent'], series['change'])}")
        rounded = [(round(a, 4), round(b, 4)) for a, b in zip(series["parent"], series["change"])]
        print(f"  {name} per pair (parent, change): {rounded}")
    return 0 if identical and not failed else 1


def code_tokens(source: str) -> int:
    """Tokens that are code: no comments, layout or docstrings, so re-wrapping moves nothing.

    An f-string is one token, from its start to its matching end, under every Python.
    """
    count = depth = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if depth:
            depth += (token.type == FSTRING_START) - (token.type == FSTRING_END)
            continue
        text = token.string.lstrip("rRbBuUfF")
        string = token.type in (tokenize.STRING, FSTRING_START)
        docstring = string and text[:3] in ('"""', "'''")
        count += token.type not in NOT_CODE and not docstring
        depth = int(token.type == FSTRING_START)
    return count


def config_fields(tree: ast.AST) -> int:
    """Independently settable values: fields of every ``*Config`` class and ``CostModel``."""
    count = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name.endswith("Config") or node.name == "CostModel":
            for item in node.body:
                count += isinstance(item, ast.AnnAssign)
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    count += len(item.args.args) - 1
    return count


def numbers(check: str | None = None) -> int:
    """ROADMAP's tracked numbers for ``src/`` under the current directory."""
    got = dict.fromkeys(("src_py_lines", "code_tokens", "hook_sites", "config_fields"), 0)
    for path in sorted(Path("src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        got["src_py_lines"] += text.count("\n")
        got["code_tokens"] += code_tokens(text)
        got["hook_sites"] += sum(bool(HOOK_SITE.search(line)) for line in text.splitlines())
        got["config_fields"] += config_fields(ast.parse(text))
    ceilings = json.loads(Path(check).read_text(encoding="utf-8")) if check else {}
    for name, value in got.items():
        print(f"{name}: {value}" + (f" (committed {ceilings[name]})" if check else ""))
    risen = [name for name in ceilings if got[name] > ceilings[name]]
    if risen:
        print(f"above {check}: {', '.join(risen)}")
    return 1 if risen else 0


def rebaseline() -> None:
    """Rewrite the two committed baselines from this checkout and say which changed."""
    before = {CONTRACT: CONTRACT.read_text(encoding="utf-8")}
    digest(str(REPO), str(CONTRACT))
    from tests.dsm.fixtures.record import CELLS, FIXTURE, cell_digests, cell_key

    fixture = Path(FIXTURE)
    before[fixture] = fixture.read_text(encoding="utf-8")
    digests = {cell_key(*cell): cell_digests(*cell) for cell in CELLS}
    fixture.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for path, text in before.items():
        same = path.read_text(encoding="utf-8") == text
        print(f"{'unchanged' if same else 'REWRITTEN'}  {path.relative_to(REPO)}")


def main(argv: list[str]) -> int | None:
    verb, args = (argv[0], argv[1:]) if argv else ("", [])
    if verb == "digest" and len(args) in (2, 3):
        return digest(args[0], args[1], *map(int, args[2:]))
    if verb == "diff" and len(args) == 2:
        return diff(*args)
    if verb == "pairs" and len(args) in (3, 4, 5):
        return pairs(*args[:3], *map(int, args[3:]))
    if verb == "numbers" and (not args or (len(args) == 2 and args[0] == "--check")):
        return numbers(*args[1:])
    if verb == "rebaseline" and not args:
        return rebaseline()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
