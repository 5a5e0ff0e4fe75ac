"""Command-line chaos search and reproducer replay.

Search (exit 0 when every sample passes all invariants, 1 when
any fails — failing plans are shrunk and written to ``--out``)::

    python -m repro.chaos --seed 7 --budget 50 --jobs 2

Replay a reproducer written by a previous search (exit 1 while it
still reproduces, 0 once fixed, 2 when the file is malformed)::

    python -m repro.chaos --replay chaos-reproducers/sample-0013.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.dsm.backend import BACKEND_NAMES
from repro.errors import ConfigError

from repro.chaos.search import (
    DEFAULT_APPS,
    ChaosConfig,
    SampleResult,
    evaluate_sample,
    fault_entry_count,
    load_reproducer,
    search,
    shrink,
    write_reproducer,
)


def _describe(result: SampleResult) -> str:
    sample = result.sample
    verdict = "ok" if result.ok else "FAIL " + "+".join(result.failures)
    detail = f" [{result.error}]" if result.error else ""
    return (
        f"sample {sample.index:>4} {sample.app_name:<8} "
        f"entries={fault_entry_count(sample.plan)} {verdict}{detail}"
    )


def _run_search(args: argparse.Namespace) -> int:
    config = ChaosConfig(
        seed=args.seed,
        budget=args.budget,
        apps=tuple(name.strip() for name in args.apps.split(",") if name.strip()),
        num_nodes=args.nodes,
        preset=args.preset,
        jobs=args.jobs,
        adaptive=args.adaptive,
        protocol=args.protocol,
    )
    started = time.perf_counter()
    done = 0

    def progress(_index: int, result: SampleResult) -> None:
        nonlocal done
        done += 1
        print(f"[{done:>3}/{config.budget}] {_describe(result)}", flush=True)

    results = search(config, on_progress=progress)
    failures = [result for result in results if not result.ok]
    elapsed = time.perf_counter() - started
    print(
        f"chaos: {len(results)} samples over {sorted(set(config.apps))}, "
        f"{len(failures)} failing, {elapsed:.1f}s"
    )
    if not failures:
        return 0
    out_dir = Path(args.out)
    for result in failures[: args.max_shrink]:
        print(f"shrinking {_describe(result)} ...", flush=True)
        minimal = shrink(result)
        path = write_reproducer(
            minimal, out_dir / f"sample-{result.sample.index:04d}.json"
        )
        print(
            f"  -> {fault_entry_count(minimal.sample.plan)} entr"
            f"{'y' if fault_entry_count(minimal.sample.plan) == 1 else 'ies'}, "
            f"failures={'+'.join(minimal.failures)}, wrote {path}"
        )
    skipped = len(failures) - min(len(failures), args.max_shrink)
    if skipped:
        print(f"  ({skipped} further failing sample(s) not shrunk; raise --max-shrink)")
    return 1


def _run_replay(args: argparse.Namespace) -> int:
    try:
        sample = load_reproducer(args.replay)
    except ConfigError as exc:
        print(f"malformed reproducer {args.replay}: {exc}", file=sys.stderr)
        return 2
    result = evaluate_sample(sample)
    print(_describe(result))
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=0, help="search seed (default 0)")
    parser.add_argument(
        "--budget", type=int, default=50, help="number of fault plans to sample"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (results identical for any N)"
    )
    parser.add_argument(
        "--apps",
        default=",".join(DEFAULT_APPS),
        help="comma-separated app names (default %(default)s)",
    )
    parser.add_argument("--preset", default="small", help="app size preset")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--protocol",
        default="lrc",
        choices=sorted(BACKEND_NAMES),
        help="coherence backend every sample runs on (default lrc)",
    )
    parser.add_argument(
        "--out",
        default="chaos-reproducers",
        help="directory for minimal reproducers of failing samples",
    )
    parser.add_argument(
        "--max-shrink",
        type=int,
        default=3,
        help="shrink at most this many failing samples (each costs runs)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="run every sample on the adaptive transport and grade the "
        "bounded-in-flight and no-livelock invariants",
    )
    parser.add_argument(
        "--replay", metavar="FILE", help="replay one reproducer instead of searching"
    )
    args = parser.parse_args(argv)
    if args.replay:
        return _run_replay(args)
    return _run_search(args)


if __name__ == "__main__":
    sys.exit(main())
