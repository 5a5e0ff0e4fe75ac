"""Command-line chaos search and reproducer replay.

Search (exit 0 when every sample passes all invariants, 1 when
any fails — the first three failing plans are shrunk and written to
``--out``; ``--adaptive`` also grades bounded in-flight and no-livelock)::

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

from repro.errors import ConfigError
from repro.experiments.runner import add_run_arguments

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

#: Failing samples a search shrinks at most (each shrink costs runs).
MAX_SHRINK = 3


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
    for result in failures[:MAX_SHRINK]:
        print(f"shrinking {_describe(result)} ...", flush=True)
        minimal = shrink(result)
        sample = result.sample
        name = f"sample-{sample.index:04d}" if sample.index >= 0 else f"baseline-{sample.app_name}"
        path = write_reproducer(minimal, out_dir / f"{name}.json")
        print(
            f"  -> {fault_entry_count(minimal.sample.plan)} entr"
            f"{'y' if fault_entry_count(minimal.sample.plan) == 1 else 'ies'}, "
            f"failures={'+'.join(minimal.failures)}, wrote {path}"
        )
    skipped = len(failures) - min(len(failures), MAX_SHRINK)
    if skipped:
        print(f"  ({skipped} further failing sample(s) not shrunk)")
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
    add_run_arguments(
        parser, seed=0, jobs=1, preset="small", nodes=4, protocol="lrc", adaptive=False
    )
    parser.add_argument(
        "--budget", type=int, default=50, help="number of fault plans to sample"
    )
    parser.add_argument(
        "--apps",
        default=",".join(DEFAULT_APPS),
        help="comma-separated app names (default %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="chaos-reproducers",
        help="directory for minimal reproducers of failing samples",
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
