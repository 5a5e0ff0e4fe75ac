"""Command-line entry: ``python -m repro.experiments [ids...]``.

Examples::

    python -m repro.experiments fig1
    python -m repro.experiments tab1 fig3
    python -m repro.experiments all --preset small --nodes 4
    python -m repro.experiments all --jobs 2 --out EXPERIMENTS.md
    python -m repro.experiments crash
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import ALL_EXPERIMENTS, CONFIG_LABELS, GRID_LABELS, ExperimentRunner
from repro.experiments.runner import add_run_arguments
from repro.experiments.writeup import write_blocks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}) or 'all'",
    )
    add_run_arguments(parser, nodes=8, preset="default", seed=42, no_verify=False, jobs=1)
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record per-run event traces; PATH is a template — each "
        "(app, config) run writes PATH with '.APP-LABEL' inserted before "
        "the suffix (Chrome/Perfetto JSON, or flat logs if .jsonl). The "
        "(app, config) grid then runs serially: the timeline audit is in-process",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        metavar="PATH",
        help="profile every run (latency histograms + hot-entity tables); "
        "with PATH, each run's full RunReport JSON is written using the "
        "same '.APP-LABEL' template as --trace",
    )
    parser.add_argument(
        "--critpath",
        action="store_true",
        help="attach exact critical-path analysis and what-if projections "
        "to every run (shorthand for the 'critpath' experiment when no "
        "ids are given)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="rewrite each experiment's generated block of the markdown file "
        "PATH (table + shape checks), leaving the prose around the blocks as it is",
    )
    args = parser.parse_args(argv)

    wanted = list(ALL_EXPERIMENTS) if "all" in args.experiments else list(args.experiments)
    if args.critpath and not wanted:
        wanted.append("critpath")
    if not wanted:
        parser.error("no experiments requested (give ids, 'all', or --critpath)")
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}")

    runner = ExperimentRunner(
        num_nodes=args.nodes,
        preset=args.preset,
        seed=args.seed,
        verify=not args.no_verify,
        verbose=True,
        trace_template=args.trace,
        profile_template=args.profile,
        jobs=args.jobs,
        critpath=args.critpath,
    )
    runner.prefetch_grid(
        [label for label in CONFIG_LABELS if any(label in GRID_LABELS[e] for e in wanted)]
    )
    results = {}
    for experiment_id in wanted:
        started = time.time()
        results[experiment_id] = ALL_EXPERIMENTS[experiment_id](runner)
        elapsed = time.time() - started
        print()
        print(results[experiment_id][0])
        print(f"\n[{experiment_id} regenerated in {elapsed:.1f}s]\n")
    if args.out:
        write_blocks(args.out, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
