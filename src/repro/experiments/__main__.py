"""Command-line entry: ``python -m repro.experiments [ids...]``.

Examples::

    python -m repro.experiments fig1
    python -m repro.experiments tab1 fig3
    python -m repro.experiments all --preset small --nodes 4
    python -m repro.experiments all --jobs 2 --out EXPERIMENTS.md
    python -m repro.experiments crash
    python -m repro.experiments crash --crash-node 5 --crash-at 0.6 --crash-loss 0.05
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import ALL_EXPERIMENTS, CONFIG_LABELS, GRID_LABELS, ExperimentRunner
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
    parser.add_argument(
        "--crash-node",
        type=int,
        default=3,
        metavar="N",
        help="which node crashes (default 3; node 0 cannot crash)",
    )
    parser.add_argument(
        "--crash-at",
        type=float,
        default=0.45,
        metavar="FRAC",
        help="crash time as a fraction of the fault-free wall time (default 0.45)",
    )
    parser.add_argument(
        "--crash-loss",
        type=float,
        default=0.0,
        metavar="PROB",
        help="datagram loss probability during the crashed run (default 0)",
    )
    parser.add_argument("--nodes", type=int, default=8, help="cluster size (default 8)")
    parser.add_argument(
        "--preset",
        default="default",
        choices=["small", "default", "paper"],
        help="problem-size preset",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--no-verify", action="store_true", help="skip result verification (faster)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan every experiment's runs across up to N worker processes "
        "(0 = one per CPU core); results are identical for any N. "
        "Under --trace the (app, config) grid stays serial (the timeline "
        "audit is in-process)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record per-run event traces; PATH is a template — each "
        "(app, config) run writes PATH with '.APP-LABEL' inserted before "
        "the suffix (Chrome/Perfetto JSON, or flat logs if .jsonl)",
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

    from repro.parallel import default_jobs

    jobs = default_jobs() if args.jobs == 0 else max(1, args.jobs)
    runner = ExperimentRunner(
        num_nodes=args.nodes,
        preset=args.preset,
        seed=args.seed,
        verify=not args.no_verify,
        verbose=True,
        trace_template=args.trace,
        profile_template=args.profile,
        crash_node=args.crash_node,
        crash_frac=args.crash_at,
        crash_loss=args.crash_loss,
        jobs=jobs,
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
