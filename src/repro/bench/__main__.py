"""Command-line entry: sweep the benchmark matrix, write BENCH JSON.

Examples::

    python -m repro.bench                          # 8 apps x O,P,4T,4TP
    python -m repro.bench --apps sor,fft --quick   # 4 nodes x O,P,2T,2TP
    python -m repro.bench --out BENCH_baseline.json --nodes 4
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import (
    DEFAULT_CONFIGS,
    QUICK_CONFIGS,
    bench_filename,
    normalize_app,
    run_bench,
)
from repro.apps.registry import APP_ORDER
from repro.dsm.backend import BACKEND_NAMES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark sweep emitting a machine-readable BENCH_<date>.json "
        "(tabulate what moved with python -m repro.explain).",
    )
    parser.add_argument(
        "--apps",
        default=",".join(APP_ORDER),
        help="comma-separated app names, case-insensitive (default: all 8)",
    )
    parser.add_argument(
        "--configs",
        default=None,
        help=f"comma-separated paper labels (default {','.join(DEFAULT_CONFIGS)}; "
        f"{','.join(QUICK_CONFIGS)} under --quick)",
    )
    parser.add_argument("--nodes", type=int, default=None, help="cluster size (default 8)")
    parser.add_argument(
        "--preset", default="small", choices=["small", "default", "paper"]
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--protocol",
        default="lrc",
        choices=sorted(BACKEND_NAMES),
        help="coherence backend for every cell (default lrc)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick preset: 4 nodes and 2-thread configs unless overridden",
    )
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument(
        "--top-n", type=int, default=5, help="hot-page entries per run (default 5)"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="output path (default BENCH_<date>.json)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N (app, config) cells in parallel worker processes "
        "(0 = one per CPU core); output is identical for any N",
    )
    args = parser.parse_args(argv)

    nodes = args.nodes if args.nodes is not None else (4 if args.quick else 8)
    if args.configs is not None:
        configs = [label.strip() for label in args.configs.split(",") if label.strip()]
    else:
        configs = list(QUICK_CONFIGS if args.quick else DEFAULT_CONFIGS)
    try:
        apps = [normalize_app(name) for name in args.apps.split(",") if name.strip()]
    except ValueError as exc:
        parser.error(str(exc))

    from repro.parallel import default_jobs

    jobs = default_jobs() if args.jobs == 0 else max(1, args.jobs)
    print(
        f"bench: {len(apps)} app(s) x {len(configs)} config(s) on {nodes} nodes "
        f"({args.preset} preset, seed {args.seed}, {args.protocol} protocol, "
        f"{jobs} job(s))"
    )
    document = run_bench(
        apps,
        configs,
        num_nodes=nodes,
        preset=args.preset,
        seed=args.seed,
        verify=not args.no_verify,
        top_n=args.top_n,
        jobs=jobs,
        protocol=args.protocol,
    )
    out_path = args.out or bench_filename()
    with open(out_path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(document['runs'])} runs -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
