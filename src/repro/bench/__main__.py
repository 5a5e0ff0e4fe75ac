"""Command-line entry: sweep the benchmark matrix, write BENCH JSON.

Examples::

    python -m repro.bench                          # 8 apps x O,P,4T,4TP
    python -m repro.bench --apps sor,fft --nodes 4
    python -m repro.bench --out BENCH_baseline.json --nodes 4
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.apps.registry import APP_ORDER
from repro.bench import DEFAULT_CONFIGS, bench_filename, normalize_app, run_bench
from repro.experiments.runner import add_run_arguments


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
    add_run_arguments(
        parser, nodes=8, preset="small", seed=42, protocol="lrc", no_verify=False, jobs=1
    )
    parser.add_argument(
        "--out", metavar="PATH", help="output path (default BENCH_<date>.json)"
    )
    args = parser.parse_args(argv)

    try:
        apps = [normalize_app(name) for name in args.apps.split(",") if name.strip()]
    except ValueError as exc:
        parser.error(str(exc))

    print(
        f"bench: {len(apps)} app(s) x {len(DEFAULT_CONFIGS)} config(s) on {args.nodes} nodes "
        f"({args.preset} preset, seed {args.seed}, {args.protocol} protocol, "
        f"{args.jobs} job(s))"
    )
    document = run_bench(
        apps,
        DEFAULT_CONFIGS,
        num_nodes=args.nodes,
        preset=args.preset,
        seed=args.seed,
        verify=not args.no_verify,
        jobs=args.jobs,
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
