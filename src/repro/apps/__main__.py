"""Command-line entry: run one benchmark application.

Examples::

    python -m repro.apps SOR
    python -m repro.apps RADIX --config 4T --nodes 8
    python -m repro.apps FFT --config P --preset small --seed 7
    python -m repro.apps SOR --trace sor.trace.json   # open in Perfetto
    python -m repro.apps SOR --crash 0.5 --loss 0.05  # crash + recovery
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api.runtime import DsmRuntime
from repro.apps.registry import APP_ORDER
from repro.experiments.runner import (
    ExperimentRunner,
    add_run_arguments,
    export_trace,
    make_configured_app,
)
from repro.network.faults import FaultPlan, NodeCrash
from repro.network.transport import TransportConfig
from repro.telemetry import TelemetryConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run one application on the simulated software DSM.",
    )
    parser.add_argument("app", choices=APP_ORDER)
    parser.add_argument(
        "--config",
        default="O",
        help="paper configuration label: O, P, 2T, 4T, 8T, 2TP, 4TP, 8TP",
    )
    add_run_arguments(
        parser, nodes=8, preset="default", seed=42, protocol="lrc", no_verify=False, adaptive=False
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record an event trace; writes Chrome/Perfetto JSON "
        "(or a flat event log if PATH ends in .jsonl)",
    )
    parser.add_argument(
        "--critpath",
        nargs="?",
        const="-",
        metavar="PATH",
        help="rebuild the program-activity graph after the run and print "
        "the critical-path epoch table plus what-if projections; writes "
        "the critpath report section as JSON to PATH if given",
    )
    parser.add_argument(
        "--crash",
        type=float,
        metavar="FRAC",
        help="crash-stop one node at FRAC of the fault-free wall time "
        "(a baseline run measures it first) and recover from the last "
        "coordinated checkpoint",
    )
    parser.add_argument(
        "--crash-node",
        type=int,
        default=3,
        metavar="N",
        help="which node crashes (default 3; node 0 cannot crash)",
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        metavar="PROB",
        help="datagram drop probability (default 0)",
    )
    parser.add_argument(
        "--sanitizer",
        action="store_true",
        help="check every committed checkpoint cut over the run's trace",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        metavar="PATH",
        help="collect latency histograms and hot-entity tables; prints a "
        "summary, and writes the full RunReport JSON to PATH if given",
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const="-",
        metavar="PATH",
        help="record windowed time series across the stack and grade them "
        "with the watchdog monitors; prints findings, and writes the full "
        "RunReport JSON (telemetry section included) to PATH if given",
    )
    parser.add_argument(
        "--telemetry-interval",
        type=float,
        default=5000.0,
        metavar="US",
        help="telemetry window width in simulated microseconds (default 5000)",
    )
    parser.add_argument(
        "--telemetry-strict",
        action="store_true",
        help="exit nonzero when the watchdog monitors report findings",
    )
    args = parser.parse_args(argv)

    if args.telemetry_strict and args.telemetry is None:
        args.telemetry = "-"  # strict grading implies collection

    app = make_configured_app(args.app, args.preset, args.config)
    runner = ExperimentRunner(args.nodes, args.preset, args.seed)
    run = dict(protocol=args.protocol, transport=TransportConfig(adaptive=args.adaptive))
    plan = None
    if args.crash is not None:
        baseline = DsmRuntime(runner.config(args.config, **run)).execute(
            make_configured_app(args.app, args.preset, args.config), verify=False
        )
        crash_at = baseline.wall_time_us * args.crash
        plan = FaultPlan(
            drop_prob=args.loss,
            crashes=(NodeCrash(node=args.crash_node, at_us=crash_at),),
        )
        print(
            f"baseline wall time {baseline.wall_time_us / 1000:.2f} ms; "
            f"crashing node {args.crash_node} at {crash_at / 1000:.2f} ms"
        )
    elif args.loss > 0:
        plan = FaultPlan(drop_prob=args.loss)
    config = runner.config(
        args.config,
        fault_plan=plan,
        trace=bool(args.trace),
        sanitizer=args.sanitizer,
        profile=args.profile is not None,
        critpath=args.critpath is not None,
        telemetry=(
            TelemetryConfig(interval_us=args.telemetry_interval)
            if args.telemetry is not None
            else None
        ),
        **run,
    )

    started = time.time()
    runtime = DsmRuntime(config)
    report = runtime.execute(app, verify=not args.no_verify)
    elapsed = time.time() - started

    verified = "skipped" if args.no_verify else "passed"
    print(f"{args.app} [{args.config}] on {args.nodes} nodes ({args.preset} preset)")
    print(f"  verification: {verified}   (simulated in {elapsed:.1f}s real time)")
    print(f"  wall time:    {report.wall_time_us / 1000:.2f} ms simulated")
    print("  breakdown (% of wall x nodes):")
    for category, pct in report.normalized_breakdown().items():
        if pct > 0.05:
            print(f"    {category:18s} {pct:6.1f}")
    events = report.events
    print(
        f"  remote misses {events.remote_misses} (avg {events.avg_miss_stall:.0f} us), "
        f"lock stalls {events.remote_lock_misses}, "
        f"barrier waits {events.barrier_waits}"
    )
    print(
        f"  traffic: {report.total_messages} messages, "
        f"{report.total_kbytes:.0f} KB, {report.message_drops} drops"
    )
    if "ft" in report.extra:
        ft = report.extra["ft"]
        print(
            f"  fault tolerance: {ft['crashes']} crash(es), "
            f"{ft['detections']} detected, {ft['recoveries']} recovered; "
            f"{ft['checkpoints']} checkpoints "
            f"({ft['checkpoint_bytes'] / 1024:.0f} KB), "
            f"downtime {ft['downtime_us'] / 1000:.1f} ms"
        )
    if report.prefetch_stats is not None:
        stats = report.prefetch_stats
        print(
            f"  prefetch: issued {stats.issued}, "
            f"{100 * stats.unnecessary_fraction:.0f}% unnecessary, "
            f"coverage {100 * stats.coverage_factor:.0f}% "
            f"(hits {stats.hits}, late {stats.late}, "
            f"invalidated {stats.invalidated})"
        )
    if args.profile is not None:
        profile = report.profile or {}
        print("  profile (cluster-wide latency, us):")
        for name, entry in profile.get("histograms", {}).items():
            print(
                f"    {name:22s} n={entry['count']:<7d} p50 {entry['p50']:8.0f}  "
                f"p90 {entry['p90']:8.0f}  p99 {entry['p99']:8.0f}  max {entry['max']:8.0f}"
            )
        for counter, value in profile.get("counters", {}).items():
            print(f"    counter {counter} = {value}")
        for table, key in (("hot_pages", "page"), ("hot_locks", "lock"), ("hot_barriers", "barrier")):
            rows = profile.get(table, [])
            if rows:
                print(f"  {table.replace('_', ' ')} (top {len(rows)}):")
                for row in rows:
                    detail = ", ".join(
                        f"{k}={v:.0f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in row.items()
                        if k != key and v is not None
                    )
                    print(f"    {key} {row[key]}: {detail}")
        if args.profile != "-":
            with open(args.profile, "w") as handle:
                handle.write(report.to_json(indent=2))
                handle.write("\n")
            print(f"  profile report -> {args.profile}")
    telemetry_ok = True
    if args.telemetry is not None:
        section = report.telemetry or {}
        findings = section.get("findings", [])
        print(
            f"  telemetry: {len(section.get('windows', []))} windows of "
            f"{section.get('interval_us', 0):g} us, {len(findings)} finding(s)"
        )
        for finding in findings:
            print(
                f"    [{finding['monitor']}] node {finding['node']}"
                + (f" peer {finding['peer']}" if "peer" in finding else "")
                + f" @ {finding['t_start_us'] / 1000:.1f}-"
                f"{finding['t_end_us'] / 1000:.1f} ms: {finding['detail']}"
            )
        if args.telemetry != "-":
            with open(args.telemetry, "w") as handle:
                handle.write(report.to_json(indent=2))
                handle.write("\n")
            print(f"  telemetry report -> {args.telemetry}")
        if args.telemetry_strict and findings:
            print(f"  telemetry: STRICT — {len(findings)} watchdog finding(s)")
            telemetry_ok = False
    critpath_ok = True
    if args.critpath is not None:
        from repro.critpath.format import format_critpath

        section = report.critpath or {}
        print()
        print(format_critpath(section, label=f"{args.app} {args.config}"))
        if args.critpath != "-":
            import json as _json

            with open(args.critpath, "w") as handle:
                _json.dump(section, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"  critpath report -> {args.critpath}")
        if not section.get("identity_exact", False):
            print("  critpath: IDENTITY VIOLATION (path length != wall clock)")
            critpath_ok = False
    if args.trace:
        # The accounting audit raises unless the event stream reproduces
        # the aggregate breakdown exactly.
        export_trace(runtime, report, args.trace)
        print(f"  trace: {len(runtime.tracer)} events -> {args.trace}")
        print("  trace: PhaseTimeline agrees with TimeBreakdown accounting")
    return 0 if (critpath_ok and telemetry_ok) else 1


if __name__ == "__main__":
    sys.exit(main())
