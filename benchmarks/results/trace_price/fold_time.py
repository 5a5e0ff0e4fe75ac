"""Trace size and the time of each fold over the ledger's ten ``observed``
cells (8 apps ``O`` + FFT ``P`` + RADIX ``4TP``, ``small``, 8 nodes, seed
42), on ROOT's simulator.

    python3 fold_time.py ROOT [REPS]

Each cell is run once untraced and once with only the tracer on (process
time of ``execute``); each fold then reads the ten recorded traces, warm,
and the best of REPS (5) passes is printed.
"""
import gc
import os
import sys
import time

sys.path[:0] = [os.path.join(sys.argv[1], "src")]
from repro import DsmRuntime, RunConfig  # noqa: E402
from repro.apps import APP_ORDER  # noqa: E402
from repro.critpath import analyze_events  # noqa: E402
from repro.experiments.runner import make_configured_app, parse_label  # noqa: E402
from repro.ft import check_events  # noqa: E402
from repro.profile.profiler import fold_events  # noqa: E402
from repro.telemetry.sampler import section_from_events  # noqa: E402

REPS = int(sys.argv[2]) if len(sys.argv) > 2 else 5
CELLS = [(app, "O") for app in APP_ORDER] + [("FFT", "P"), ("RADIX", "4TP")]


def config(label, **planes):
    threads_per_node, prefetch = parse_label(label)
    return RunConfig(
        num_nodes=8, threads_per_node=threads_per_node, prefetch=prefetch, seed=42, **planes
    )


runs = []
plain = traced = 0.0
for app, label in CELLS:
    for trace in (False, True):
        runtime = DsmRuntime(config(label, trace=trace))
        program = make_configured_app(app, "small", label)
        started = time.process_time()
        report = runtime.execute(program)
        took = time.process_time() - started
        if trace:
            traced += took
            runs.append((runtime, label, report))
        else:
            plain += took
events = sum(len(runtime.tracer) for runtime, _, _ in runs)
print(f"{events} events; execute: planes off {plain:.3f} s, traced {traced:.3f} s")

FOLDS = {
    "profile": lambda rt, label, rep: fold_events(rt.tracer.events, 8),
    "sanitizer": lambda rt, label, rep: check_events(rt.tracer.events, 8, "lrc"),
    "critpath": lambda rt, label, rep: analyze_events(rt.tracer.events).to_dict(),
    "telemetry": lambda rt, label, rep: section_from_events(
        rt.tracer.events, config(label, telemetry=True), rep.wall_time_us, rt.cluster.sim.now
    ),
}
for name, fold in FOLDS.items():
    best = float("inf")
    for _ in range(REPS):
        gc.collect()
        started = time.perf_counter()
        for run in runs:
            fold(*run)
        best = min(best, time.perf_counter() - started)
    print(f"{name:10s} {1000 * best:7.1f} ms")
