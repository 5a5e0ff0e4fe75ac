"""Events and fold time of the sanitizer on one traced RADIX ``default``
O run on 8 nodes, on ROOT's simulator.

    python3 fold_time.py ROOT
"""
import os
import sys
import time

sys.path[:0] = [os.path.join(sys.argv[1], "src")]
from repro import DsmRuntime, RunConfig  # noqa: E402
from repro.apps import make_app  # noqa: E402
from repro.ft import check_events  # noqa: E402

runtime = DsmRuntime(RunConfig(num_nodes=8, trace=True))
runtime.execute(make_app("RADIX", "default"))
started = time.perf_counter()
check_events(runtime.tracer.events, 8, "lrc")
print(f"{len(runtime.tracer)} events folded in {1000 * (time.perf_counter() - started):.1f} ms")
