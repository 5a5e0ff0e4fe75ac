"""Host seconds of one RADIX ``default`` O run on 8 nodes, verified,
with the sanitizer off/on and tracing off/on, on ROOT's simulator.

    python3 cost.py ROOT REPEATS

Prints the median of REPEATS runs per configuration.
"""
import os
import statistics
import sys
import time

sys.path[:0] = [os.path.join(sys.argv[1], "src")]
from repro import DsmRuntime, RunConfig  # noqa: E402
from repro.apps import make_app  # noqa: E402

repeats = int(sys.argv[2])
for sanitizer, trace in ((False, False), (True, False), (False, True), (True, True)):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        DsmRuntime(RunConfig(num_nodes=8, sanitizer=sanitizer, trace=trace)).execute(
            make_app("RADIX", "default")
        )
        times.append(time.perf_counter() - started)
    print(f"sanitizer={sanitizer!s:5} trace={trace!s:5} median {statistics.median(times):.3f} s"
          f"  (runs: {' '.join(f'{t:.3f}' for t in times)})")
