"""Machine-speed probe: how fast is this machine right now?

Host time on a shared two-core sandbox slows by 20-70 % in bursts of seconds
and in spells of minutes (a busy neighbour, not this process: CPU time slows
with it and steal time stays at zero), which no statistic over a 20 s run
removes.  The ledger therefore times a fixed pure-Python kernel right after
every cell and reports the cell's host time divided by the slowdown the
kernel saw on either side of it: a time measured while the kernel ran 1.25x
slower than ``NOMINAL_MS`` is reported divided by 1.25.  The kernel has the
simulator's instruction mix (heap traffic, generator resumes, dict stores) and
shares no code with it, so no change to the simulator moves it.

Run as a module it is the set-up probe: it times ``import repro`` in this
fresh interpreter, then the kernel, and prints both.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["NOMINAL_MS", "kernel", "samples", "slowdown"]

_ITERATIONS = 15_000
#: Fixes the unit of every reported host time: seconds on a machine that runs
#: the kernel in this many milliseconds (the ledger's first box when quiet,
#: Python 3.11).  Any constant would do; changing it rescales every result.
NOMINAL_MS = 8.8


def _counter():
    value = 0
    while True:
        value = (yield value) + 1


def kernel() -> int:
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    resume = _counter()
    next(resume)
    total = 0
    seen: dict = {}
    for i in range(_ITERATIONS):
        push(heap, (i * 7919 % 1000, i))
        if i & 1:
            total += pop(heap)[1]
        total += resume.send(i)
        seen[i & 255] = total
    return total


def samples(count: int) -> list[float]:
    """Host milliseconds of ``count`` back-to-back kernel runs, after one
    untimed run that refills the caches the preceding cell emptied."""
    kernel()
    out = []
    for _ in range(count):
        started = time.perf_counter()
        kernel()
        out.append(1000.0 * (time.perf_counter() - started))
    return out


def slowdown(kernel_ms: list[float]) -> float:
    """Machine speed while the samples were taken: 1.0 = nominal, 1.25 =
    everything takes 25 % longer.  The median: one stall inside a sample must
    not stand for the whole window."""
    return statistics.median(kernel_ms) / NOMINAL_MS


if __name__ == "__main__":
    _started = time.perf_counter()
    import repro  # noqa: F401

    _import_s = time.perf_counter() - _started
    import json

    print(json.dumps({"import_s": _import_s, "kernel_ms": samples(6)}))
