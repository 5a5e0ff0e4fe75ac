"""Fan simulation runs out across CPU cores.

The simulator is single-threaded by construction (one deterministic
event loop per run), so the way to use a multicore machine is to run
*different* (app, configuration) cells in separate processes.  This
module is the one place that knows how:

- a :class:`RunSpec` is the complete, picklable description of one run —
  app name + size preset + configuration label (the app object itself is
  rebuilt inside the worker; app instances hold numpy state and
  generators that must not cross process boundaries) plus the frozen
  :class:`~repro.api.runtime.RunConfig`;
- the worker builds the cluster from the spec, executes it, and streams
  the finished :class:`~repro.metrics.report.RunReport` back as JSON
  (reports are designed to round-trip; nothing else needs to be
  picklable);
- results are reassembled **by spec index**, so the output order is
  deterministic regardless of completion order, and a ``--jobs N`` sweep
  is byte-identical to the serial one for every N.

Workers are spawn-safe: the ``spawn`` start method is used explicitly
(fork would duplicate the parent's interpreter state, and is unavailable
on some platforms anyway), so each worker imports the library fresh and
shares nothing with the parent but the pickled spec.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.api.runtime import DsmRuntime, RunConfig
from repro.experiments.runner import make_configured_app
from repro.metrics.report import RunReport

__all__ = ["RunSpec", "default_jobs", "fan_out", "run_specs"]


@dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs to execute one run, picklable."""

    index: int
    app_name: str
    preset: str
    label: str
    config: RunConfig
    verify: bool = True


def default_jobs() -> int:
    """A sensible --jobs default: all cores, floor 1."""
    return max(1, os.cpu_count() or 1)


def execute_spec(spec: RunSpec) -> RunReport:
    """Run one spec to completion in the current process."""
    app = make_configured_app(spec.app_name, spec.preset, spec.label)
    return DsmRuntime(spec.config).execute(app, verify=spec.verify)


def _worker(spec: RunSpec) -> str:
    """Pool entry point: the finished RunReport as JSON."""
    return execute_spec(spec).to_json()


def _fan_out_entry(packed):
    """Pool entry point for :func:`fan_out`: returns (index, result)."""
    index, worker, item = packed
    return index, worker(item)


def fan_out(items, worker, jobs: int = 1, on_done=None) -> list:
    """Apply ``worker`` to every item; return results in item order.

    The one pool loop: :func:`run_specs` runs through it, and so does
    work that is not a :class:`RunSpec` (the chaos harness fans out
    whole search samples).
    ``worker`` must be a module-level function and both items and
    results must pickle — with ``jobs > 1`` they cross a spawn-context
    process boundary.  ``on_done(index, result)`` fires in *completion*
    order; the returned list is always in item order, so a ``--jobs N``
    sweep is identical to the serial one for every N.
    """
    items = list(items)
    results: list = [None] * len(items)
    if jobs <= 1 or len(items) <= 1:
        for index, item in enumerate(items):
            result = worker(item)
            results[index] = result
            if on_done is not None:
                on_done(index, result)
        return results
    packed = [(index, worker, item) for index, item in enumerate(items)]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=min(jobs, len(items))) as pool:
        for index, result in pool.imap_unordered(_fan_out_entry, packed):
            results[index] = result
            if on_done is not None:
                on_done(index, result)
    return results


def run_specs(
    specs: list[RunSpec],
    jobs: int = 1,
    on_done: Optional[Callable[[RunSpec, RunReport], None]] = None,
) -> list[RunReport]:
    """Execute every spec; return reports in spec-index order.

    With ``jobs <= 1`` runs serially in-process (no pickling, cheapest
    for a single core).  With more, fans out through :func:`fan_out`
    and reports cross the process boundary as JSON; ``on_done`` fires in
    *completion* order (progress reporting), while the returned list is
    always in spec order.
    """
    if sorted(spec.index for spec in specs) != list(range(len(specs))):
        raise ValueError("spec indices must be exactly 0..N-1")
    in_process = jobs <= 1 or len(specs) <= 1
    reports: list[Optional[RunReport]] = [None] * len(specs)

    def done(position: int, result) -> None:
        spec = specs[position]
        report = result if in_process else RunReport.from_json(result)
        reports[spec.index] = report
        if on_done is not None:
            on_done(spec, report)

    fan_out(specs, execute_spec if in_process else _worker, jobs=jobs, on_done=done)
    return reports  # type: ignore[return-value]
