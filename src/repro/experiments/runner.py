"""Experiment runner: one place that maps the paper's configuration
labels (O, P, nT, nTP) onto runtime configurations and caches reports,
since several figures/tables share the same runs.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps.registry import APP_ORDER, make_app
from repro.dsm.backend import BACKEND_NAMES
from repro.errors import ConfigError
from repro.metrics.report import RunReport
from repro.trace import PhaseTimeline

__all__ = [
    "CONFIG_LABELS",
    "ExperimentRunner",
    "add_run_arguments",
    "export_trace",
    "make_configured_app",
    "parse_label",
]

#: Every configuration Figure 5 uses, in its presentation order.
CONFIG_LABELS = ["O", "2T", "4T", "8T", "P", "2TP", "4TP", "8TP"]


def parse_label(label: str) -> tuple[int, bool]:
    """Label -> (threads_per_node, prefetch)."""
    if label == "O":
        return 1, False
    if label == "P":
        return 1, True
    if label.endswith("TP"):
        return int(label[:-2]), True
    if label.endswith("T"):
        return int(label[:-1]), False
    raise ConfigError(f"unknown configuration label {label!r}")


def make_configured_app(app_name: str, preset: str, label: str):
    """Build the app instance for one (app, configuration-label) cell.

    One definition shared by the experiment runner, the bench sweep and
    the parallel workers, so the per-scheme app flags (Section 5.1's
    combined-scheme optimizations) cannot drift between harnesses.
    """
    threads_per_node, prefetch = parse_label(label)
    app = make_app(app_name, preset)
    app.use_prefetch = prefetch
    if prefetch and threads_per_node > 1:
        # The combined scheme's optimizations (Section 5.1).
        app.prefetch_dedup = True
        if app_name == "RADIX":
            app.throttle_prefetch = True
    return app


def _jobs(text: str) -> int:
    """A ``--jobs`` value: worker processes, 0 meaning one per CPU core."""
    # Imported here: repro.parallel imports this module.
    from repro.parallel import default_jobs

    return default_jobs() if int(text) == 0 else max(1, int(text))


#: The options every run CLI may share, by ``add_run_arguments`` keyword.
_RUN_ARGUMENTS = {
    "nodes": dict(type=int, metavar="N", help="cluster size (default %(default)s)"),
    "preset": dict(
        choices=["small", "default", "paper"], help="problem-size preset (default %(default)s)"
    ),
    "seed": dict(type=int, help="seed (default %(default)s)"),
    "protocol": dict(
        choices=sorted(BACKEND_NAMES),
        help="coherence backend (default %(default)s): lrc (TreadMarks-style "
        "lazy release consistency), hlrc (home-based LRC), sc (single-writer "
        "sequentially-consistent invalidate)",
    ),
    "adaptive": dict(
        action="store_true",
        help="use the adaptive transport (RTT-estimated RTO, AIMD window, "
        "backpressure) instead of the static timeout/retry policy",
    ),
    "jobs": dict(
        type=_jobs,
        metavar="N",
        help="fan the runs across up to N worker processes (0 = one per "
        "CPU core); results are identical for any N",
    ),
    "no_verify": dict(action="store_true", help="skip result verification (faster)"),
}


def add_run_arguments(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare the shared run options a CLI takes, each keyword (``nodes``,
    ``preset``, ``seed``, ``protocol``, ``adaptive``, ``jobs``,
    ``no_verify``) with the CLI's default for it."""
    for name, default in defaults.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), default=default, **_RUN_ARGUMENTS[name]
        )


def export_trace(runtime: DsmRuntime, report: RunReport, path) -> None:
    """Write a run's trace to ``path``: a flat event log if it ends in
    ``.jsonl``, else Chrome/Perfetto JSON with the run's critical path and
    telemetry overlaid.  Then audit it: the events must rebuild the
    report's time breakdown exactly, or :class:`ConfigError` says where not."""
    tracer = runtime.tracer
    if str(path).endswith(".jsonl"):
        tracer.write_jsonl(path)
    else:
        tracer.write_chrome(path, critpath=report.critpath, telemetry=report.telemetry)
    mismatches = PhaseTimeline.from_events(tracer.events).verify_against(report)
    if mismatches:
        raise ConfigError(f"trace/accounting mismatch in {path}: " + "; ".join(mismatches))


class ExperimentRunner:
    """Runs (app, configuration) pairs on demand and caches the reports."""

    def __init__(
        self,
        num_nodes: int = 8,
        preset: str = "default",
        seed: int = 42,
        verify: bool = True,
        verbose: bool = False,
        trace_template: Optional[str] = None,
        profile_template: Optional[str] = None,
        jobs: int = 1,
        critpath: bool = False,
    ) -> None:
        self.num_nodes = num_nodes
        self.preset = preset
        self.seed = seed
        self.verify = verify
        self.verbose = verbose
        #: When set, every run records a trace written to a path derived
        #: from this template: ``figure1.json`` -> ``figure1.FFT-O.json``.
        self.trace_template = trace_template
        #: When set, every run profiles (repro.profile); "-" just
        #: collects (the profile rides inside the cached reports), any
        #: other value is a template for per-run RunReport JSON dumps,
        #: derived like the trace template.
        self.profile_template = profile_template
        #: When set, every run carries a ``critpath`` report section
        #: (repro.critpath): exact critical-path blame and what-if
        #: projections, consumed by the ``critpath`` experiment.
        self.critpath = critpath
        #: Worker processes :meth:`run_cells` fans a matrix across; 1 =
        #: serial.  Tracing keeps the grid serial (see :meth:`prefetch_grid`).
        self.jobs = jobs
        self._cache: dict[tuple[str, str], RunReport] = {}

    @staticmethod
    def _derived_path(template_str: str, app_name: str, label: str) -> Path:
        """Per-run path from a template: ``fig1.json`` -> ``fig1.FFT-O.json``."""
        template = Path(template_str)
        return template.with_name(
            f"{template.stem}.{app_name}-{label}{template.suffix or '.json'}"
        )

    def config(self, label: str, **overrides) -> RunConfig:
        """This runner's ``RunConfig`` for one configuration label — the
        one place a label, the node count and the seed become a config;
        ``overrides`` set or replace fields."""
        threads_per_node, prefetch = parse_label(label)
        fields = {
            "num_nodes": self.num_nodes,
            "threads_per_node": threads_per_node,
            "prefetch": prefetch,
            "seed": self.seed,
        }
        return RunConfig(**{**fields, **overrides})

    def _grid_config(self, label: str) -> RunConfig:
        """The config of a cached (app, label) cell: the runner's planes on."""
        return self.config(
            label,
            trace=bool(self.trace_template),
            profile=bool(self.profile_template),
            critpath=self.critpath,
        )

    def run(self, app_name: str, label: str) -> RunReport:
        key = (app_name, label)
        if key in self._cache:
            return self._cache[key]
        app = make_configured_app(app_name, self.preset, label)
        if self.verbose:
            print(f"  running {app_name} [{label}] ...", flush=True)
        runtime = DsmRuntime(self._grid_config(label))
        report = runtime.execute(app, verify=self.verify)
        if self.trace_template:
            path = self._derived_path(self.trace_template, app_name, label)
            path.parent.mkdir(parents=True, exist_ok=True)
            export_trace(runtime, report, path)
            if self.verbose:
                print(f"    trace: {len(runtime.tracer)} events -> {path}", flush=True)
        self._store(key, report)
        return report

    def _store(self, key: tuple[str, str], report: RunReport) -> None:
        """Cache a grid cell, writing its profile dump when one is asked for."""
        if self.profile_template and self.profile_template != "-":
            path = self._derived_path(self.profile_template, *key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(report.to_json(indent=2) + "\n")
            if self.verbose:
                print(f"    profile report -> {path}", flush=True)
        self._cache[key] = report

    def run_cells(self, cells: dict[tuple, RunConfig]) -> dict[tuple, RunReport]:
        """Run a matrix of cells across ``jobs`` workers: the one place a
        run becomes a :class:`~repro.parallel.RunSpec`.

        A key is any tuple that starts with the app name; the app is
        configured for the config's own label (``config.label``).
        Reports come back under their keys in the dict's order whatever
        the job count — runs are deterministic and independent.
        """
        # Imported here, not at module scope: repro.parallel imports this
        # module (workers rebuild apps by name).
        from repro.parallel import RunSpec, run_specs

        keys = list(cells)
        specs = [
            RunSpec(index, key[0], self.preset, cells[key].label, cells[key], self.verify)
            for index, key in enumerate(keys)
        ]

        def on_done(spec, report) -> None:
            if self.verbose:
                cell = "/".join(str(part) for part in keys[spec.index])
                print(f"  finished {cell}: wall {report.wall_time_us / 1000:.2f} ms", flush=True)

        return dict(zip(keys, run_specs(specs, jobs=self.jobs, on_done=on_done)))

    def prefetch_grid(self, labels, apps=APP_ORDER) -> None:
        """Fan the (app, label) grid cells not yet cached out across the
        workers, so the :meth:`run` calls that follow are cache hits.

        A no-op when serial, and under tracing: the timeline audit needs
        the in-process tracer, which cannot cross a process boundary.
        """
        if self.jobs <= 1 or self.trace_template:
            return
        missing = {
            (app_name, label): self._grid_config(label)
            for app_name in apps
            for label in labels
            if (app_name, label) not in self._cache
        }
        for key, report in self.run_cells(missing).items():
            self._store(key, report)
