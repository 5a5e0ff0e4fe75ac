"""The ledger's vocabulary: cells, the six workloads, and every metric.

Pure data: importing this module imports nothing from ``repro``, so the
command can list workloads and compare result files without the simulator.
``BENCHMARK.json`` at the repo root repeats the names, units, directions and
bounds below; ``test_ledger.py`` fails when the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "APPS",
    "Cell",
    "Workload",
    "WORKLOADS",
    "Metric",
    "END_TO_END",
    "SIM_WALL_SAME_SEED_BOUND",
    "REPORTED_ONLY",
    "LAYERS",
    "PLANE_LAYERS",
    "ENTRY_POINTS",
    "EXACT_COUNTS",
    "PER_LAYER",
    "RUN_SECONDS",
    "smoke",
]

#: ``repro.apps.APP_ORDER``, repeated so this file stays import-free (the
#: tests check the two are equal).
APPS = ("FFT", "LU-NCONT", "LU-CONT", "OCEAN", "RADIX", "SOR", "WATER-NSQ", "WATER-SP")

#: What ``--seconds`` defaults to, and ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 16

#: Presets the ledger defines on top of ``repro.apps.make_app``'s (the
#: worker holds the factories): the paper's data sizes, cut short in time.
LEDGER_PRESETS = ("paper-short",)

#: How a cell departs from a planes-off run on a pristine network.
VARIANTS = ("", "lossy-static", "lossy-adaptive", "observed")


@dataclass(frozen=True)
class Cell:
    """One simulation: ``APP:preset:label:nodes[:protocol][+variant]``.

    ``label`` is the paper's O / P / nT / nTP, ``protocol`` defaults to
    ``lrc``, and ``variant`` is one of :data:`VARIANTS`.
    """

    app: str
    preset: str
    label: str
    nodes: int
    protocol: str = "lrc"
    variant: str = ""

    def __post_init__(self) -> None:
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r} in cell")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} in cell")
        if self.preset in LEDGER_PRESETS and self.label != "O":
            raise ValueError(f"preset {self.preset!r} is defined for label O only")

    @classmethod
    def parse(cls, text: str) -> "Cell":
        base, _, variant = text.partition("+")
        parts = base.split(":")
        if len(parts) not in (4, 5):
            raise ValueError(f"cell {text!r} is not APP:preset:label:nodes[:protocol]")
        return cls(parts[0], parts[1], parts[2], int(parts[3]), *parts[4:], variant=variant)

    @property
    def id(self) -> str:
        text = f"{self.app}:{self.preset}:{self.label}:{self.nodes}"
        if self.protocol != "lrc":
            text += f":{self.protocol}"
        return f"{text}+{self.variant}" if self.variant else text


@dataclass(frozen=True)
class Workload:
    name: str
    #: One sentence: why this set of cells is in the benchmark.
    why: str
    cells: tuple[Cell, ...]
    #: The subset the ``--trace 1`` pass profiles.
    trace_cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        missing = [cell.id for cell in self.trace_cells if cell not in self.cells]
        if missing:
            raise ValueError(f"{self.name}: trace cells not in the workload: {missing}")
        if len(set(self.cells)) != len(self.cells):
            raise ValueError(f"{self.name}: duplicate cells")


def _grid(apps, preset, labels, nodes=8, protocol="lrc", variant="") -> tuple[Cell, ...]:
    return tuple(
        Cell(app, preset, label, nodes, protocol, variant) for app in apps for label in labels
    )


def _cells(*texts: str) -> tuple[Cell, ...]:
    return tuple(Cell.parse(text) for text in texts)


# Sizing.  One pass over a workload costs ~2-4 s of host time on the box
# the ledger was written on (Python 3.11, one core), so three or four passes
# fit in RUN_SECONDS and every cell's time is a median.  paper_sweep is the
# exception (~10 s, one pass): the paper-shape checks it feeds need the
# ``default`` preset for all eight applications.  ISSUE 11 sketched the same six workloads at ~20 s each; the
# driver's time budget (136 runs in 3420 s) does not allow that, so breadth
# was kept and problem size cut.
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "paper_sweep",
        "the paper's Figure 1-3 matrix at the size users run: every layer does a "
        "moderate share, and all five instrumentation planes are off (their disabled cost)",
        _grid(APPS, "default", ("O", "P"))
        + _cells("LU-NCONT:default:4T:8", "WATER-SP:default:4TP:8"),
        _cells(
            "RADIX:default:O:8",
            "FFT:default:P:8",
            "LU-NCONT:default:4T:8",
            "WATER-SP:default:4TP:8",
        ),
    ),
    Workload(
        "scale_ladder",
        "16 to 64 nodes: messages grow ~quadratically, so the sim kernel, links, switch, "
        "transport and CPU charges do the work and apps, prefetch and threads almost none",
        _cells(
            "RADIX:small:O:16",
            "RADIX:small:O:32",
            "SOR:default:O:32",
            "SOR:default:O:64",
            "WATER-NSQ:small:O:16",
        ),
        _cells("RADIX:small:O:16", "WATER-NSQ:small:O:16", "SOR:default:O:64"),
    ),
    Workload(
        "paper_size",
        "the paper's data sizes (thousands of pages, tens of events per message): compute "
        "quanta, CPU charges, the scheduler and page state dominate, the network does not",
        _cells("SOR:paper-short:O:8", "LU-CONT:paper-short:O:8"),
        _cells("SOR:paper-short:O:8"),
    ),
    Workload(
        "protocol_mix",
        "the hlrc and sc backends: whole-page home transfers and invalidate/ownership "
        "traffic, no twins or diffs, so a data-plane merge that costs one backend shows",
        tuple(
            cell
            for protocol in ("hlrc", "sc")
            for cell in _grid(APPS, "small", ("O",), protocol=protocol)
            + _grid(
                ("FFT", "LU-NCONT", "WATER-NSQ", "WATER-SP"), "small", ("4TP",), protocol=protocol
            )
        ),
        _cells(
            "RADIX:small:O:8:hlrc",
            "SOR:small:O:8:hlrc",
            "RADIX:small:O:8:sc",
            "WATER-NSQ:small:4TP:8:sc",
        ),
    ),
    Workload(
        "lossy_net",
        "5% message loss under the static and the adaptive transport: retransmit timers "
        "fire for real, so a timer or transport merge that changes behaviour under loss shows",
        # Long cells carry the sum: a 10 ms retransmit timeout is a tenth of a
        # ``small`` run, so short cells alone make sim_wall_ms swing with the seed.
        tuple(
            cell
            for variant in ("lossy-static", "lossy-adaptive")
            for cell in _grid(("FFT", "LU-CONT", "SOR"), "default", ("O",), variant=variant)
            + _grid(
                ("LU-NCONT", "OCEAN", "RADIX", "WATER-NSQ", "WATER-SP"), "small", ("O",),
                variant=variant,
            )
            + _grid(("RADIX",), "small", ("4TP",), variant=variant)
        ),
        _cells(
            "RADIX:small:O:8+lossy-static",
            "RADIX:small:O:8+lossy-adaptive",
            "LU-NCONT:small:O:8+lossy-adaptive",
        ),
    ),
    Workload(
        "observed",
        "trace, profile, telemetry, critpath and sanitizer all on: the planes' enabled "
        "cost, which no other workload pays",
        _grid(APPS, "small", ("O",), variant="observed")
        + _cells("FFT:small:P:8+observed", "RADIX:small:4TP:8+observed"),
        _cells("RADIX:small:O:8+observed", "FFT:small:P:8+observed"),
    ),
)


def smoke(workload: Workload) -> Workload:
    """The same workload shrunk to the ``small`` preset on 4 nodes."""

    def shrink(cells: tuple[Cell, ...]) -> tuple[Cell, ...]:
        small = (replace(cell, preset="small", nodes=4) for cell in cells)
        return tuple(dict.fromkeys(small))

    return replace(
        workload, cells=shrink(workload.cells), trace_cells=shrink(workload.trace_cells)
    )


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "lower" or "higher".
    better: str
    #: Share of the baseline by which an end-to-end metric may worsen
    #: before it counts as a regression; None for per-layer metrics.
    bound: Optional[float] = None
    definition: str = ""


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "host_s", "s", "lower", 0.20,
        "sum over cells of the median, over passes, of perf_counter around "
        "DsmRuntime.execute(app, verify=False), divided by the machine slowdown the "
        "probe kernel measured right before and after the cell",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the workload's subprocess at exit",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "median `import repro` over five fresh interpreters, plus the sum over cells of "
        "make_app + DsmRuntime(config) (median over passes): everything before execute; "
        "slowdown divided out like host_s",
    ),
    Metric(
        "sim_wall_ms", "sim_ms", "lower", 0.08,
        "sum over cells of RunReport.wall_time_us / 1000: simulated time, exactly "
        "repeatable for one seed and one source tree; the bound is for comparisons "
        "across seeds, and as wide as lossy_net needs (its quartiles lie 4-5 % apart, "
        "every other workload's under 1 %)",
    ),
)

#: ``--compare``'s bound on ``sim_wall_ms`` between two runs of one seed on a
#: workload that injects no faults.  There simulated time is a function of
#: seed and source alone, so any change is the program's; END_TO_END's wider
#: bound is for comparisons across seeds and under random message loss.
SIM_WALL_SAME_SEED_BOUND = 0.005

#: Printed with the end-to-end metrics and gated by ``--compare`` with bound
#: 0, but zero by design, which BENCHMARK.json's end_to_end list does not
#: allow: ``fail_share`` travels as the result line's failed/attempted, and
#: ``paper_claims_missed`` as a per-layer metric that also clears ``correct``.
REPORTED_ONLY: tuple[Metric, ...] = (
    Metric(
        "fail_share", "share", "lower", 0.0,
        "executions that raised, hit max_events or failed program.verify, over executions",
    ),
    Metric(
        "paper_claims_missed", "count", "lower", 0.0,
        "paper_sweep only: how many of the 10 PAPER_CLAIMS checks for fig1/fig2/tab1/fig3 "
        "report DEVIATES when fed the sweep's own O and P reports; 0 of 0 elsewhere",
    ),
)

#: Layer = module path under src/repro; ``layers.py`` holds the file map.
LAYERS = (
    "sim",
    "machine",
    "network.link",
    "network.switch",
    "network.network",
    "network.transport",
    "network.faults",
    "network.other",
    "dsm.protocol",
    "dsm.hlrc",
    "dsm.sc",
    "dsm.locks",
    "dsm.barriers",
    "dsm.meta",
    "memory",
    "threads",
    "prefetch",
    "apps",
    "api",
    "metrics",
    "trace",
    "profile",
    "telemetry",
    "critpath",
    "ft",
    "numpy",
    "builtins",
)

#: The five instrumentation planes (the sanitizer lives in ``ft``).
PLANE_LAYERS = ("trace", "profile", "telemetry", "critpath", "ft")

#: Traced call counts of public entry points: metric -> (module, qualified
#: name); a module-only entry counts every public function of that module.
#: cProfile counts frame entries, so a generator counts once per resume.
ENTRY_POINTS = {
    "sim.schedule_calls": ("repro.sim.core", "Simulator.schedule"),
    "sim.timeout_allocs": ("repro.sim.core", "Timeout.__init__"),
    "machine.occupy_calls": ("repro.machine.node", "Node.occupy"),
    "network.link.sends": ("repro.network.link", "Link.send"),
    "network.transport.sends": ("repro.network.transport", "ReliableTransport.send_tracked"),
    "memory.diff_calls": ("repro.memory.diff", None),
}

#: Exact, untraced counts read from public surfaces, summed over the
#: workload's cells; equal for two runs of one seed and one source tree.
EXACT_COUNTS: tuple[Metric, ...] = (
    Metric("sim.events", "count", "lower", None, "Simulator.events_handled"),
    Metric("network.messages", "count", "lower", None, "RunReport.total_messages"),
    Metric("network.kbytes", "KB", "lower", None, "RunReport.total_kbytes"),
    Metric("network.drops", "count", "lower", None, "RunReport.message_drops"),
    Metric("network.faults.injected", "count", "lower", None, "sum of RunReport.injected_faults"),
    Metric("network.transport.retransmissions", "count", "lower", None,
           "RunReport.retransmissions"),
    Metric("network.transport.timeouts", "count", "lower", None,
           "EventCounters.transport_timeouts"),
    Metric("network.transport.acks", "count", "lower", None, "EventCounters.acks_sent"),
    Metric("dsm.remote_misses", "count", "lower", None, "EventCounters.remote_misses"),
    Metric("dsm.cache_faults", "count", "lower", None, "EventCounters.cache_faults"),
    Metric("dsm.lock_misses", "count", "lower", None, "EventCounters.remote_lock_misses"),
    Metric("dsm.barrier_waits", "count", "lower", None, "EventCounters.barrier_waits"),
    Metric("threads.context_switches", "count", "lower", None, "EventCounters.context_switches"),
    Metric("prefetch.issued", "count", "lower", None, "PrefetchStats.issued"),
    Metric("prefetch.hits", "count", "higher", None, "PrefetchStats.hits"),
    Metric("prefetch.late", "count", "lower", None, "PrefetchStats.late"),
    Metric("sim_time.busy_ms", "sim_ms", "lower", None, "TimeBreakdown busy, all nodes"),
    Metric("sim_time.dsm_overhead_ms", "sim_ms", "lower", None, "TimeBreakdown dsm_overhead"),
    Metric("sim_time.prefetch_overhead_ms", "sim_ms", "lower", None,
           "TimeBreakdown prefetch_overhead"),
    Metric("sim_time.mt_overhead_ms", "sim_ms", "lower", None, "TimeBreakdown mt_overhead"),
    Metric("sim_time.memory_idle_ms", "sim_ms", "lower", None, "TimeBreakdown memory_idle"),
    Metric("sim_time.sync_idle_ms", "sim_ms", "lower", None, "TimeBreakdown sync_idle"),
)

PER_LAYER: tuple[Metric, ...] = (
    tuple(
        metric
        for layer in LAYERS
        for metric in (
            Metric(f"{layer}.self_s", "s", "lower", None, "cProfile self time folded by file"),
            Metric(f"{layer}.calls", "count", "lower", None, "cProfile frame entries"),
        )
    )
    + tuple(
        Metric(name, "count", "lower", None, "traced frame entries of " + (qualname or module))
        for name, (module, qualname) in ENTRY_POINTS.items()
    )
    + (
        Metric("traced_s", "s", "lower", None, "host time of the trace cells under cProfile"),
        Metric("trace_overhead_x", "x", "lower", None,
               "traced_s over the untraced host time of the same cells"),
    )
    + EXACT_COUNTS
    + (
        Metric("sim.host_ns_per_event", "ns", "lower", None, "untraced host time / sim.events"),
        Metric("sim.events_per_msg", "count", "lower", None, "sim.events / network.messages"),
        Metric("prefetch.useful_share", "share", "higher", None, "prefetch.hits / prefetch.issued"),
        Metric("host_raw_s", "s", "lower", None, "host_s as the clock read it, slowdown left in"),
        Metric("host_cpu_s", "s", "lower", None, "process_time around the same execute calls"),
        Metric("host_probe_ms", "ms", "lower", None,
               "median time of the fixed probe kernel run after every cell: the machine's "
               "speed during the run, which no change to the program moves"),
        Metric("slowest_cell_s", "s", "lower", None, "largest single cell's host_s"),
        Metric("apps.verify_s", "s", "lower", None, "program.verify over every cell, untimed"),
        REPORTED_ONLY[1],
    )
)
