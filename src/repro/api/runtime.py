"""The DSM runtime: build a cluster, run a program, report results.

This is the library's main entry point::

    from repro import DsmRuntime, RunConfig
    from repro.apps import Sor

    report = DsmRuntime(RunConfig(num_nodes=8)).execute(Sor(rows=128, cols=128))
    print(report.summary())

Configurations map onto the paper's labels:

- ``O``   — ``RunConfig(threads_per_node=1)``
- ``P``   — ``RunConfig(threads_per_node=1, prefetch=True)``
- ``nT``  — ``RunConfig(threads_per_node=n)``
- ``nTP`` — ``RunConfig(threads_per_node=n, prefetch=True)`` (combined:
  threads switch on synchronization only; prefetching owns memory
  latency — the winning split of Section 5)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.api.program import Program
from repro.api.shared import SharedMatrix, SharedVector
from repro.dsm.backend import BACKEND_NAMES
from repro.dsm.protocol import DsmNode
from repro.errors import ConfigError, ProtocolError, SimulationError
from repro.ft import FtManager, check_events
from repro.machine import Cluster, CostModel
from repro.memory import SharedAddressSpace, Segment
from repro.metrics.report import RunReport
from repro.network import FaultPlan, LinkConfig, TransportConfig
from repro.network import transport as reliable
from repro.prefetch.engine import PrefetchEngine, PrefetchStats
from repro.profile import ProfileConfig, profile_from_events
from repro.sim import RandomSource
from repro.telemetry import TelemetryConfig, section_from_events
from repro.threads import DsmThread, NodeScheduler, SchedulingPolicy
from repro.trace import NULL_TRACER, Tracer

__all__ = ["RunConfig", "DsmRuntime"]


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one experimental configuration."""

    num_nodes: int = 8
    threads_per_node: int = 1
    prefetch: bool = False
    page_size: int = 4096
    seed: int = 42
    costs: CostModel = field(default_factory=CostModel)
    link: LinkConfig = field(default_factory=LinkConfig)
    #: Timer policy of the reliable transport under the DSM protocol
    #: (seq numbers, acks, timeout/retry/backoff, duplicate
    #: suppression); every node runs one, and every datagram can drop.
    transport: TransportConfig = field(default_factory=TransportConfig)
    #: Seed-driven fault injection (drops, duplicates, reordering,
    #: degradation and stall windows); ``None`` = pristine network.
    fault_plan: Optional[FaultPlan] = None
    #: Structured event tracing (``repro.trace``): ``True`` records
    #: every instrumented event of the run in memory, for export and for
    #: the ``PhaseTimeline`` accounting audit.
    trace: bool = False
    #: Fault tolerance (``repro.ft``): failure detection, coordinated
    #: barrier checkpoints, and crash recovery.  Turned on whenever the
    #: fault plan schedules node crashes or partitions; its timings are
    #: module constants of ``repro.ft.detector`` and ``repro.ft.manager``.
    ft: bool = False
    #: The checkpoint-cut check (``repro.ft.sanitizer``): a fold over
    #: the run's events, run after the run (and over the partial trace
    #: when the run raised).  Implies event collection, as ``critpath``
    #: does; off, it costs nothing.
    sanitizer: bool = False
    #: Deep profiling (``repro.profile``): latency histograms and
    #: hot-entity attribution.  ``None`` (default) collects nothing; a
    #: :class:`ProfileConfig` (or ``True`` for the defaults) adds a
    #: versioned ``profile`` section to the report, folded from the
    #: run's events after the run (an internal tracer is created when
    #: none is configured, as for ``critpath``), so the RunReport core is
    #: byte-identical with it on or off.
    profile: Optional[ProfileConfig] = None
    #: Causal critical-path analysis (``repro.critpath``): rebuild the
    #: program-activity graph after the run, attribute the exact
    #: critical path, and attach what-if projections as a versioned
    #: ``critpath`` report section.  Implies event collection: when no
    #: tracer is configured, an internal one is created (its events are
    #: consumed by the analysis and discarded).  Pure post-processing —
    #: the simulation schedule is untouched and the report core is
    #: byte-identical with it on or off.
    critpath: bool = False
    #: Sim-time telemetry (``repro.telemetry``): windowed time series of
    #: gauges and counter deltas across the stack, with watchdog
    #: findings, as a versioned ``telemetry`` report section.  ``None``
    #: (default) samples nothing; a :class:`TelemetryConfig` (or ``True``
    #: for the defaults) adds the section, folded from the run's events
    #: after the run (an internal tracer is created when none is
    #: configured, as for ``profile``), so the report core is
    #: byte-identical with it on or off.
    telemetry: Optional[TelemetryConfig] = None
    #: Safety valve for runaway simulations (events, not microseconds).
    max_events: Optional[int] = 50_000_000
    #: Coherence protocol (``repro.dsm.backend``): ``lrc`` (TreadMarks-
    #: style lazy release consistency, the default), ``hlrc`` (home-based
    #: LRC), or ``sc`` (single-writer sequentially-consistent invalidate).
    protocol: str = "lrc"

    def __post_init__(self) -> None:
        if self.threads_per_node < 1:
            raise ConfigError("threads_per_node must be >= 1")
        if self.protocol not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown protocol {self.protocol!r} (choose from {BACKEND_NAMES})"
            )
        if self.num_nodes < 2:
            raise ConfigError("num_nodes must be >= 2")
        if not isinstance(self.transport, TransportConfig):
            raise ConfigError(f"transport must be a TransportConfig, got {self.transport!r}")
        if self.fault_plan is not None and (
            self.fault_plan.crashes or self.fault_plan.partitions
        ):
            # A crash schedule without recovery would hang the run, and
            # a partition without membership would strand the cut-off
            # nodes: both need the FT layer.
            object.__setattr__(self, "ft", True)
        # ``True`` means the plane's default config, ``False`` means off.
        for name, cls in (("profile", ProfileConfig), ("telemetry", TelemetryConfig)):
            value = getattr(self, name)
            if value is None or isinstance(value, cls):
                continue
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a {cls.__name__} or bool, got {value!r}")
            object.__setattr__(self, name, cls() if value else None)
        for name in ("trace", "ft"):
            if getattr(self, name) not in (True, False, None):
                raise ConfigError(f"{name} must be a bool, got {getattr(self, name)!r}")
        for name in ("trace", "critpath", "ft"):
            object.__setattr__(self, name, bool(getattr(self, name)))

    @property
    def total_threads(self) -> int:
        return self.num_nodes * self.threads_per_node

    @property
    def label(self) -> str:
        """The paper's configuration label (O, P, nT, nTP)."""
        if self.threads_per_node == 1:
            return "P" if self.prefetch else "O"
        suffix = "TP" if self.prefetch else "T"
        return f"{self.threads_per_node}{suffix}"

    @property
    def policy(self) -> SchedulingPolicy:
        if self.threads_per_node == 1:
            return SchedulingPolicy.single_threaded()
        if self.prefetch:
            # Combined scheme: multithreading only hides synchronization.
            return SchedulingPolicy.sync_only()
        return SchedulingPolicy.multithreaded()


class DsmRuntime:
    """Owns one cluster and runs one program on it."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.random = RandomSource(config.seed)
        #: The run's tracer: a collecting Tracer when config.trace is
        #: set, else the shared null tracer (zero collection overhead).
        #: The profile, the critical-path analysis, the telemetry and the
        #: sanitizer read the event stream, so each forces an internal
        #: tracer when none was requested.
        if (
            config.trace
            or config.profile is not None
            or config.critpath
            or config.telemetry is not None
            or config.sanitizer
        ):
            self.tracer: Tracer = Tracer()
        else:
            self.tracer = NULL_TRACER
        self.cluster = Cluster(
            num_nodes=config.num_nodes,
            page_size=config.page_size,
            costs=config.costs,
            link_config=config.link,
            fault_plan=config.fault_plan,
            transport=config.transport,
            rng=self.random,
            tracer=self.tracer,
        )
        self.space = SharedAddressSpace(config.page_size)
        records = {}  # every node's interval records, by page
        self.dsm_nodes: list[DsmNode] = [
            DsmNode(node, config.num_nodes, records, protocol=config.protocol)
            for node in self.cluster.nodes
        ]
        self.prefetch_engines: list[PrefetchEngine] = []
        if config.prefetch:
            self.prefetch_engines = [PrefetchEngine(dsm) for dsm in self.dsm_nodes]
        self.schedulers: list[NodeScheduler] = [
            NodeScheduler(node, dsm, policy=config.policy)
            for node, dsm in zip(self.cluster.nodes, self.dsm_nodes)
        ]
        for scheduler, engine in zip(self.schedulers, self.prefetch_engines):
            scheduler.prefetch = engine
        #: Fault-tolerance layer (failure detection, checkpoint/recovery).
        self.ft: Optional[FtManager] = FtManager(self) if config.ft else None

    # -- allocation helpers -------------------------------------------------

    def alloc(self, name: str, nbytes: int, page_aligned: bool = True) -> Segment:
        return self.space.alloc(name, nbytes, page_aligned=page_aligned)

    def alloc_vector(
        self, name: str, dtype: np.dtype, length: int, page_aligned: bool = True
    ) -> SharedVector:
        dtype = np.dtype(dtype)
        segment = self.alloc(name, length * dtype.itemsize, page_aligned=page_aligned)
        return SharedVector(segment, dtype, length)

    def alloc_matrix(
        self, name: str, dtype: np.dtype, rows: int, cols: int, page_aligned: bool = True
    ) -> SharedMatrix:
        dtype = np.dtype(dtype)
        segment = self.alloc(name, rows * cols * dtype.itemsize, page_aligned=page_aligned)
        return SharedMatrix(segment, dtype, rows, cols)

    # -- execution -------------------------------------------------------------

    def execute(self, program: Program, verify: bool = True) -> RunReport:
        """Run the program to completion and return its report."""
        program.setup(self)
        tpn = self.config.threads_per_node
        for tid in range(self.config.total_threads):
            node_id = tid // tpn
            thread = DsmThread(tid, node_id, program.thread_body(self, tid))
            self.schedulers[node_id].add_thread(thread)
        if self.ft is not None:
            # Takes the initial checkpoint (the rollback target for a
            # crash before the first barrier) and arms the crash plan.
            self.ft.start(program)
        for scheduler in self.schedulers:
            scheduler.start()
        try:
            self.cluster.run(max_events=self.config.max_events)
            # Recovery replaces scheduler processes, so consult the *current*
            # done_event, not the one start() returned before any rollback.
            for scheduler in self.schedulers:
                done = scheduler.done_event
                if done is None or not done.triggered:
                    raise SimulationError(
                        f"node {scheduler.node.node_id} never finished — deadlock?"
                    )
                done.value  # re-raise any thread exception
        except Exception as failure:
            # A violation that derailed the run is the finding, not the
            # deadlock or crash it led to.
            self._sanitize(cause=failure)
            raise
        self._sanitize()
        wall = max(s.finished_at for s in self.schedulers if s.finished_at is not None)
        report = self._build_report(program, wall)
        if verify:
            program.verify(self)
        return report

    def _sanitize(self, cause: Optional[Exception] = None) -> None:
        """Fold the trace through the sanitizer, if configured."""
        if self.config.sanitizer:
            try:
                check_events(self.tracer.events, self.config.num_nodes)
            except ProtocolError as violation:
                raise violation from cause

    def _build_report(self, program: Program, wall: float) -> RunReport:
        stats = self.cluster.network.stats
        prefetch_stats: Optional[PrefetchStats] = None
        if self.prefetch_engines:
            prefetch_stats = PrefetchStats()
            for engine in self.prefetch_engines:
                for name in vars(engine.stats):
                    setattr(
                        prefetch_stats,
                        name,
                        getattr(prefetch_stats, name) + getattr(engine.stats, name),
                    )
        extra = {}
        if self.ft is not None:
            extra["ft"] = self.ft.summary()
        profile = None
        if self.config.profile is not None:
            profile = profile_from_events(
                self.tracer.events, self.space, self.config.num_nodes, self.config.profile.top_n
            )
        critpath = None
        if self.config.critpath:
            from repro.critpath import analyze_events

            critpath = analyze_events(self.tracer.events).to_dict()
        telemetry = None
        if self.config.telemetry is not None:
            telemetry = section_from_events(
                self.tracer.events, self.config, wall, self.cluster.sim.now
            )
        transport_health = None
        transports = self.cluster.transports
        if self.config.transport.adaptive:
            network = self.cluster.network
            per_node = {}
            parked_live = 0
            for transport in transports:
                per_node[str(transport.node.node_id)] = transport.health_snapshot()
                # Parked messages toward peers that are neither down nor
                # fenced at end of run: the no-livelock invariant's
                # numerator (down/fenced peers are legitimately parked —
                # their revival belongs to a rollback/rejoin that the
                # workload finished without needing).
                parked_live += sum(
                    count
                    for dst, count in transport.parked_by_peer().items()
                    if not network.is_down(dst) and not network.is_fenced(dst)
                )
            min_cwnds = [
                t.extremes.min_cwnd for t in transports if t.extremes.min_cwnd >= 0
            ]
            transport_health = {
                "per_node": per_node,
                "cwnd_max": reliable.CWND_MAX,
                # Worst-case excursions across all nodes: the end-of-run
                # gauges only show where the run *landed*, the extremes
                # show where it *went*.
                "extremes": {
                    "max_backlog": max(t.extremes.max_backlog for t in transports),
                    "min_cwnd": round(min(min_cwnds), 3) if min_cwnds else -1.0,
                    "max_rto_us": round(
                        max(t.extremes.max_rto_us for t in transports), 3
                    ),
                },
                "max_in_flight": max(
                    s["max_in_flight"] for s in per_node.values()
                ),
                "paced": sum(s["paced"] for s in per_node.values()),
                "shed": stats.total_shed,
                "rtt_samples": sum(s["rtt_samples"] for s in per_node.values()),
                "cwnd_halvings": sum(s["cwnd_halvings"] for s in per_node.values()),
                "unacked": sum(s["unacked"] for s in per_node.values()),
                "pacing_backlog": sum(s["pacing_backlog"] for s in per_node.values()),
                "parked_live": parked_live,
            }
        return RunReport(
            app_name=program.name,
            config_label=self.config.label,
            protocol=self.config.protocol,
            num_nodes=self.config.num_nodes,
            threads_per_node=self.config.threads_per_node,
            wall_time_us=wall,
            node_breakdowns=[node.breakdown for node in self.cluster.nodes],
            node_events=[node.events for node in self.cluster.nodes],
            total_messages=stats.total_messages,
            total_kbytes=stats.total_bytes / 1024.0,
            message_drops=stats.total_drops,
            prefetch_stats=prefetch_stats,
            retransmissions=stats.total_retransmits,
            injected_faults={
                fault: sum(by_kind.values())
                for fault, by_kind in stats.injected_by_fault.items()
                if sum(by_kind.values())
            },
            traffic_by_kind=stats.kind_breakdown(),
            extra=extra,
            profile=profile,
            critpath=critpath,
            transport_health=transport_health,
            telemetry=telemetry,
        )

    # -- verification support ------------------------------------------------------

    def global_page(self, page_id: int) -> np.ndarray:
        """The authoritative final contents of a page.

        How the value is reconstructed is protocol-specific (LRC replays
        the cluster-wide diff history; SC reads the owner's copy), so
        the work is delegated to the coherence backend.
        """
        return self.dsm_nodes[0].backend.global_page(self, page_id)

    def read_global(self, addr: int, nbytes: int, dtype: np.dtype = np.uint8) -> np.ndarray:
        """Authoritative bytes for a region (for verifiers)."""
        page_size = self.config.page_size
        out = np.empty(nbytes, dtype=np.uint8)
        copied = 0
        while copied < nbytes:
            page_id, offset = divmod(addr + copied, page_size)
            chunk = min(nbytes - copied, page_size - offset)
            out[copied : copied + chunk] = self.global_page(page_id)[offset : offset + chunk]
            copied += chunk
        return out.view(dtype)

    def read_vector(self, vector: SharedVector) -> np.ndarray:
        return self.read_global(
            vector.segment.base, vector.length * vector.dtype.itemsize, vector.dtype
        )

    def read_matrix(self, matrix: SharedMatrix) -> np.ndarray:
        flat = self.read_global(
            matrix.segment.base,
            matrix.rows * matrix.cols * matrix.dtype.itemsize,
            matrix.dtype,
        )
        return flat.reshape(matrix.rows, matrix.cols)
