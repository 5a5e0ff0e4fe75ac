"""The sim-time flight recorder: deterministic windowed sampling.

A :class:`TelemetrySampler` rides the simulation clock: every
``interval_us`` of *simulated* time it snapshots gauges and counter
deltas across the whole stack — scheduler occupancy, DSM protocol
state, prefetch activity, and the adaptive transport's live estimator —
into per-node time series.  The sampler is a pure observer (no RNG, no
scheduling, no protocol mutation), so the simulation schedule and the
RunReport core are byte-identical with it on or off; with it on, the
series are identical across repeated runs and ``--jobs N``.

Mechanically the sampler does **not** schedule events: a perpetual
sampling process would keep the event heap alive forever.  Instead the
:class:`~repro.sim.Simulator` run loop consults ``next_due`` whenever
simulated time is about to advance (one cached-boolean check per heap
pop, the same cost model as the tracer) and calls :meth:`advance_to`,
which emits one sample per crossed window boundary.  A sample at
boundary ``W`` covers ``[W - interval, W)``: every event strictly
before ``W`` has executed, no event at or after ``W`` has.  The final
(usually partial) window is flushed by :meth:`finalize` at end of run,
so summing a delta series always reconciles exactly with the end-of-run
counter totals.

Series taxonomy (one list per metric per node, one entry per window):

- *gauges* — instantaneous values at the window boundary (runnable and
  blocked thread counts, write-notice backlog, stored diff bytes,
  unacked/backlog/parked transport queues) plus cumulative float sums
  (busy and stall microseconds), which consumers difference themselves;
- *deltas* — integer counter increments within the window.  Integer
  arithmetic is exact, so ``sum(series) == end-of-run total`` holds
  bit-for-bit; float counters deliberately stay on the gauge side.
- *peers* — per-destination adaptive estimator state (srtt, rttvar,
  rto, cwnd, in-flight, pacing backlog, parked), present only on
  adaptive runs.
- *epochs* — per-barrier-episode stall/switch accounting, closed by the
  barrier-release hook rather than the sampling clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.metrics.counters import Category
from repro.threads.thread import ThreadState

__all__ = [
    "TelemetryConfig",
    "TelemetrySampler",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TELEMETRY_SCHEMA_VERSION",
    "GAUGE_METRICS",
    "DELTA_METRICS",
    "PEER_METRICS",
]

#: Bumped when the telemetry section layout changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

#: Per-node gauge series (instantaneous or cumulative-float), in
#: emission order.  Shared with the Perfetto exporter and the offline
#: renderer so counter tracks round-trip back into the same taxonomy.
GAUGE_METRICS = (
    "sched.runnable",
    "sched.blocked",
    "sched.busy_us_total",
    "sched.stall_us_total",
    "dsm.wn_backlog",
    "dsm.diff_bytes_stored",
    "dsm.intervals",
    "transport.unacked",
    "transport.backlog",
    "transport.parked",
)

#: Per-node integer counter-delta series, in emission order.  Each maps
#: to an exact end-of-run total (the reconciliation invariant).
DELTA_METRICS = (
    "sched.ctx_switches",
    "mem.remote_misses",
    "sync.lock_misses",
    "sync.barrier_waits",
    "dsm.faults",
    "dsm.diff_requests",
    "transport.retransmissions",
    "transport.timeouts",
    "transport.paced",
    "prefetch.issued",
    "prefetch.hits",
    "prefetch.shed",
)

#: Per-peer adaptive estimator series (adaptive runs only).
PEER_METRICS = (
    "srtt_us",
    "rttvar_us",
    "rto_us",
    "cwnd",
    "in_flight",
    "backlog",
    "parked",
)

#: Cluster-wide integer traffic deltas.
NETWORK_METRICS = ("net.messages", "net.bytes", "net.drops", "net.retransmits")


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling-plane configuration (``RunConfig(telemetry=...)``)."""

    #: Window width in simulated microseconds.
    interval_us: float = 5_000.0

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ConfigError(f"telemetry interval_us must be > 0, got {self.interval_us}")


class _NodeSeries:
    """Collected series for one node."""

    __slots__ = ("gauges", "deltas", "peers", "epochs", "last")

    def __init__(self) -> None:
        self.gauges: dict[str, list] = {name: [] for name in GAUGE_METRICS}
        self.deltas: dict[str, list] = {name: [] for name in DELTA_METRICS}
        #: peer id (str) -> metric -> series.
        self.peers: dict[str, dict[str, list]] = {}
        self.epochs: list[dict] = []
        #: Previous counter snapshot (dict metric -> value).
        self.last: dict[str, int] = {name: 0 for name in DELTA_METRICS}


class TelemetrySampler:
    """Collects the time series; attach to a runtime, then to the sim."""

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        #: Next window boundary in simulated microseconds.  The run loop
        #: checks this before every time advance.
        self.next_due: float = self.config.interval_us
        self._windows_done = 0
        self._window_ts: list[float] = []
        self._runtime = None
        self._nodes: list[_NodeSeries] = []
        self._net_last = {name: 0 for name in NETWORK_METRICS}
        self._net_deltas: dict[str, list] = {name: [] for name in NETWORK_METRICS}
        #: Per-node open barrier-epoch snapshot.
        self._epoch_open: list[dict] = []
        self._finalized: Optional[dict] = None

    # -- wiring ----------------------------------------------------------

    def attach(self, runtime) -> None:
        """Bind to a DsmRuntime's nodes/schedulers/transports."""
        self._runtime = runtime
        count = runtime.config.num_nodes
        self._nodes = [_NodeSeries() for _ in range(count)]
        self._epoch_open = [
            {"start": 0.0, "barrier": None, "stall0": 0.0, "switches0": 0, "busy0": 0.0}
            for _ in range(count)
        ]

    # -- sampling --------------------------------------------------------

    def advance_to(self, time: float) -> None:
        """Emit one sample per window boundary in ``(last, time]``.

        Called by the simulator run loop just before simulated time
        advances past ``next_due``; events at exactly the boundary have
        *not* run yet, so a window cleanly covers ``[W - interval, W)``.
        """
        interval = self.config.interval_us
        while self.next_due <= time:
            self._sample(self.next_due)
            self._windows_done += 1
            # Multiply, don't accumulate: repeated float addition would
            # drift the boundaries across long runs.
            self.next_due = interval * (self._windows_done + 1)

    def _sample(self, boundary: float) -> None:
        self._window_ts.append(boundary)
        runtime = self._runtime
        num_nodes = runtime.config.num_nodes
        for node_id in range(num_nodes):
            series = self._nodes[node_id]
            scheduler = runtime.schedulers[node_id]
            node = runtime.cluster.nodes[node_id]
            dsm = runtime.dsm_nodes[node_id]
            events = node.events
            runnable = 0
            blocked = 0
            for thread in scheduler.threads:
                state = thread.state
                if state is ThreadState.BLOCKED:
                    blocked += 1
                elif state is ThreadState.READY or state is ThreadState.RUNNING:
                    runnable += 1
            gauges = series.gauges
            gauges["sched.runnable"].append(runnable)
            gauges["sched.blocked"].append(blocked)
            gauges["sched.busy_us_total"].append(
                round(node.breakdown.times[Category.BUSY], 6)
            )
            gauges["sched.stall_us_total"].append(
                round(
                    events.remote_miss_stall
                    + events.remote_lock_stall
                    + events.barrier_stall,
                    6,
                )
            )
            gauges["dsm.wn_backlog"].append(dsm.backend.wn_log.total())
            gauges["dsm.diff_bytes_stored"].append(dsm.backend.diff_store.total_diff_bytes)
            gauges["dsm.intervals"].append(dsm.backend.vc[dsm.node_id])
            transport = node.transport
            for name, value in transport.gauges().items():
                gauges["transport." + name].append(value)
            engine = None
            if runtime.prefetch_engines:
                engine = runtime.prefetch_engines[node_id]
            current = {
                "sched.ctx_switches": events.context_switches,
                "mem.remote_misses": events.remote_misses,
                "sync.lock_misses": events.remote_lock_misses,
                "sync.barrier_waits": events.barrier_waits,
                "dsm.faults": dsm.faults,
                "dsm.diff_requests": dsm.diff_requests_served,
                "transport.retransmissions": events.retransmissions,
                "transport.timeouts": events.transport_timeouts,
                "transport.paced": events.messages_paced,
                "prefetch.issued": engine.stats.issued if engine else 0,
                "prefetch.hits": engine.stats.hits if engine else 0,
                "prefetch.shed": engine.stats.shed if engine else 0,
            }
            last = series.last
            for name in DELTA_METRICS:
                series.deltas[name].append(current[name] - last[name])
            series.last = current
            if transport.adaptive:
                self._sample_peers(series, transport, node_id, num_nodes)
        net = runtime.cluster.network.stats
        current_net = {
            "net.messages": net.total_messages,
            "net.bytes": net.total_bytes,
            "net.drops": net.total_drops,
            "net.retransmits": net.total_retransmits,
        }
        for name in NETWORK_METRICS:
            self._net_deltas[name].append(current_net[name] - self._net_last[name])
        self._net_last = current_net

    def _sample_peers(self, series, transport, node_id: int, num_nodes: int) -> None:
        parked = transport.parked_by_peer()
        for dst in range(num_nodes):
            if dst == node_id:
                continue
            # Every peer's track opens at the first sample, so all of
            # them stay window-aligned.
            track = series.peers.get(str(dst))
            if track is None:
                track = series.peers[str(dst)] = {name: [] for name in PEER_METRICS}
            # ``peer_gauges`` lists its values in PEER_METRICS order
            # (its ``queued`` is our ``backlog``); ``parked`` comes last.
            values = (*transport.peer_gauges(dst).values(), parked.get(dst, 0))
            for name, value in zip(PEER_METRICS, values):
                track[name].append(value)

    # -- barrier epochs --------------------------------------------------

    def on_barrier_epoch(self, node_id: int, barrier_id: int, episode: int) -> None:
        """Close the node's open epoch at a barrier release.

        Called from the barrier subsystem's release path (behind the
        sim's cached ``telemetry_on`` flag); pure observation.
        """
        self._close_epoch(node_id, self._runtime.cluster.sim.now, barrier_id, episode)

    def _close_epoch(self, node_id: int, now: float, barrier_id, episode) -> None:
        node = self._runtime.cluster.nodes[node_id]
        events = node.events
        open_ = self._epoch_open[node_id]
        stall = (
            events.remote_miss_stall + events.remote_lock_stall + events.barrier_stall
        )
        busy = node.breakdown.times[Category.BUSY]
        duration = now - open_["start"]
        record = {
            "barrier": barrier_id,
            "episode": episode,
            "start_us": round(open_["start"], 6),
            "end_us": round(now, 6),
            "stall_us": round(stall - open_["stall0"], 6),
            "switches": events.context_switches - open_["switches0"],
            "busy_us": round(busy - open_["busy0"], 6),
        }
        if duration > 0:
            record["stall_ratio"] = round((stall - open_["stall0"]) / duration, 6)
            record["switch_rate_per_ms"] = round(
                1000.0 * (events.context_switches - open_["switches0"]) / duration, 6
            )
        else:
            record["stall_ratio"] = 0.0
            record["switch_rate_per_ms"] = 0.0
        self._nodes[node_id].epochs.append(record)
        self._epoch_open[node_id] = {
            "start": now,
            "barrier": None,
            "stall0": stall,
            "switches0": events.context_switches,
            "busy0": busy,
        }

    # -- report section --------------------------------------------------

    def finalize(self, wall: float) -> dict:
        """Flush the tail window, grade the run, return the section.

        Idempotent: repeated calls return the same dict (the runtime
        builds the report once, but tests re-enter freely).
        """
        if self._finalized is not None:
            return self._finalized
        # The tail sample must cover everything through the *final*
        # simulated instant, not just the last scheduler's finish time:
        # trailing acks and timer pops after ``wall`` still move
        # counters that the report totals include.  Sampling at the
        # drained clock keeps the delta sums telescoping to the
        # end-of-run totals with no gap.
        tail = max(wall, self._runtime.cluster.sim.now)
        self._sample(tail)
        for node_id in range(len(self._nodes)):
            self._close_epoch(node_id, tail, -1, -1)
        nodes = {}
        for node_id, series in enumerate(self._nodes):
            entry: dict = {
                "gauges": series.gauges,
                "deltas": series.deltas,
            }
            if series.peers:
                entry["peers"] = {
                    key: series.peers[key] for key in sorted(series.peers, key=int)
                }
            entry["epochs"] = series.epochs
            nodes[str(node_id)] = entry
        section = {
            "version": TELEMETRY_SCHEMA_VERSION,
            "interval_us": self.config.interval_us,
            "windows": self._window_ts,
            "nodes": nodes,
            "network": {"deltas": self._net_deltas},
        }
        from repro.telemetry.watchdog import run_watchdogs

        section["findings"] = run_watchdogs(section)
        self._finalized = section
        return section


class NullTelemetry:
    """Shared no-op default: ``enabled`` is False, so the simulator's
    cached ``telemetry_on`` flag keeps the run loop check to a single
    attribute read."""

    enabled = False
    config = TelemetryConfig()
    #: Never due: the run loop's guard short-circuits on telemetry_on
    #: before reading this, but keep it safe anyway.
    next_due = float("inf")

    def advance_to(self, time: float) -> None:  # pragma: no cover - defensive
        pass

    def on_barrier_epoch(self, node_id, barrier_id, episode):  # pragma: no cover
        pass

    def finalize(self, wall: float) -> None:  # pragma: no cover - defensive
        return None


NULL_TELEMETRY = NullTelemetry()
