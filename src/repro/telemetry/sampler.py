"""The sim-time flight recorder: windowed series folded from the trace.

:func:`section_from_events` reads a run's trace once, in stream order,
and samples every ``interval_us`` of *simulated* time the gauges and
counter deltas across the whole stack — scheduler occupancy, DSM
protocol state, prefetch activity, and the adaptive transport's
estimator — into per-node time series.  Like the profile and the
critical path it is a reader of the trace: the simulator holds no
telemetry hook, ``RunConfig(telemetry=...)`` records an in-memory trace
for it, and the series are identical across repeated runs and
``--jobs N``.

A sample at boundary ``W`` covers ``[W - interval, W)``: the state
after every event that happened strictly before ``W`` and none at or
after it.  The events carry what changes the state where it changes —
a stall span says whether its memory stall counted as a remote miss,
the write-notice instants carry the log's size, each change of the
transport's queues carries the queues, and after a ``recover`` each
layer traces what the rollback restored — so a window's values are the
stream's, not an estimate.  The final (usually partial) window closes
at the drained clock, so summing a delta series always reconciles
exactly with the end-of-run counter totals.

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
- *epochs* — per-barrier-episode stall/switch accounting, closed by each
  node's barrier release (once it has woken its waiters) rather than the
  sampling clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.network.message import MessageKind

__all__ = [
    "TelemetryConfig",
    "section_from_events",
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
        # The chained comparison is false for NaN too; an infinite width
        # would close one window and is not standard JSON either.
        if not 0 < self.interval_us < math.inf:
            raise ConfigError(
                f"telemetry interval_us must be finite and > 0, got {self.interval_us}"
            )


#: A peer's values before its first tracked send (``peer_gauges``'
#: placeholders, nothing parked).
_NO_PEER = (-1.0, 0.0, 0.0, 0.0, 0, 0, 0)
#: The counter of each stall kind, in the order its stall accumulators
#: (``remote_miss_stall``, ``remote_lock_stall``, ``barrier_stall``) add.
_STALLS = {
    "memory": "mem.remote_misses",
    "lock": "sync.lock_misses",
    "barrier": "sync.barrier_waits",
}
#: The events that move a sampled value, by name (each name belongs to
#: one category): an instant that only counts maps to its counter.
_ROUTES = {
    "context_switch": "sched.ctx_switches",
    "diff_serve": "dsm.diff_requests",
    "transport_timeout": "transport.timeouts",
    "transport_paced": "transport.paced",
    "prefetch_page": "prefetch.issued",
    "prefetch_hit": "prefetch.hits",
    "prefetch_shed": "prefetch.shed",
    "msg_drop": "net.drops",
    "interval_close": "notices",
    "write_notices": "notices",
    "barrier_gather": "notices",
    "busy": "busy",
    "thread_exit": "thread_exit",
    "page_fault": "page_fault",
    "diff_create": "diff_create",
    "lrc_restore": "notices",
    "barrier_resume": "barrier_resume",
    "retransmit": "retransmit",
    "recover": "recover",
    **{f"stall:{kind}": "stall" for kind in _STALLS},
    **{f"msg:{kind.value}": "message" for kind in MessageKind},
    **dict.fromkeys(
        ("track", "settle", "cwnd_halved", "retries_exhausted", "unpark", "restore"), "queues"
    ),
}


class _Node:
    """One node's state after the events read so far, and its series."""

    def __init__(self, peers: list[int]) -> None:
        self.blocked = self.done = 0
        self.busy = 0.0
        self.stalls = dict.fromkeys(_STALLS, 0.0)
        self.counts = dict.fromkeys(DELTA_METRICS, 0)
        self.last = dict(self.counts)
        #: The gauges events set outright, in GAUGE_METRICS order.
        self.state = dict.fromkeys(GAUGE_METRICS[4:], 0)
        self.peers = dict.fromkeys(peers, _NO_PEER)
        #: (start, stall, switches, busy) when the open epoch began.
        self.epoch = (0.0, 0.0, 0, 0.0)
        #: [barrier, episode, wakes to go] of a release still waking.
        self.releasing = None
        self.series: dict = {
            "gauges": {name: [] for name in GAUGE_METRICS},
            "deltas": {name: [] for name in DELTA_METRICS},
        }
        if peers:
            self.series["peers"] = {str(dst): {name: [] for name in PEER_METRICS} for dst in peers}
        self.series["epochs"] = []

    def stall(self) -> float:
        miss, lock, barrier = self.stalls.values()
        return miss + lock + barrier

    def sample(self, threads: int) -> None:
        gauges = (
            threads - self.blocked - self.done,
            self.blocked,
            round(self.busy, 6),
            round(self.stall(), 6),
            *self.state.values(),
        )
        for series, value in zip(self.series["gauges"].values(), gauges):
            series.append(value)
        for name, value in self.counts.items():
            self.series["deltas"][name].append(value - self.last[name])
        self.last = dict(self.counts)
        for dst, peer in self.peers.items():
            for series, value in zip(self.series["peers"][str(dst)].values(), peer):
                series.append(value)

    def close_epoch(self, now: float, barrier: int, episode: int) -> None:
        start, stall0, switches0, busy0 = self.epoch
        stall, switches = self.stall(), self.counts["sched.ctx_switches"]
        stalled, switched, duration = stall - stall0, switches - switches0, now - start
        self.series["epochs"].append(
            {
                "barrier": barrier,
                "episode": episode,
                "start_us": round(start, 6),
                "end_us": round(now, 6),
                "stall_us": round(stalled, 6),
                "switches": switched,
                "busy_us": round(self.busy - busy0, 6),
                "stall_ratio": round(stalled / duration, 6) if duration > 0 else 0.0,
                "switch_rate_per_ms": (
                    round(1000.0 * switched / duration, 6) if duration > 0 else 0.0
                ),
            }
        )
        self.epoch = (now, stall, switches, self.busy)


def section_from_events(events, config, wall: float, end: float) -> dict:
    """The ``telemetry`` report section of a run, folded from its trace.

    ``config`` is the run's :class:`~repro.api.runtime.RunConfig`,
    ``wall`` its wall time and ``end`` the simulated clock once drained.
    An event happens at its timestamp, a cpu slice at its end (where
    ``occupy`` charges it).  The tail window closes at ``max(wall,
    end)``: trailing acks and timers after ``wall`` still move counters
    the report totals include.
    """
    count, threads = config.num_nodes, config.threads_per_node
    adaptive = config.transport.adaptive
    nodes = [_Node([dst for dst in range(count) if dst != n and adaptive]) for n in range(count)]
    # A stall blocks its thread exactly when the scheduler switches on
    # it; otherwise the thread waits inline, still runnable.
    blocks = dict.fromkeys(_STALLS, threads > 1 and config.policy.switch_on_sync)
    blocks["memory"] = threads > 1 and config.policy.switch_on_memory
    opened: dict = {}  # open stall spans: (node, tid) -> begin
    net = dict.fromkeys(NETWORK_METRICS, 0)
    last = dict(net)
    network = {name: [] for name in NETWORK_METRICS}
    windows: list[float] = []
    interval = config.telemetry.interval_us

    def sample(boundary: float) -> None:
        windows.append(boundary)
        for node in nodes:
            node.sample(threads)
        for name, value in net.items():
            network[name].append(value - last[name])
        last.update(net)

    def advance(at: float) -> None:
        # Multiply, don't accumulate: repeated float addition would
        # drift the boundaries across long runs.
        while interval * (len(windows) + 1) <= at:
            sample(interval * (len(windows) + 1))

    for event in events:
        route = _ROUTES.get(event.name)
        if route is None:
            continue
        advance(event.ts + event.dur)
        node, args = nodes[event.node], event.args
        # Most frequent first: message spans, then queue changes.
        if route == "message":
            if event.ph == "b":  # the span's begin: the wire accepted it
                net["net.messages"] += 1
                net["net.bytes"] += args["bytes"]
        elif route == "queues":
            node.state.update(zip(GAUGE_METRICS[7:], args["gauges"]))
            if node.peers:
                node.peers[args["dst"]] = args["peer"]
        elif route in node.counts:
            node.counts[route] += 1
        elif route in net:
            net[route] += 1
        elif route == "busy":
            node.busy += event.dur
        elif route == "stall":
            kind = event.name[6:]
            if event.ph == "B":
                opened[event.node, event.tid] = event.ts
                node.blocked += blocks[kind]
                continue
            begun = opened.pop((event.node, event.tid), None)
            if begun is None:
                continue  # closed by the restart after ``recover``: counts nothing
            node.blocked -= blocks[kind]
            if not args["miss"]:
                continue  # a memory stall the prefetch heap or a shared fetch served
            node.counts[_STALLS[kind]] += 1
            node.stalls[kind] += event.ts - begun
            # A barrier release closes the epoch once it has woken its
            # waiters: each wake ends one barrier stall at its instant.
            if kind == "barrier" and node.releasing is not None:
                node.releasing[2] -= 1
                if not node.releasing[2]:
                    node.close_epoch(event.ts, *node.releasing[:2])
                    node.releasing = None
        elif route == "notices":
            # The log's size after a change, with the interval count and
            # the stored diff bytes when those changed too.
            node.state["dsm.wn_backlog"] = args["backlog"]
            if "index" in args:
                node.state["dsm.intervals"] = args["index"]
            if "stored" in args:
                node.state["dsm.diff_bytes_stored"] = args["stored"]
        elif route == "diff_create":
            node.state["dsm.diff_bytes_stored"] += args["size"]
        elif route == "page_fault" and event.ph == "b":
            node.counts["dsm.faults"] += 1
        elif route == "barrier_resume":
            if args["waiters"]:
                node.releasing = [args["barrier"], args["episode"], args["waiters"]]
            else:
                node.close_epoch(event.ts, args["barrier"], args["episode"])
        elif route == "retransmit":
            node.counts["transport.retransmissions"] += 1
            net["net.retransmits"] += 1
        elif route == "thread_exit":
            node.done += 1
        elif route == "recover":
            # The rollback rebuilds every thread runnable and empties
            # every queue; each transport and LRC log then traces what
            # it restored (``restore``, ``lrc_restore``).
            opened.clear()
            for node in nodes:
                node.blocked = node.done = 0
                node.state.update(dict.fromkeys(GAUGE_METRICS[7:], 0))
                node.peers = dict.fromkeys(node.peers, _NO_PEER)
    advance(end)
    tail = max(wall, end)
    sample(tail)
    for node in nodes:
        node.close_epoch(tail, -1, -1)
    section = {
        "version": TELEMETRY_SCHEMA_VERSION,
        "interval_us": interval,
        "windows": windows,
        "nodes": {str(index): node.series for index, node in enumerate(nodes)},
        "network": {"deltas": network},
    }
    from repro.telemetry.watchdog import run_watchdogs

    section["findings"] = run_watchdogs(section)
    return section
