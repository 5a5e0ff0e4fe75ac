"""Crash execution, coordinated checkpointing, and recovery.

The :class:`FtManager` is the runtime's fault-tolerance brain.  It

- executes the :class:`~repro.network.faults.NodeCrash` schedule: at the
  crash instant the node's links go silent (``Network.mark_down``) and
  every simulation process it owns — message handlers, in-flight
  fetches, its scheduler, its heartbeat sender — is cancelled as a
  group, freezing its threads mid-flight;
- takes **coordinated checkpoints** at barrier cuts.  The barrier
  manager calls in at the one globally quiescent instant (final arrival
  counted, release not yet sent); the manager snapshots every node's
  protocol state, transport state, and thread input logs into the
  in-simulation checkpoint store;
- runs the **membership state machine**: a confirmed suspicion first
  *fences* the node (``FT_DOWN``, data-plane traffic rejected both ways
  at the network while acks/heartbeats/membership still flow).  If the
  node then shows evidence of life — a partition healed, a stall ended —
  it *rejoins*: unfenced, announced back (``FT_UP`` to the survivors,
  ``FT_REJOIN`` to the node), and every message the transports had
  given up on is revived.  That is the whole re-sync: the LRC protocol
  pulls state lazily, and no barrier completed without the node, so
  nothing else was missed.  Only when ``PARTITION_GRACE_US`` expires
  with no sign of life is the node treated as crashed for real;
- drives **recovery**: after the restart delay the coordinator rolls
  *every* node back to the last checkpoint (a new cluster incarnation
  fences all in-flight traffic of the discarded execution), replays the
  barrier release fan-out — which re-delivers exactly the write notices
  each node was missing — and announces recovery (``FT_UP``).
- guards the **checkpoint cut**: a cut is refused while any node is
  fenced or the coordinator lacks a quorum of recently-heard peers — a
  committed checkpoint must never span a split brain.  A coordinator
  stranded in a minority partition therefore stands down: it neither
  fences the (healthy) majority nor moves the rollback target.

Determinism: the rollback restores protocol state byte-for-byte and
rebuilds threads by replaying their logged inputs, so a run with a given
``(seed, crash plan)`` is exactly reproducible, and the post-recovery
execution computes the same application result as a fault-free run.
"""

from __future__ import annotations

import contextlib
import copy
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigError, FailureError
from repro.ft.checkpoint import ClusterCheckpoint, NodeCheckpoint
from repro.ft.detector import COORDINATOR, FailureDetector, mark
from repro.metrics.counters import Category
from repro.network import transport as reliable
from repro.network.message import Message, MessageKind
from repro.sim import spawn

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.runtime import DsmRuntime

__all__ = ["FtManager"]

#: Payload bytes of a membership announcement.
_ANNOUNCE_BYTES = 32

# Checkpoint and recovery timings, read at use time so a test can
# ``monkeypatch`` one.

#: How long a fenced node may stay fenced awaiting a partition heal
#: before the coordinator gives up and rolls the cluster back.
PARTITION_GRACE_US = 100_000.0

#: Take a coordinated checkpoint every Nth global barrier release.
CHECKPOINT_EVERY = 1

#: Delay between declaring a node dead and restarting the cluster
#: from the checkpoint (models reboot + rejoin).
RESTART_DELAY_US = 20_000.0

#: CPU cost per byte snapshotted at a checkpoint (models copying
#: pages/twins/diffs to stable storage).
CHECKPOINT_CPU_PER_BYTE = 0.0005

#: CPU cost per byte restored during recovery.
RESTORE_CPU_PER_BYTE = 0.001


class FtManager:
    """Owns crash injection, the checkpoint store, and recovery."""

    def __init__(self, runtime: "DsmRuntime") -> None:
        self.runtime = runtime
        self.cluster = runtime.cluster
        self.sim = runtime.cluster.sim
        self.num_nodes = runtime.cluster.num_nodes
        self.detector = FailureDetector(self)
        #: Most recent coordinated checkpoint (rollback target).
        self.checkpoint: Optional[ClusterCheckpoint] = None
        self._barrier_count = 0
        self._crash_time: dict[int, float] = {}
        #: When each currently fenced node was fenced (drives the
        #: rejoin-evidence comparison and the partition grace clock).
        self.fenced_at: dict[int, float] = {}
        self._program = None
        # run statistics (surface in RunReport.extra["ft"])
        self.crashes = 0
        self.detections = 0
        self.recoveries = 0
        self.fences = 0
        self.rejoins = 0
        self.stand_downs = 0
        self.checkpoints = 0
        self.checkpoints_stood_down = 0
        self.checkpoint_bytes = 0
        self.messages_revived = 0
        self.downtime_us = 0.0
        self.recovery_us = 0.0

        plan = self.cluster.fault_plan
        crash_schedule = plan.crashes if plan is not None else ()
        for crash in crash_schedule:
            if crash.node == COORDINATOR:
                raise FailureError(
                    "node 0 cannot crash: it hosts the barrier manager "
                    "and the failure-detection coordinator"
                )
            if not 0 <= crash.node < self.num_nodes:
                raise ConfigError(
                    f"crash schedules unknown node {crash.node} "
                    f"(cluster has {self.num_nodes})"
                )
        self._crash_schedule = crash_schedule

        # Wire into the stack.
        for dsm in runtime.dsm_nodes:
            dsm.ft = self
        coordinator = self.cluster.nodes[COORDINATOR]
        coordinator.message_observer = (
            lambda msg: self.detector.observe(COORDINATOR, msg)
        )
        for transport in self.cluster.transports:
            reporter = transport.node.node_id
            transport.on_give_up = (
                lambda dst, msg, _src=reporter: self.detector.on_give_up(_src, dst, msg)
            )
        if runtime.config.transport.adaptive:
            # Suspicion must key off when transports actually stop
            # trying.  The adaptive give-up is a wall deadline
            # (GIVE_UP_US), not the static retry ladder the suspicion
            # timeout was calibrated against — a node silent for less
            # than the give-up deadline may simply be behind a
            # congested link the transports are still probing.
            self.detector.silence_timeout_us = max(
                self.detector.silence_timeout_us, reliable.GIVE_UP_US
            )
        for scheduler in runtime.schedulers:
            scheduler.record_values = True

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while any node's workload is unfinished."""
        return any(s.finished_at is None for s in self.runtime.schedulers)

    def start(self, program) -> None:
        """Take the initial checkpoint, arm the crash schedule, and
        spawn the detection processes.

        Called by the runtime after ``setup`` and thread creation, right
        before the schedulers start: an early crash then has a rollback
        target (the pristine cluster).
        """
        self._program = program
        self.take_initial_checkpoint()
        for crash in self._crash_schedule:
            self.sim.schedule(crash.at_us, self._crash_node, crash.node)
        self._spawn_heartbeats()
        spawn(self.sim, self.detector.watch_loop(), name="ft.watch", group="ft", daemon=True)

    def _spawn_heartbeats(self) -> None:
        for node_id in self.detector.last_heard:
            spawn(
                self.sim,
                self.detector.heartbeat_loop(node_id),
                name=f"ft.heartbeat[{node_id}]",
                group=f"node{node_id}",
                daemon=True,
            )

    # -- crash execution ---------------------------------------------------

    def _crash_node(self, node_id: int) -> None:
        """The crash instant: silence the links, cancel the node's work."""
        network = self.cluster.network
        if not self.active or network.is_down(node_id):
            return
        self.crashes += 1
        self._crash_time[node_id] = self.sim.now
        network.mark_down(node_id)
        cancelled = self.sim.cancel_group(f"node{node_id}")
        mark(self.sim, "crash", node_id, cancelled_processes=cancelled)

    # -- membership state machine ------------------------------------------

    def membership_tick(self, dead: list):
        """One watch-loop tick of the membership state machine.

        ``dead`` are the detector's newly matured suspicions.  They are
        *fenced*, not executed: a fenced node that speaks again (the
        partition healed, the stall ended) rejoins with a targeted
        re-sync, and only a fence left silent past
        ``PARTITION_GRACE_US`` becomes a real recovery.  A fenced node
        heard again rejoins first: a rejoin only grows the membership.
        Everything else is gated on the coordinator holding a quorum —
        stranded in a minority partition it stands down and waits for
        the heal instead of fencing the healthy majority, and when
        crashes leave no majority possible it raises
        :class:`FailureError` rather than wait forever.
        """
        for node_id, at in sorted(self.fenced_at.items()):
            if self.detector.last_heard[node_id] > at:
                self._rejoin(node_id)
        if (dead or self.fenced_at) and not self.detector.has_quorum():
            # No majority can ever form once the crashed members are as
            # many as the live nodes plus the coordinator: only a
            # recovery restarts a crashed node, and a recovery needs a
            # majority (a fenced live node rejoins once heard).
            crashed = self._crash_time.keys()
            if len(crashed - self.detector.down) >= self.num_nodes - len(crashed):
                raise FailureError("crashes leave no majority to recover with")
            self.stand_downs += 1
            mark(
                self.sim,
                "stand_down",
                COORDINATOR,
                pending=sorted(dead),
                fenced=sorted(self.fenced_at),
            )
            return
        for node_id in dead:
            self.fence(node_id)
        expired = [
            node_id
            for node_id, at in sorted(self.fenced_at.items())
            if self.sim.now - at >= PARTITION_GRACE_US
        ]
        if expired:
            yield from self.recover(expired)

    def fence(self, node_id: int) -> None:
        """Remove a confirmed suspect from the membership — reversibly.

        The network rejects the suspect's data-plane traffic in both
        directions (its writes must not leak into the cluster, nor the
        cluster's into it) while acks, heartbeats and membership
        messages still flow, so a partitioned-not-dead node can later
        prove it healed.  Survivors learn via ``FT_DOWN``.
        """
        now = self.sim.now
        self.detections += 1
        self.fences += 1
        self.fenced_at[node_id] = now
        self.detector.mark_dead(node_id)
        self.cluster.network.fence_node(node_id)
        mark(
            self.sim,
            "fence",
            COORDINATOR,
            suspect=node_id,
            latency_us=now - self._crash_time.get(node_id, now),
        )
        self._announce(MessageKind.FT_DOWN, node_id)

    def _tell(self, peer: int, kind: MessageKind, payload: dict) -> None:
        """One membership datagram from the coordinator (unreliable, like
        the heartbeats: a lost one is repaired by the next verdict)."""
        self.cluster.network.send(
            Message(
                src=COORDINATOR,
                dst=peer,
                kind=kind,
                size_bytes=_ANNOUNCE_BYTES,
                payload=payload,
            )
        )

    def _announce(self, kind: MessageKind, node_id: int) -> None:
        """Tell every other survivor that ``node_id`` left (``FT_DOWN``)
        or is back (``FT_UP``)."""
        for peer in range(self.num_nodes):
            if peer != COORDINATOR and peer != node_id:
                self._tell(peer, kind, {"node": node_id})

    def _rejoin(self, node_id: int) -> None:
        """A fenced node spoke after its fencing: take it back.

        The fence is lifted, the survivors are told (``FT_UP``), the
        node gets the authoritative membership (``FT_REJOIN``), and
        every message any transport had given up on involving it is put
        back in flight.  That revival *is* the state re-sync: LRC pulls
        data lazily and no barrier completed without the node, so the
        retried traffic is exactly what it missed.
        """
        self.rejoins += 1
        fenced_for = self.sim.now - self.fenced_at.pop(node_id)
        self.cluster.network.unfence_node(node_id)
        self.detector.mark_alive(node_id)
        mark(self.sim, "rejoin", COORDINATOR, member=node_id, fenced_us=round(fenced_for, 3))
        self._announce(MessageKind.FT_UP, node_id)
        self._tell(node_id, MessageKind.FT_REJOIN, {"down": sorted(self.detector.down)})
        for transport in self.cluster.transports:
            if transport.node.node_id == node_id:
                self.messages_revived += transport.revive_all()
            else:
                self.messages_revived += transport.revive(node_id)

    # -- checkpointing -----------------------------------------------------

    def wants_checkpoint(self, barrier_id: int, episode: int) -> bool:
        """Barrier-manager callback at each complete global arrival."""
        self._barrier_count += 1
        return self._barrier_count % CHECKPOINT_EVERY == 0

    def take_initial_checkpoint(self) -> None:
        """Checkpoint the pristine cluster before the schedulers start.

        A crash before the first barrier then rolls back to a fresh
        start.  Taken at t=0 outside any process, so the stable-storage
        cost is not modelled (it overlaps application startup).
        """
        zero_vcs = [[0] * self.num_nodes for _ in range(self.num_nodes)]
        self.checkpoint = self._build_checkpoint("initial", -1, -1, zero_vcs)

    def coordinated_checkpoint(self, barrier_id: int, episode: int, node_vcs: dict):
        """Snapshot every node at the barrier cut (runs in the manager's
        arrival handler, before the release fan-out).

        The checkpoint is built — and installed as the rollback target —
        *synchronously*, before its CPU cost elapses: a crash landing
        inside the cost window must still find the new checkpoint valid,
        because the cut it captures precedes the crash.

        The cut is *refused* while any node is fenced or the coordinator
        lacks a quorum: a committed checkpoint must never span a split
        brain.  Refusal keeps the previous rollback target; the barrier
        release proceeds and the next clean barrier checkpoints.  The
        sanitizer checks the outcome from the trace: every committed
        cut holds a barrier arrival from every node.
        """
        if self.fenced_at or not self.detector.has_quorum():
            self.checkpoints_stood_down += 1
            mark(
                self.sim,
                "checkpoint_stood_down",
                COORDINATOR,
                barrier=barrier_id,
                episode=episode,
                fenced=sorted(self.fenced_at),
            )
            return
        vcs = [list(node_vcs[n]) for n in range(self.num_nodes)]
        ckpt = self._build_checkpoint("barrier", barrier_id, episode, vcs)
        self.checkpoint = ckpt
        self.checkpoints += 1
        self.checkpoint_bytes += ckpt.size_bytes
        mark(
            self.sim,
            "checkpoint",
            COORDINATOR,
            barrier=barrier_id,
            episode=episode,
            bytes=ckpt.size_bytes,
        )
        costs = self._charge_all(ckpt, Category.CHECKPOINT, CHECKPOINT_CPU_PER_BYTE)
        slowest = max(costs)
        if slowest > 0:
            # Every node writes its snapshot in parallel; the barrier
            # release waits for the slowest writer.
            yield self.sim.timeout(slowest)

    def _charge_all(self, ckpt: ClusterCheckpoint, category: Category, per_byte: float) -> list:
        """Every node pays for its share of ``ckpt``, all in parallel
        from now; returns the costs in node order."""
        now = self.sim.now
        costs = [per_byte * node_ckpt.size_bytes for node_ckpt in ckpt.nodes]
        for node_ckpt, cost in zip(ckpt.nodes, costs):
            self.cluster.nodes[node_ckpt.node_id].charge(category, cost, now)
        return costs

    def _build_checkpoint(
        self, kind: str, barrier_id: int, episode: int, node_vcs: list
    ) -> ClusterCheckpoint:
        ckpt = ClusterCheckpoint(
            kind=kind,
            barrier_id=barrier_id,
            episode=episode,
            taken_at=self.sim.now,
            node_vcs=node_vcs,
            program_local=copy.deepcopy(self._program.snapshot_local()),
        )
        transports = self.cluster.transports
        for node_id in range(self.num_nodes):
            dsm = self.runtime.dsm_nodes[node_id]
            scheduler = self.runtime.schedulers[node_id]
            thread_logs = [
                (
                    t.tid,
                    [v.copy() if isinstance(v, np.ndarray) else v for v in t.value_log],
                )
                for t in scheduler.threads
            ]
            ckpt.nodes.append(
                NodeCheckpoint(
                    node_id=node_id,
                    dsm=dsm.snapshot_state(),
                    transport=transports[node_id].snapshot_state(),
                    thread_logs=thread_logs,
                )
            )
        return ckpt

    # -- recovery ----------------------------------------------------------

    def recover(self, dead: list):
        """Final verdict → coordinated rollback → resume.

        Runs in the coordinator's watch loop (group ``ft``, which the
        rollback never cancels).  The nodes arrive here already fenced
        — detection accounting and the ``FT_DOWN`` broadcast happened
        in :meth:`fence` — with their partition grace expired: the
        membership layer has given up on a heal.  Several fences
        expiring in one tick recover together in a single rollback.
        """
        ckpt = self.checkpoint
        sim = self.sim
        t_detect = sim.now
        for node_id in dead:
            self.cluster.network.unfence_node(node_id)
            self.fenced_at.pop(node_id, None)
            self.detector.mark_dead(node_id)
            mark(
                sim,
                "declare_dead",
                COORDINATOR,
                suspect=node_id,
                latency_us=t_detect - self._crash_time.get(node_id, t_detect),
            )
        # Reboot + rejoin of the crashed machines.
        yield sim.timeout(RESTART_DELAY_US)
        mark(
            sim,
            "recover",
            COORDINATOR,
            nodes=list(dead),
            checkpoint=ckpt.kind,
            barrier=ckpt.barrier_id,
            episode=ckpt.episode,
            # The sanitizer's interval ceilings rewind to each node's vc
            # at the cut as *snapshotted* — not the vcs the barrier
            # arrivals carried: a node can close one more interval after
            # its own arrival (serving a mid-interval flush) and before
            # the cut.
            vcs=[list(node_ckpt.dsm["vc"]) for node_ckpt in ckpt.nodes],
        )
        self._rollback(ckpt, dead, sim.now)
        # The slowest node's state restore gates the resume.
        costs = self._charge_all(ckpt, Category.RECOVERY, RESTORE_CPU_PER_BYTE)
        for cost in costs:
            # Not ``sum``: it compensates float error from Python 3.12 on,
            # and the report keeps this addition order on every version.
            self.recovery_us += cost
        if max(costs) > 0:
            yield sim.timeout(max(costs))
        # Detection state: everyone just restarted, all silence excused.
        self._spawn_heartbeats()
        self.detector.reset_liveness()
        for node_id in dead:
            self.detector.mark_alive(node_id)
            self._announce(MessageKind.FT_UP, node_id)
        self.recoveries += 1
        if ckpt.kind == "barrier":
            # Replay the barrier release fan-out from the cut: every node
            # re-receives exactly the write notices it was missing.
            barriers = self.runtime.dsm_nodes[COORDINATOR].barriers
            spawn(
                sim,
                barriers.resume_release(ckpt.barrier_id, ckpt.episode),
                name="ft.resume_release",
                group=f"node{COORDINATOR}",
            )

    def _rollback(self, ckpt: ClusterCheckpoint, dead: list, t_rollback: float) -> None:
        """Rewind the whole cluster to the checkpoint cut (synchronous)."""
        sim = self.sim
        network = self.cluster.network
        # New incarnation first: anything still in flight — including
        # deliveries scheduled for this very timestamp — belongs to the
        # discarded execution and must be fenced out.
        network.incarnation += 1
        for node_id in dead:
            network.mark_up(node_id)
        # Silence every node's in-flight work before touching state: a
        # cancelled handler's ``finally`` must not run protocol code
        # against half-restored structures (two-phase, see cancel_groups).
        sim.cancel_groups([f"node{n}" for n in range(self.num_nodes)])
        transports = self.cluster.transports
        for node_ckpt in ckpt.nodes:
            node_id = node_ckpt.node_id
            node = self.cluster.nodes[node_id]
            scheduler = self.runtime.schedulers[node_id]
            # Close the discarded threads' generators *now*, while the
            # CPU resource they may hold is still the old one: a GC-time
            # close would run ``occupy``'s release against the fresh
            # (idle) resource and die noisily.
            for stale in scheduler.threads:
                if stale.op_continuation is not None:
                    with contextlib.suppress(Exception):
                        stale.op_continuation.close()
                with contextlib.suppress(Exception):
                    stale.body.close()
            node.reset_cpu()
            self.runtime.dsm_nodes[node_id].restore_state(node_ckpt.dsm)
            transports[node_id].restore_state(node_ckpt.transport)
            if self.runtime.prefetch_engines:
                self.runtime.prefetch_engines[node_id].reset_volatile()
            # Downtime: the crashed machine was dead from the crash
            # instant until this resume.  (Survivor idle between the
            # crash and the rollback is uncharged — their schedulers
            # were cancelled mid-measurement; see README.)
            if node_id in self._crash_time:
                down = t_rollback - self._crash_time[node_id]
                node.charge(Category.DOWNTIME, down, self._crash_time.pop(node_id))
                self.downtime_us += down
            # Rebuild the threads from fresh bodies + logged inputs.
            threads = [
                scheduler.rebuild_thread(
                    tid, self._program.thread_body(self.runtime, tid), values
                )
                for tid, values in node_ckpt.thread_logs
            ]
            scheduler.restart(threads)
        # Program-level node-local state LAST: the replays above re-ran
        # the bodies' local mutations (double-applying accumulations);
        # reinstalling the checkpointed copy discards those re-runs.  A
        # fresh deep copy each time keeps the stored checkpoint pristine
        # for a possible second rollback to the same cut.
        self._program.restore_local(copy.deepcopy(ckpt.program_local))

    # -- message plumbing --------------------------------------------------

    def handle_message(self, node_id: int, msg: Message):
        """DSM dispatch route for HEARTBEAT / FT_DOWN / FT_UP / FT_REJOIN.

        Heartbeat liveness is already absorbed by the coordinator's
        ``message_observer`` before any handler runs, so only membership
        announcements change anything: the receiving node's view.
        """
        self.detector.handle_membership(node_id, msg)
        return
        yield  # pragma: no cover - makes this a generator for dispatch

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Fault-tolerance facts for ``RunReport.extra['ft']``."""
        return {
            "crashes": self.crashes,
            "detections": self.detections,
            "recoveries": self.recoveries,
            "fences": self.fences,
            "rejoins": self.rejoins,
            "stand_downs": self.stand_downs,
            "suspicions": self.detector.suspicions,
            "suspicions_cleared": self.detector.suspicions_cleared,
            "checkpoints": self.checkpoints,
            "checkpoints_stood_down": self.checkpoints_stood_down,
            "checkpoint_bytes": self.checkpoint_bytes,
            "messages_revived": self.messages_revived,
            "heartbeats": self.detector.heartbeats_sent,
            "downtime_us": round(self.downtime_us, 3),
            "recovery_us": round(self.recovery_us, 3),
        }
