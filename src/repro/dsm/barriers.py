"""Centralized barriers with write-notice exchange.

A barrier in TreadMarks is both a synchronization point and the moment
all-to-all consistency information flows: each arriving node performs an
LRC release, ships its new write notices (and vector clock) to the
barrier manager, and the manager's release message returns every notice
the node has not seen.

Multithreaded nodes *gather locally* (Section 4.1): only the last local
thread to arrive generates the remote arrival message, and all local
threads wake on the single release.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dsm.writenotice import wire_bytes
from repro.errors import ProtocolError
from repro.network import Message, MessageKind
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.protocol import DsmNode

__all__ = ["BarrierSubsystem"]

BARRIER_MANAGER = 0


@dataclass
class _NodeEpisode:
    """Local state for one barrier episode on one node."""

    arrived: int = 0
    waiters: list[Event] = field(default_factory=list)


@dataclass
class _ManagerEpisode:
    """Manager state for one barrier episode."""

    arrivals: int = 0
    node_vcs: dict[int, tuple[int, ...]] = field(default_factory=dict)


class BarrierSubsystem:
    """All barrier behaviour for one node."""

    def __init__(self, dsm: "DsmNode") -> None:
        self.dsm = dsm
        #: episode number per barrier id (local count of completed uses).
        self._episode: dict[int, int] = {}
        self._local: dict[tuple[int, int], _NodeEpisode] = {}
        self._manager: dict[tuple[int, int], _ManagerEpisode] = {}
        #: highest own interval index already shipped to the manager.
        self._own_sent_upto = 0

    @property
    def is_manager(self) -> bool:
        return self.dsm.node_id == BARRIER_MANAGER

    def _local_episode(self, barrier_id: int) -> tuple[tuple[int, int], _NodeEpisode]:
        episode = self._episode.setdefault(barrier_id, 0)
        key = (barrier_id, episode)
        return key, self._local.setdefault(key, _NodeEpisode())

    # -- thread-facing ------------------------------------------------------

    def op_arrive(self, barrier_id: int, local_thread_count: int):
        """Thread arrival (generator); returns the Event releasing it."""
        costs = self.dsm.node.costs
        key, episode = self._local_episode(barrier_id)
        episode.arrived += 1
        wake = Event(self.dsm.sim, name=f"barrier{barrier_id}@{self.dsm.node_id}")
        episode.waiters.append(wake)
        if self.dsm.sim.trace_on:
            tr = self.dsm.sim.trace
            tr.instant(
                self.dsm.sim.now,
                "protocol",
                "barrier_arrive",
                self.dsm.node_id,
                barrier=barrier_id,
                episode=self._episode[barrier_id],
                arrived=episode.arrived,
            )
        yield from self.dsm.occupy_dsm(costs.barrier_local_gather)
        if episode.arrived < local_thread_count:
            return wake
        if episode.arrived > local_thread_count:
            raise ProtocolError(
                f"barrier {barrier_id}: {episode.arrived} arrivals for "
                f"{local_thread_count} local threads"
            )
        # Last local thread: LRC release, then notify the manager.
        backend = self.dsm.backend
        yield from backend.close_interval_charged()
        own_new = backend.wn_log.own_notices_after(self.dsm.node_id, self._own_sent_upto)
        self._own_sent_upto = backend.vc[self.dsm.node_id]
        vc_snapshot = backend.vc.snapshot()
        if self.is_manager:
            yield from self._manager_arrival(
                barrier_id, self._episode[barrier_id], self.dsm.node_id, vc_snapshot, own_new
            )
        else:
            yield from self.dsm.post(
                BARRIER_MANAGER,
                MessageKind.BARRIER_ARRIVE,
                16 + backend.vc.size_bytes + wire_bytes(own_new),
                {
                    "barrier_id": barrier_id,
                    "episode": self._episode[barrier_id],
                    "vc": vc_snapshot,
                    "notices": own_new,
                },
                "arrive",
                barrier=barrier_id,
                episode=self._episode[barrier_id],
            )
        return wake

    # -- message handlers ----------------------------------------------------

    def handle_arrive(self, msg: Message):
        yield from self.dsm.occupy_dsm(self.dsm.node.costs.barrier_handler)
        yield from self._manager_arrival(
            msg.payload["barrier_id"],
            msg.payload["episode"],
            msg.src,
            msg.payload["vc"],
            msg.payload["notices"],
        )

    def _manager_arrival(self, barrier_id, episode, src, vc_snapshot, notices):
        if not self.is_manager:
            raise ProtocolError(f"node {self.dsm.node_id} received a barrier arrival")
        key = (barrier_id, episode)
        state = self._manager.setdefault(key, _ManagerEpisode())
        if src in state.node_vcs:
            raise ProtocolError(f"duplicate barrier arrival from node {src}")
        state.arrivals += 1
        state.node_vcs[src] = vc_snapshot
        # Merge the arriving notices into the manager's log (free of
        # charge beyond the handler cost already paid).  The manager's
        # own vector clock must NOT advance here: these notices are only
        # *applied* (clock + invalidations) by its own release, so its
        # release computation below still sees them as unseen.
        wn_log = self.dsm.backend.wn_log
        wn_log.merge(notices)
        if self.dsm.sim.trace_on:
            # The episode's first gather opens its arrival-skew window.
            self.dsm.sim.trace.instant(
                self.dsm.sim.now,
                "protocol",
                "barrier_gather",
                self.dsm.node_id,
                barrier=barrier_id,
                episode=episode,
                src=src,
                backlog=wn_log.total(),
            )
        if state.arrivals < self.dsm.num_nodes:
            return
        # Everyone is (provably) blocked at the barrier, cluster-wide:
        # this is the one globally quiescent instant, which makes it the
        # consistent cut for coordinated checkpoints.  The first instant
        # emitted from here (the checkpoint's or its stand-down's, else
        # ``barrier_release``) closes the episode's arrival-skew window;
        # a recovery replay re-enters via :meth:`resume_release`, never
        # here.
        ft = self.dsm.ft
        if ft is not None and ft.wants_checkpoint(barrier_id, episode):
            yield from ft.coordinated_checkpoint(barrier_id, episode, dict(state.node_vcs))
        yield from self._release_all(barrier_id, episode, state)

    def _release_all(self, barrier_id, episode, state):
        """Fan the release (and unseen notices) out to every node.

        Factored out of :meth:`_manager_arrival` so recovery can *replay*
        the fan-out: rolling back to the barrier cut re-runs exactly this
        loop, re-sending every node the write notices it was missing.
        """
        if self.dsm.sim.trace_on:
            tr = self.dsm.sim.trace
            # The global release instant: the critical path's epoch
            # boundaries.
            tr.instant(
                self.dsm.sim.now,
                "protocol",
                "barrier_release",
                self.dsm.node_id,
                barrier=barrier_id,
                episode=episode,
            )
        wn_log = self.dsm.backend.wn_log
        for node_id, node_vc in state.node_vcs.items():
            # Per iteration, not hoisted: a send yields, and the log can
            # grow meanwhile (the manager's own threads may be running).
            missing = wn_log.unseen_by(node_vc)
            if node_id == self.dsm.node_id:
                yield from self._apply_release(barrier_id, episode, missing)
            else:
                yield from self._post_release(node_id, barrier_id, episode, missing)
        del self._manager[(barrier_id, episode)]

    def _post_release(self, dst: int, barrier_id: int, episode: int, missing: list):
        """Send ``dst`` its release with the notices it has not seen.

        One labelled edge per waiter: the release fan-out is fully
        enumerated in the trace, so the PAG knows every message this
        barrier episode unblocked.
        """
        return self.dsm.post(
            dst,
            MessageKind.BARRIER_RELEASE,
            24 + wire_bytes(missing),
            {"barrier_id": barrier_id, "episode": episode, "notices": missing},
            "release",
            barrier=barrier_id,
            episode=episode,
        )

    def resume_release(self, barrier_id: int, episode: int):
        """Replay the release fan-out after a rollback to this episode's cut."""
        state = self._manager.get((barrier_id, episode))
        if state is None or state.arrivals < self.dsm.num_nodes:
            raise ProtocolError(
                f"cannot resume release of incomplete episode ({barrier_id}, {episode})"
            )
        yield from self._release_all(barrier_id, episode, state)

    def handle_release(self, msg: Message):
        yield from self.dsm.occupy_dsm(self.dsm.node.costs.barrier_handler)
        yield from self._apply_release(
            msg.payload["barrier_id"], msg.payload["episode"], msg.payload["notices"]
        )

    def _apply_release(self, barrier_id: int, episode: int, notices):
        """Apply invalidations and wake every local thread."""
        yield from self.dsm.backend.apply_notices_charged(notices)
        key = (barrier_id, episode)
        state = self._local.get(key)
        if state is None:
            raise ProtocolError(f"barrier release for unknown episode {key}")
        self._episode[barrier_id] = episode + 1
        waiters = state.waiters
        del self._local[key]
        if self.dsm.sim.trace_on:
            tr = self.dsm.sim.trace
            tr.instant(
                self.dsm.sim.now,
                "protocol",
                "barrier_resume",
                self.dsm.node_id,
                barrier=barrier_id,
                episode=episode,
                waiters=len(waiters),
            )
        for wake in waiters:
            wake.succeed(None)

    # -- checkpoint / recovery ----------------------------------------------

    def snapshot_state(self) -> dict:
        """Barrier state at the checkpoint cut.

        Waiter events are deliberately NOT captured: recovery rebuilds
        the threads and re-registers a fresh wake event per thread via
        :meth:`register_restored_waiter`.
        """
        return {
            "episode": dict(self._episode),
            "own_sent_upto": self._own_sent_upto,
            "local": {key: ep.arrived for key, ep in self._local.items()},
            "manager": {
                key: (ms.arrivals, dict(ms.node_vcs)) for key, ms in self._manager.items()
            },
        }

    def restore_state(self, snap: dict) -> None:
        self._episode = dict(snap["episode"])
        self._own_sent_upto = snap["own_sent_upto"]
        self._local = {
            key: _NodeEpisode(arrived=arrived) for key, arrived in snap["local"].items()
        }
        self._manager = {
            key: _ManagerEpisode(arrivals=arrivals, node_vcs=dict(vcs))
            for key, (arrivals, vcs) in snap["manager"].items()
        }

    def register_restored_waiter(self, barrier_id: int) -> Event:
        """Re-attach a rebuilt thread to its in-progress barrier episode."""
        key = (barrier_id, self._episode[barrier_id])
        state = self._local.get(key)
        if state is None:
            raise ProtocolError(f"no in-progress barrier episode {key} to rejoin")
        wake = Event(self.dsm.sim, name=f"barrier{barrier_id}@{self.dsm.node_id}")
        state.waiters.append(wake)
        return wake
