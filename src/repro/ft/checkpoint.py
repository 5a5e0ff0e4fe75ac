"""In-simulation checkpoint store for coordinated recovery.

A checkpoint is a *consistent cut* of the whole cluster.  The only
globally quiescent instant the protocol offers is the moment the barrier
manager counts the final arrival: every application thread, on every
node, is provably blocked at the barrier and no protocol operation (page
fetch, diff flush, lock movement) can be in flight.  All checkpoints are
taken there (plus one *initial* checkpoint before the schedulers start,
so a crash before the first barrier is also recoverable).

Application threads are Python generators and cannot be deep-copied;
their checkpointed form is the node's *input log* — every value the
scheduler has fed into ``body.send`` — which a replay into a fresh body
deterministically reconstructs (see ``NodeScheduler.rebuild_thread``).

Only the most recent checkpoint is retained (coordinated rollback never
needs an older one); cumulative counts and bytes are kept for the run
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["NodeCheckpoint", "ClusterCheckpoint"]


def _value_bytes(value: Any) -> int:
    """Approximate stable-storage size of one logged thread input."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    return 8


@dataclass
class NodeCheckpoint:
    """One node's slice of a cluster checkpoint."""

    node_id: int
    #: Full protocol-state snapshot from ``DsmNode.snapshot_state`` —
    #: page contents, twins, vector clock, interval/write-notice/diff
    #: archives, lock and barrier state.
    dsm: dict
    #: ``ReliableTransport.snapshot_state`` result.
    transport: dict
    #: ``(tid, value_log_copy)`` per local thread, in tid order.
    thread_logs: list
    #: Approximate bytes written to stable storage for this node.
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = self._measure()

    def _measure(self) -> int:
        # Keyed with .get(): the snapshot layout is backend-specific.
        # The LRC family contributes twins, lamport watermarks, diff
        # archives and write-notice logs; the SC backend instead has
        # per-page modes and directory entries; every backend has page
        # contents and a vector clock (inert under SC).
        total = 0
        for arr in self.dsm["pages"].values():
            total += arr.nbytes
        for snap in self.dsm.get("coherence", {}).values():
            if snap["twin"] is not None:
                total += snap["twin"].nbytes
            if snap["word_lamports"] is not None:
                # The modelled stable-storage format holds one stamp
                # per byte; the in-memory array keeps one per 8-byte word.
                total += 8 * snap["word_lamports"].nbytes
        diff_store = self.dsm.get("diff_store")
        if diff_store is not None:
            for diffs in diff_store["by_page"].values():
                total += sum(d.diff.size_bytes for d in diffs)
        wn_log = self.dsm.get("wn_log")
        if wn_log is not None:
            # Stable storage keeps the flat form: one 16-byte (proc,
            # interval, lamport, page) entry per write notice.
            total += 16 * wn_log["total"]
        # SC: one byte per recorded page mode, one word per directory
        # owner plus one per copyset member.
        total += len(self.dsm.get("page_modes", ()))
        for entry in self.dsm.get("directory", {}).values():
            total += 4 + 4 * len(entry["copyset"])
        # HLRC: the home's applied-vector per hosted page.
        for covers in self.dsm.get("home_applied", {}).values():
            total += 4 * len(covers)
        total += 4 * len(self.dsm["vc"])
        for _tid, values in self.thread_logs:
            total += sum(_value_bytes(v) for v in values)
        return total


@dataclass
class ClusterCheckpoint:
    """A coordinated snapshot of every node at one consistent cut."""

    #: ``"initial"`` (before the schedulers start) or ``"barrier"``.
    kind: str
    #: Barrier identity of the cut (``-1`` for the initial checkpoint).
    barrier_id: int
    episode: int
    taken_at: float
    #: Each node's vector clock as carried by its barrier arrival.
    node_vcs: list = field(default_factory=list)
    nodes: list = field(default_factory=list)
    #: Deep copy of ``Program.snapshot_local()`` — node-local program
    #: state that lives outside the DSM (see that method's docs).
    program_local: Any = None

    @property
    def size_bytes(self) -> int:
        return sum(n.size_bytes for n in self.nodes)
