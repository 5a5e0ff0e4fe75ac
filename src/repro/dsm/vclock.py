"""Vector timestamps for lazy release consistency.

Each node numbers its own *intervals* (epochs between synchronization
points) with a local counter; a :class:`VectorClock` records, per node,
the highest interval the owner has seen.  A write notice for interval
``(proc, idx)`` is "news" to a node exactly when ``idx > vc[proc]``.

A scalar Lamport component rides along to order diff application: it is
bumped past every timestamp observed at synchronization, so it respects
the happened-before-1 partial order among intervals.
"""

from __future__ import annotations

from repro.errors import ProtocolError

__all__ = ["VectorClock"]


class VectorClock:
    """A per-node vector of interval counters."""

    def __init__(self, num_nodes: int, owner: int) -> None:
        if not 0 <= owner < num_nodes:
            raise ProtocolError(f"owner {owner} outside 0..{num_nodes - 1}")
        self.num_nodes = num_nodes
        self.owner = owner
        #: The components; the owner's moves only by :meth:`advance_own`, the
        #: others as a notice batch raises them in place.
        self.clock = [0] * num_nodes

    def __getitem__(self, node: int) -> int:
        return self.clock[node]

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.clock)

    def restore(self, snapshot: tuple[int, ...]) -> None:
        """Rewind to a checkpointed snapshot (coordinated recovery only)."""
        if len(snapshot) != self.num_nodes:
            raise ProtocolError(
                f"snapshot has {len(snapshot)} components, clock has {self.num_nodes}"
            )
        self.clock = list(snapshot)

    @property
    def size_bytes(self) -> int:
        """Wire size when piggybacked on a message."""
        return 4 * self.num_nodes

    def advance_own(self) -> int:
        """Close an interval: bump the owner's component; returns new index."""
        self.clock[self.owner] += 1
        return self.clock[self.owner]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VC(owner={self.owner}, {self.clock})"
