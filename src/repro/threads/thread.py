"""User-level thread objects."""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from repro.metrics.counters import StallKind
from repro.sim import Event

__all__ = ["ThreadState", "DsmThread"]


class ThreadState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class DsmThread:
    """One application thread: a generator plus scheduling state."""

    __slots__ = (
        "tid",
        "node_id",
        "body",
        "state",
        "pending_value",
        "wake_event",
        "stall_kind",
        "block_start",
        "run_accum",
        "op_continuation",
        "value_log",
        "total_blocks",
    )

    def __init__(self, tid: int, node_id: int, body: Generator) -> None:
        self.tid = tid
        self.node_id = node_id
        self.body = body
        self.state = ThreadState.READY
        #: value to send into the generator at next resume (Read results).
        self.pending_value: Any = None
        #: event whose trigger makes the thread runnable again.
        self.wake_event: Optional[Event] = None
        self.stall_kind: Optional[StallKind] = None
        self.block_start: float = 0.0
        #: busy time accumulated since the last long-latency event
        #: (feeds the paper's "average run length" statistic).
        self.run_accum: float = 0.0
        #: in-progress operation, resumed after an unblock (set by the
        #: scheduler; an op spanning several faults keeps its place).
        self.op_continuation: Optional[Generator] = None
        #: Every value fed into ``body.send`` so far (recorded only when
        #: the fault-tolerance layer is active).  Generators cannot be
        #: deep-copied, so checkpointing a thread means keeping its input
        #: log: replaying the log into a fresh body deterministically
        #: rebuilds the generator's internal state.
        self.value_log: list = []
        # lifetime statistics
        self.total_blocks = 0

    @property
    def is_ready(self) -> bool:
        return self.state is ThreadState.READY

    def block(self, wake_event: Event, kind: StallKind, now: float) -> None:
        self.state = ThreadState.BLOCKED
        self.wake_event = wake_event
        self.stall_kind = kind
        self.block_start = now
        self.total_blocks += 1

    def unblock(self) -> float:
        """Mark ready; returns nothing — stall accounting is the
        scheduler's job (it knows the wall clock)."""
        self.state = ThreadState.READY
        self.wake_event = None
        return self.block_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DsmThread {self.tid} on node {self.node_id} {self.state.value}>"
