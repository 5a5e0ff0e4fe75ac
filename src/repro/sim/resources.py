"""Queueing resources for the simulation kernel.

:class:`Resource` is a counted resource with a FIFO (optionally
priority-ordered) wait queue; it models a node's CPU.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A counted resource with a priority wait queue.

    ``acquire`` returns an :class:`Event` that succeeds when a unit is
    granted; the holder must call ``release`` exactly once per grant.
    Lower ``priority`` values are served first; ties are FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._acquire_name = f"acquire({name})"
        self._in_use = 0
        self._queue: list[tuple[int, int, Event, float]] = []  # (priority, seq, grant, since)
        self._sequence = itertools.count()
        # Occupancy statistics.
        self.total_wait_time = 0.0
        self.total_grants = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def try_acquire(self) -> bool:
        """Take a unit in place if one is free and nobody queues.

        The event-free twin of an immediate :meth:`acquire` grant: same
        ``in_use`` / ``total_grants`` accounting, zero wait.  Returns
        False — having changed nothing — under contention.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.total_grants += 1
            return True
        return False

    def acquire(self, priority: int = 0) -> Event:
        event = Event(self.sim, name=self._acquire_name)
        if self.try_acquire():
            event.succeed(self)
        else:
            heapq.heappush(self._queue, (priority, next(self._sequence), event, self.sim.now))
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._queue and self._in_use < self.capacity:
            _prio, _seq, event, requested_at = heapq.heappop(self._queue)
            self._in_use += 1
            self.total_grants += 1
            self.total_wait_time += self.sim.now - requested_at
            event.succeed(self)
