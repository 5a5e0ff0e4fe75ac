"""Generator-based processes for the simulation kernel.

A *process* is a Python generator that yields :class:`~repro.sim.core.Event`
objects; the process resumes — receiving the event's value — when the
event triggers.  It may also yield a plain non-negative ``float``, a
*hold*: "resume me after this many microseconds", costing one heap entry
and no event object (``sim.timeout`` stays for waits that need a value
or take part in ``AnyOf``/``AllOf``).  Processes are themselves events,
succeeding with the generator's return value, so they compose (a process
can wait on another process, or on ``AllOf`` over several).

Example::

    def worker(sim):
        yield 5.0
        result = yield sim.timeout(3, value="done")
        return result

    sim = Simulator()
    proc = spawn(sim, worker(sim))
    sim.run()
    assert proc.value == "done"

Processes register with the simulator while alive, so the kernel can
(a) detect deadlock — every process blocked with an empty event heap —
and (b) cancel whole *groups* at once, which the fault-tolerance layer
uses to silence a crashed node's in-flight work.
"""

from __future__ import annotations

import contextlib
from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator

__all__ = ["Process", "spawn"]

ProcessGenerator = Generator[Event | float, Any, Any]


class Process(Event):
    """Wraps a generator; succeeds with the generator's return value."""

    __slots__ = (
        "_generator",
        "_waiting_on",
        "_cancelled",
        "group",
        "daemon",
        "_handle",
        "_wake",
        "_step",
    )

    def __init__(
        self,
        sim: Simulator,
        generator: ProcessGenerator,
        name: str = "",
        group: str = "",
        daemon: bool = False,
    ) -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Event | None = None
        self._cancelled = False
        #: Cancellation group (e.g. ``node3`` for everything a crash of
        #: node 3 must silence); empty string means ungrouped.
        self.group = group
        #: Daemon processes (infinite service loops, e.g. the failure
        #: detector's watch loop) are expected to outlive the workload
        #: and do not count as deadlocked when the event heap drains.
        self.daemon = daemon
        self._handle = sim._register_process(self)
        # One bound wake-up and one bound step method for the process's
        # whole life, not one per wait or hold; dropped at the end so they
        # leave no reference cycle.
        self._wake = self._on_event
        self._step = self._resume
        # Start on the next scheduler tick so the creator finishes its
        # own setup first (matches SimPy semantics).
        sim.schedule(0.0, self._step, None, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered and not self._cancelled

    def waiting_on_name(self) -> str:
        """Human-readable description of what blocks this process."""
        if self._waiting_on is None:
            return "<scheduler tick>"
        return self._waiting_on.name or type(self._waiting_on).__name__

    def _dispatch(self) -> None:
        self.sim._unregister_process(self._handle)
        self._wake = self._step = None
        super()._dispatch()

    def _resume(self, value: Any, exception: BaseException | None) -> None:
        generator = self._generator
        # Loop, not recurse: a process that yields an already-triggered
        # event continues in place with that event's outcome.
        while not (self.triggered or self._cancelled):
            try:
                if exception is not None:
                    target = generator.throw(exception)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # Propagate to waiters; a fire-and-forget process (nobody
                # waiting) must not die silently — crash the simulation.
                if self._callbacks:
                    self.fail(exc)
                    return
                self.sim._unregister_process(self._handle)
                raise
            if isinstance(target, float):
                # A hold takes its sequence number here, where the
                # ``Timeout`` it replaces took its own: same (time, seq).
                if target >= 0.0:  # false for NaN
                    self.sim.schedule(target, self._step, None, None)
                    return
            elif isinstance(target, Event):
                if not target.triggered:
                    self._waiting_on = target
                    target._callbacks.append(self._wake)
                    return
                value, exception = target._value, target._exception
                continue
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield "
                    "an Event or a non-negative float"
                )
            )
            return

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        self._resume(event._value, event._exception)

    # Cancellation is two phases, driven by ``Simulator.cancel_groups``:
    # mark, then close.  The process never succeeds nor fails — waiters
    # are abandoned, so it is reserved for teardown paths (crash
    # rollback) where the waiters are being discarded too.

    def _mark_cancelled(self) -> None:
        if self.triggered or self._cancelled:
            return
        self._cancelled = True
        self._waiting_on = None
        self._wake = self._step = None
        self.sim._unregister_process(self._handle)

    def _close_generator(self) -> None:
        """Close the generator *now*, so its ``finally`` blocks run at a
        deterministic point; any callbacks those blocks fire — and the
        pending step of a hold — land on a process already marked
        cancelled, whose ``_resume`` is a no-op."""
        if not self._cancelled:
            return
        with contextlib.suppress(Exception):
            self._generator.close()


def spawn(
    sim: Simulator,
    generator: ProcessGenerator,
    name: str = "",
    group: str = "",
    daemon: bool = False,
) -> Process:
    """Create and start a :class:`Process` from a generator."""
    return Process(sim, generator, name=name, group=group, daemon=daemon)
