"""Discrete-event simulation kernel.

The kernel is a small, deterministic event-driven engine in the style of
SimPy: a :class:`Simulator` owns a time-ordered event heap, and
:class:`Event` objects are one-shot waitable values that callbacks (or
generator-based processes, see :mod:`repro.sim.process`) attach to.

Time is a ``float`` in **microseconds** throughout the library; this is
the natural unit for the paper, whose constants (140 us prefetch issue,
110 us context switch, millisecond-scale remote misses) all live in the
microsecond-to-millisecond range.

Hot-path design: every protocol action in a run funnels through this
module, so the kernel avoids interpreter overhead that higher layers
cannot buy back —

- heap entries are plain ``(time, seq, fn, args)`` tuples; ``schedule``
  never allocates a closure per call;
- zero-delay scheduling (process starts, same-tick wakeups)
  bypasses the heap entirely via a FIFO of "run at the current time"
  entries, preserving exact global (time, seq) ordering;
- :class:`Event` and its subclasses are ``__slots__``-based, and
  ``triggered`` is a plain attribute rather than a property;
- the run's tracer hangs off the simulator behind a cached
  ``*_on`` boolean, so a disabled tracer costs one attribute read per
  hook site.  Every analysis plane (profile, critical path,
  telemetry, sanitizer) reads the tracer's events after the
  run and takes no hook of its own.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "Condition", "AnyOf", "AllOf", "Simulator"]


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event starts *pending*; it is *triggered* exactly once, either by
    :meth:`succeed` (with an optional value) or :meth:`fail` (with an
    exception).  Callbacks added before the trigger run when it fires;
    callbacks added afterwards run immediately.
    """

    # Slot layout: the first six are the event machinery; the last two
    # are *stash* slots — the remote-miss classification other layers
    # pin on fetch events crossing process boundaries.  They are left
    # unset until first assignment; readers use
    # ``getattr(event, ..., default)``.
    __slots__ = (
        "sim",
        "name",
        "triggered",
        "_value",
        "_exception",
        "_callbacks",
        "needed_remote",
        "miss_counted",
    )

    _PENDING = object()

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self._value: Any = Event._PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["Event"], None]] = []

    # -- state ----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True once the event succeeded (not failed)."""
        return self._value is not Event._PENDING

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"event {self!r} has no value yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self.triggered = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.triggered = True
        self._exception = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- waiting --------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered the callback runs synchronously.
        """
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # A static name: formatting the delay per instance would cost an
        # f-string on one of the hottest allocation sites in a run.
        super().__init__(sim, name="timeout")
        sim.schedule(delay, self.succeed, value)  # rejects a negative or NaN delay


class Condition(Event):
    """Base for events composed from several child events.

    Conditions register one ``_check`` callback per child and *detach*
    from every still-pending child once the outcome is decided, so a
    triggered condition never leaves callback references behind (e.g.
    the losing timeout of a remote-miss-vs-timeout race).
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        if not self.events:
            raise SimulationError("condition requires at least one event")
        for event in self.events:
            if self.triggered:
                # A pre-triggered child already decided the outcome
                # synchronously; registering on the rest would only
                # leak callbacks.
                break
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Remove ``_check`` from every still-pending child."""
        check = self._check
        for event in self.events:
            if not event.triggered:
                try:
                    event._callbacks.remove(check)
                except ValueError:
                    pass


class AnyOf(Condition):
    """Succeeds when the first child event triggers.

    The value is the child event itself, so the waiter can learn *which*
    event fired and read its value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event)
        self._detach()


class AllOf(Condition):
    """Succeeds when every child event has triggered.

    The value is the list of child values, in construction order.
    """

    __slots__ = ("_counting", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        # _check calls arriving synchronously (pre-triggered children)
        # during construction must not count down or complete: the full
        # child list is not registered yet.
        self._counting = False
        super().__init__(sim, events)
        if self.triggered:  # a pre-triggered child had already failed
            return
        self._remaining = sum(1 for e in self.events if not e.triggered)
        self._counting = True
        if self._remaining == 0:
            self.succeed([e.value for e in self.events])

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            self._detach()
            return
        if not self._counting:
            return
        self._remaining -= 1
        if self._remaining <= 0:
            self.succeed([e.value for e in self.events])


class Simulator:
    """The event loop: a heap of ``(time, sequence, fn, args)`` entries.

    Ties at the same timestamp are broken by insertion order, which makes
    every run fully deterministic.  Zero-delay entries ride a separate
    FIFO (``_nowq``) and interleave with the heap by the same global
    (time, sequence) order — a pure O(1) fast path for the kernel's most
    common scheduling pattern (process starts and same-tick callbacks).

    The simulator also carries the run's tracer (``self.trace``): every
    layer owns a ``sim`` reference, so attaching it here gives the whole
    stack an instrumentation point without extra plumbing.  It is paired
    with a cached ``*_on`` boolean (kept in sync by the property
    setter), so the shared null default costs hook sites a single
    attribute read.  The run loop itself observes nothing.
    """

    def __init__(self) -> None:
        from repro.trace.tracer import NULL_TRACER  # deferred: keep sim dep-free

        #: Current simulated time in microseconds (read-only for users).
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._nowq: deque[tuple[int, Callable[..., Any], tuple]] = deque()
        self._sequence = itertools.count()
        self._handled = 0
        self.trace = NULL_TRACER
        #: Live (spawned, not yet finished/cancelled) processes, in spawn
        #: order.  Powers group cancellation and the deadlock watchdog.
        self._processes: dict[int, Any] = {}
        self._process_ids = itertools.count()

    # -- instrumentation attachment (cached enabled flag) ----------------

    @property
    def trace(self):
        return self._trace

    @trace.setter
    def trace(self, tracer) -> None:
        self._trace = tracer
        self.trace_on = bool(tracer.enabled)

    @property
    def events_handled(self) -> int:
        """Number of scheduled callbacks executed so far."""
        return self._handled

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` microseconds of simulated time."""
        if delay > 0:
            heapq.heappush(self._heap, (self.now + delay, next(self._sequence), fn, args))
        elif delay == 0:
            # Fast path: runs at the current time, after everything
            # already queued for it (the fresh sequence number is larger
            # than every pending entry's), so FIFO order is exact.
            self._nowq.append((next(self._sequence), fn, args))
        else:  # negative, or NaN (which would corrupt the heap's order)
            raise SimulationError(f"cannot schedule into the past (delay={delay})")

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time ``time``, for callers that
        computed the timestamp themselves (``now + (time - now)`` does not
        round-trip in floats).  Ordered exactly like ``schedule``."""
        if time > self.now:
            heapq.heappush(self._heap, (time, next(self._sequence), fn, args))
        elif time == self.now:
            self._nowq.append((next(self._sequence), fn, args))
        else:
            raise SimulationError(f"cannot schedule into the past (time={time}, now={self.now})")

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- process registry ------------------------------------------------

    def _register_process(self, process: Any) -> int:
        handle = next(self._process_ids)
        self._processes[handle] = process
        return handle

    def _unregister_process(self, handle: int) -> None:
        self._processes.pop(handle, None)

    def cancel_group(self, group: str) -> int:
        """Cancel every live process in ``group``; returns the count."""
        return self.cancel_groups((group,))

    def cancel_groups(self, groups: Iterable[str]) -> int:
        """Cancel every live process in any of ``groups``, two-phase.

        All victims are *marked* cancelled first, then every generator
        is closed (in spawn order).  The split matters: a ``finally``
        block in one victim may synchronously fire events that other
        victims wait on; marking first makes their ``_resume`` a no-op,
        so no protocol code runs mid-teardown.  Closing happens *now*,
        at a controlled point, instead of at an arbitrary future GC.
        """
        wanted = set(groups)
        victims = [p for p in self._processes.values() if p.group in wanted]
        for process in victims:
            process._mark_cancelled()
        for process in victims:
            process._close_generator()
        return len(victims)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap.

        Args:
            until: stop once simulated time would exceed this bound.
                Bounded runs always return exactly ``until`` (clamped up
                when the heap drains early), and never trip the deadlock
                watchdog — the caller deliberately truncated the run.
            max_events: safety valve against runaway simulations.

        Returns:
            The final simulated time.
        """
        heap = self._heap
        nowq = self._nowq
        pop = heapq.heappop
        handled = 0
        truncated = False
        try:
            while True:
                # Pick the globally next entry by (time, seq): _nowq
                # entries run at the current time with later sequence
                # numbers than anything already in the heap for it.
                if nowq:
                    use_heap = False
                    if heap:
                        head = heap[0]
                        if head[0] <= self.now and head[1] < nowq[0][0]:
                            use_heap = True
                elif heap:
                    use_heap = True
                else:
                    break
                if use_heap:
                    if until is not None and heap[0][0] > until:
                        truncated = True
                        break
                    time, _seq, fn, args = pop(heap)
                    if time < self.now:
                        raise SimulationError("event heap produced a time in the past")
                    self.now = time
                else:
                    _seq, fn, args = nowq.popleft()
                fn(*args)
                handled += 1
                if max_events is not None and handled >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
        finally:
            self._handled += handled
        if until is not None:
            # Bounded run: report the bound itself, whether the next
            # event lies beyond it or the heap drained early — the
            # caller asked for "simulate up to `until`", and downstream
            # accounting (end times, watchdogs) treats it that way.
            if self.now < until:
                self.now = until
            return self.now
        if not truncated:
            # Liveness watchdog (unbounded drains only): the heap
            # drained but processes are still blocked on events nobody
            # can trigger any more — a deadlock.  Daemon processes
            # (perpetual service loops) don't count.
            stuck = [p for p in self._processes.values() if not p.daemon]
            if stuck:
                waiters = ", ".join(
                    f"{p.name!r} waiting on {p.waiting_on_name()}" for p in stuck
                )
                raise SimulationError(
                    f"deadlock: event queue empty with blocked processes: {waiters}"
                )
        return self.now
