"""Structured event tracing for the simulator and protocol stack.

The paper's analysis lives and dies on *where time goes*; the aggregate
counters (:mod:`repro.metrics`) answer "how much", this module answers
"in what order".  A :class:`Tracer` collects typed :class:`TraceEvent`
records from instrumentation hooks threaded through the simulator
kernel, the DSM protocol, the thread scheduler, the prefetch engine and
the network/transport layers.

Design constraints:

- **Zero overhead when off.**  Every call site is guarded by a single
  attribute check (``if tracer.enabled:``); the default tracer is the
  module-level :data:`NULL_TRACER` whose ``enabled`` is ``False``, so
  an untraced run pays one boolean load per potential event and builds
  no event objects.
- **Cheap when on.**  An event is a tuple (:class:`TraceEvent` is a
  ``NamedTuple``), and each helper appends one through the list's bound
  ``append`` without running the tuple's generated ``__new__``.
- **Observe, never perturb.**  Emitting an event appends to a Python
  list; no RNG draws, no simulator scheduling, no shared mutable
  protocol state.  A traced run must produce a bit-identical
  :class:`~repro.metrics.report.RunReport` (there is a determinism
  guard test for this).
- **Keep everything.**  The profile (:mod:`repro.profile`) and the
  critical path (:mod:`repro.critpath`) are folds over the whole
  stream, so the tracer never filters or discards an event.

Phases follow the Chrome ``trace_event`` vocabulary so export is a
straight mapping: ``X`` complete slices (with duration), ``B``/``E``
begin/end pairs, ``i`` instants, and ``b``/``e`` async pairs (used for
in-flight messages and request/reply round trips, which render as
arrows/spans in Perfetto).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple, Optional

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


class TraceEvent(NamedTuple):
    """One structured event, stamped with simulated time.

    Attributes:
        ts: simulated time in microseconds.
        ph: Chrome trace phase (``X``, ``B``, ``E``, ``i``, ``b``, ``e``).
        cat: ``cpu`` (CPU/idle time charges, named by their metrics
            category), ``protocol`` (faults, diffs, notices, locks,
            barriers), ``network`` (message lifecycle), ``transport``
            (timeouts, retransmits, dedup), ``sched`` (stalls, context
            switches), ``prefetch`` or ``ft`` (crash, detection,
            checkpoint, recovery).
        name: event name (e.g. ``page_fault``, ``busy``, ``msg:diff_request``).
        node: originating node id.
        tid: application thread id for thread-scoped events, else ``None``
            (the event lands on the node's protocol/cpu track).
        dur: duration in microseconds (``X`` events only).
        id: correlation id for async pairs (``b``/``e``).
        args: small JSON-friendly payload (page ids, byte counts, ...).
    """

    ts: float
    ph: str
    cat: str
    name: str
    node: int
    tid: Optional[int] = None
    dur: float = 0.0
    id: Optional[str] = None
    args: Optional[dict[str, Any]] = None

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON form (the JSONL exporter's row format)."""
        row: dict[str, Any] = {
            "ts": self.ts,
            "ph": self.ph,
            "cat": self.cat,
            "name": self.name,
            "node": self.node,
        }
        if self.tid is not None:
            row["tid"] = self.tid
        if self.ph == "X":
            row["dur"] = self.dur
        if self.id is not None:
            row["id"] = self.id
        if self.args:
            row["args"] = self.args
        return row

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> TraceEvent:
        """The event a trace file's row describes (:meth:`as_dict`'s
        inverse); absent keys take the defaults."""
        get = row.get
        return cls(
            get("ts", 0.0), get("ph"), get("cat"), get("name"), get("node", 0),
            get("tid"), get("dur", 0.0), get("id"), get("args"),
        )


_new = tuple.__new__


class Tracer:
    """Collects :class:`TraceEvent` records from instrumentation hooks.

    The tracer is attached to the :class:`~repro.sim.Simulator` (as
    ``sim.trace``) so every layer that owns a ``sim`` reference can
    reach it without extra plumbing; ``ts`` is stamped by the caller
    from ``sim.now``.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        #: Records one event.  The helpers below pass it a tuple built
        #: by ``tuple.__new__``, which skips :class:`TraceEvent`'s
        #: generated keyword-handling ``__new__``.
        self.emit = self._events.append

    # -- collection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> Iterable[TraceEvent]:
        return self._events

    # -- typed emit helpers ------------------------------------------------

    def instant(
        self, ts: float, cat: str, name: str, node: int, tid: Optional[int] = None, **args: Any
    ) -> None:
        self.emit(_new(TraceEvent, (ts, "i", cat, name, node, tid, 0.0, None, args or None)))

    def slice(
        self, ts: float, dur: float, cat: str, name: str, node: int,
        tid: Optional[int] = None, **args: Any,
    ) -> None:
        """A complete (``X``) slice starting at ``ts`` lasting ``dur``."""
        self.emit(_new(TraceEvent, (ts, "X", cat, name, node, tid, dur, None, args or None)))

    def begin(
        self, ts: float, cat: str, name: str, node: int, tid: Optional[int] = None, **args: Any
    ) -> None:
        self.emit(_new(TraceEvent, (ts, "B", cat, name, node, tid, 0.0, None, args or None)))

    def end(
        self, ts: float, cat: str, name: str, node: int, tid: Optional[int] = None, **args: Any
    ) -> None:
        self.emit(_new(TraceEvent, (ts, "E", cat, name, node, tid, 0.0, None, args or None)))

    def async_begin(
        self, ts: float, cat: str, name: str, node: int, id: str,
        tid: Optional[int] = None, **args: Any,
    ) -> None:
        self.emit(_new(TraceEvent, (ts, "b", cat, name, node, tid, 0.0, id, args or None)))

    def async_end(
        self, ts: float, cat: str, name: str, node: int, id: str,
        tid: Optional[int] = None, **args: Any,
    ) -> None:
        self.emit(_new(TraceEvent, (ts, "e", cat, name, node, tid, 0.0, id, args or None)))

    # -- export convenience (implemented in repro.trace.export) ------------

    def chrome_trace(
        self,
        critpath: Optional[dict[str, Any]] = None,
        telemetry: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        from repro.trace.export import chrome_trace

        return chrome_trace(self.events, critpath=critpath, telemetry=telemetry)

    def write_chrome(
        self,
        path: str,
        critpath: Optional[dict[str, Any]] = None,
        telemetry: Optional[dict[str, Any]] = None,
    ) -> None:
        from repro.trace.export import write_chrome_trace

        write_chrome_trace(self.events, path, critpath=critpath, telemetry=telemetry)

    def write_jsonl(self, path: str) -> None:
        from repro.trace.export import write_jsonl

        write_jsonl(self.events, path)

    def timeline(self):
        from repro.trace.timeline import PhaseTimeline

        return PhaseTimeline.from_events(self.events)


class NullTracer(Tracer):
    """The default tracer: collects nothing, costs one attribute check.

    Instrumented call sites are written as::

        tr = self.sim.trace
        if tr.enabled:
            tr.instant(...)

    so with the null tracer installed the per-event cost is a single
    boolean load and branch.  The helpers are still no-ops (not errors)
    as a second line of defence: ``emit`` discards what they build.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self.emit = _discard


def _discard(event: TraceEvent) -> None:
    """The null tracer's ``emit`` (a function, so the tracer still pickles)."""


#: Shared do-nothing tracer; installed on every Simulator by default.
NULL_TRACER = NullTracer()
