"""The per-node user-level thread scheduler.

One scheduler process per node runs application threads and interprets
their operations against the DSM.  The scheduling policy is the paper's:
a thread switch happens on *long-latency events* only — remote memory
misses and/or remote synchronization, depending on which technique is
enabled:

==================  =================  ================
configuration       switch on memory   switch on sync
==================  =================  ================
single-threaded     (no other thread)  (no other thread)
multithreading      yes                yes
combined (nTP)      no (prefetch it)   yes
==================  =================  ================

When no thread is runnable the node idles; the idle interval (minus any
CPU time message handlers consumed during it) is attributed to the stall
kind of the thread whose wake-up ends it — producing the paper's
"Memory Miss Idle" vs "Synchronization Idle" split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from repro.api.ops import Acquire, Barrier, Compute, Op, Prefetch, Read, Release, Write
from repro.errors import ProgramError
from repro.machine.node import Node
from repro.metrics.counters import Category, StallKind
from repro.sim import Event, spawn
from repro.threads.thread import DsmThread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.protocol import DsmNode
    from repro.prefetch.engine import PrefetchEngine

__all__ = ["SchedulingPolicy", "WaitRequest", "NodeScheduler"]

#: Longest stretch (us) of a ``Compute`` op a thread holds the CPU for
#: before message handlers queued behind it get their turn.
COMPUTE_QUANTUM = 250.0


@dataclass(frozen=True)
class SchedulingPolicy:
    """Which long-latency events cause a thread switch."""

    switch_on_memory: bool = True
    switch_on_sync: bool = True

    @staticmethod
    def single_threaded() -> "SchedulingPolicy":
        return SchedulingPolicy(switch_on_memory=False, switch_on_sync=False)

    @staticmethod
    def multithreaded() -> "SchedulingPolicy":
        return SchedulingPolicy(switch_on_memory=True, switch_on_sync=True)

    @staticmethod
    def sync_only() -> "SchedulingPolicy":
        """The combined scheme: prefetching owns memory latency."""
        return SchedulingPolicy(switch_on_memory=False, switch_on_sync=True)


@dataclass(frozen=True)
class WaitRequest:
    """Yielded by op execution when the thread must wait for an event."""

    event: Event
    kind: StallKind


class NodeScheduler:
    """Runs this node's threads against the DSM."""

    def __init__(
        self,
        node: Node,
        dsm: "DsmNode",
        policy: SchedulingPolicy,
    ) -> None:
        self.node = node
        self.dsm = dsm
        self.policy = policy
        self.threads: list[DsmThread] = []
        self.prefetch: Optional["PrefetchEngine"] = None
        #: Log every value sent into thread bodies (fault tolerance on):
        #: the logs are what checkpointing a generator-based thread means.
        self.record_values = False
        self._last_run: Optional[DsmThread] = None
        self._ready_signal: Optional[Event] = None
        self._last_woken: Optional[DsmThread] = None
        self._rr = 0
        self.finished_at: Optional[float] = None
        self.done_event: Optional[Event] = None
        #: Trace-only thread segment counters (tid -> segment index): a
        #: context_switch instant names the segment it ends and the one
        #: it starts, so offline analysis can link thread segments into
        #: causal chains.  Touched only under trace_on.
        self._segments: dict[int, int] = {}
        #: Trace stall spans currently open, as (kind, tid) pairs, so a
        #: crash rollback can close the spans its cancellations orphan.
        self._open_stalls: list[tuple[StallKind, int]] = []

    # -- setup -------------------------------------------------------------

    def add_thread(self, thread: DsmThread) -> None:
        if thread.node_id != self.node.node_id:
            raise ProgramError(
                f"thread {thread.tid} belongs to node {thread.node_id}, "
                f"not node {self.node.node_id}"
            )
        self.threads.append(thread)

    def start(self) -> Event:
        """Spawn the scheduler process; returns its completion event."""
        if not self.threads:
            raise ProgramError(f"node {self.node.node_id} has no threads")
        self.node.mt_mode = len(self.threads) > 1
        self.done_event = spawn(
            self.node.sim,
            self._main(),
            name=f"sched[{self.node.node_id}]",
            group=f"node{self.node.node_id}",
        )
        return self.done_event

    def restart(self, threads: list[DsmThread]) -> Event:
        """Replace the thread set and spawn a fresh scheduler process.

        Used by crash recovery after the old scheduler process (and its
        threads) were cancelled: the rebuilt threads take over and a new
        ``done_event`` supersedes the abandoned one.
        """
        # Close the stall spans the discarded threads left open (their
        # wake callbacks will never fire), so exported traces keep
        # balanced begin/end pairs.  None is open unless tracing is on,
        # and these ends count nothing.
        # These ends follow the rollback's ``recover`` instant, and the
        # profile never samples a stall still open there.
        for kind, tid in list(self._open_stalls):
            self._trace_stall(False, kind, tid)
        self._segments = {}
        self.threads = threads
        self._last_run = None
        self._ready_signal = None
        self._last_woken = None
        self._rr = 0
        self.finished_at = None
        return self.start()

    @property
    def local_thread_count(self) -> int:
        return len(self.threads)

    # -- main loop -----------------------------------------------------------

    def _main(self) -> Generator:
        while True:
            thread = self._next_ready()
            if thread is None:
                blocked = [t for t in self.threads if t.state is ThreadState.BLOCKED]
                if not blocked:
                    break  # every thread is done
                yield from self._idle_until_wakeup()
                continue
            yield from self._dispatch(thread)
        if self.node.sim.trace_on:
            # Causal end-of-node marker: the PAG takes the run's wall
            # clock as the latest sched_finish across nodes (trailing
            # transport acks may still occupy the CPU afterwards, but
            # they are off the application's critical path by definition).
            self.node.sim.trace.instant(
                self.node.sim.now, "sched", "sched_finish", self.node.node_id
            )
        self.finished_at = self.node.sim.now

    def _next_ready(self) -> Optional[DsmThread]:
        n = len(self.threads)
        for step in range(n):
            candidate = self.threads[(self._rr + step) % n]
            if candidate.is_ready:
                self._rr = (self._rr + step + 1) % n
                return candidate
        return None

    def _idle_until_wakeup(self) -> Generator:
        """No runnable thread: wait, then attribute the idle time."""
        sim = self.node.sim
        t_start = sim.now
        charged_start = self.node.breakdown.charged_cpu
        self._ready_signal = Event(sim, name=f"ready@{self.node.node_id}")
        self._last_woken = None
        yield self._ready_signal
        woken = self._last_woken
        self._ready_signal = None
        kind = woken.stall_kind if woken is not None and woken.stall_kind else StallKind.MEMORY
        self._charge_idle(t_start, charged_start, kind)

    def _charge_idle(self, t_start: float, charged_start: float, kind: StallKind) -> None:
        """Attribute the wait since ``t_start``, minus the CPU time
        message handlers consumed during it, to ``kind``'s idle category."""
        sim = self.node.sim
        interval = sim.now - t_start
        handler_time = self.node.breakdown.charged_cpu - charged_start
        idle = max(0.0, interval - handler_time)
        self.node.charge(kind.idle_category, idle, sim.now - idle)

    # -- blocking/waking -------------------------------------------------------

    def _begin_stall(self, thread: DsmThread) -> None:
        self.node.events.record_run_length(thread.run_accum)
        thread.run_accum = 0.0

    def _end_stall(
        self, thread: DsmThread, kind: StallKind, started: float, event: Optional[Event] = None
    ) -> bool:
        """Count the stall that ends now; False for a memory stall that
        was no remote miss (the closing trace span says which)."""
        stall = self.node.sim.now - started
        events = self.node.events
        if kind is StallKind.MEMORY:
            if event is not None and not getattr(event, "needed_remote", False):
                # Satisfied locally (prefetch heap): a fault, not a miss.
                events.cache_faults += 1
                return False
            if event is not None and getattr(event, "miss_counted", False):
                # Several local threads sharing one fetch (request
                # combining) are ONE remote miss, as in the paper's
                # Table 2 accounting.
                return False
            if event is not None:
                event.miss_counted = True
            events.remote_misses += 1
            events.remote_miss_stall += stall
        elif kind is StallKind.LOCK:
            events.remote_lock_misses += 1
            events.remote_lock_stall += stall
        else:
            events.barrier_waits += 1
            events.barrier_stall += stall
        return True

    def _trace_stall(self, begin: bool, kind: StallKind, tid: int, **args) -> None:
        """Open or close thread ``tid``'s ``stall:<kind>`` span, keeping
        ``_open_stalls`` in step; the tracer's guard for all of them."""
        sim = self.node.sim
        if not sim.trace_on:
            return
        emit, track = (
            (sim.trace.begin, self._open_stalls.append)
            if begin
            else (sim.trace.end, self._open_stalls.remove)
        )
        emit(sim.now, "sched", f"stall:{kind.value}", self.node.node_id, tid=tid, **args)
        track((kind, tid))

    def _block(self, thread: DsmThread, request: WaitRequest) -> None:
        self._begin_stall(thread)
        thread.block(request.event, request.kind, self.node.sim.now)
        self._trace_stall(True, request.kind, thread.tid)

        def on_wake(_event: Event) -> None:
            started = thread.block_start
            thread.unblock()
            miss = self._end_stall(thread, request.kind, started, request.event)
            self._trace_stall(False, request.kind, thread.tid, miss=miss)
            if self._ready_signal is not None and not self._ready_signal.triggered:
                self._last_woken = thread
                self._ready_signal.succeed(None)

        request.event.add_callback(on_wake)

    def _inline_wait(self, thread: DsmThread, request: WaitRequest) -> Generator:
        """Wait without switching (single-threaded, or policy says so)."""
        self._begin_stall(thread)
        sim = self.node.sim
        t_start = sim.now
        charged_start = self.node.breakdown.charged_cpu
        self._trace_stall(True, request.kind, thread.tid)
        yield request.event
        miss = self._end_stall(thread, request.kind, t_start, request.event)
        self._trace_stall(False, request.kind, thread.tid, miss=miss)
        self._charge_idle(t_start, charged_start, request.kind)

    def _should_switch(self, kind: StallKind) -> bool:
        if len(self.threads) <= 1:
            return False
        if kind is StallKind.MEMORY:
            return self.policy.switch_on_memory
        return self.policy.switch_on_sync

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, thread: DsmThread) -> Generator:
        if (
            self._last_run is not None
            and self._last_run is not thread
            and len(self.threads) > 1
        ):
            yield from self.node.occupy(self.node.costs.context_switch, Category.MT)
            self.node.events.context_switches += 1
            if self.node.sim.trace_on:
                tr = self.node.sim.trace
                # Segment links: the switch ends from_tid's current
                # segment and starts a fresh one for to_tid, so offline
                # analysis can stitch per-thread execution chains.
                from_seg = self._segments.get(self._last_run.tid, 0)
                to_seg = self._segments.get(thread.tid, 0) + 1
                self._segments[thread.tid] = to_seg
                tr.instant(
                    self.node.sim.now,
                    "sched",
                    "context_switch",
                    self.node.node_id,
                    from_tid=self._last_run.tid,
                    to_tid=thread.tid,
                    from_seg=from_seg,
                    to_seg=to_seg,
                )
        self._last_run = thread
        thread.state = ThreadState.RUNNING

        while True:
            continuation = getattr(thread, "op_continuation", None)
            if continuation is None:
                if self.record_values:
                    v = thread.pending_value
                    thread.value_log.append(v.copy() if isinstance(v, np.ndarray) else v)
                try:
                    op = thread.body.send(thread.pending_value)
                except StopIteration:
                    thread.state = ThreadState.DONE
                    sim = self.node.sim
                    if sim.trace_on:
                        node_id = self.node.node_id
                        sim.trace.instant(sim.now, "sched", "thread_exit", node_id, tid=thread.tid)
                    return
                thread.pending_value = None
                continuation = self._execute(thread, op)
                thread.op_continuation = continuation
            outcome = yield from self._drive(thread, continuation)
            if outcome == "blocked":
                return

    def _drive(self, thread: DsmThread, continuation: Generator) -> Generator:
        """Advance one op's execution; returns 'blocked' or 'finished'."""
        send_value: Any = None
        while True:
            try:
                item = continuation.send(send_value)
            except StopIteration as stop:
                thread.pending_value = stop.value
                thread.op_continuation = None
                return "finished"
            send_value = None
            if isinstance(item, WaitRequest):
                if self._should_switch(item.kind):
                    self._block(thread, item)
                    return "blocked"
                yield from self._inline_wait(thread, item)
            else:
                send_value = yield item

    # -- op execution (thread-context generators) -----------------------------------

    def _execute(self, thread: DsmThread, op: Op) -> Generator:
        if isinstance(op, Compute):
            return self._execute_compute(thread, op)
        if isinstance(op, Read):
            return self._execute_read(thread, op)
        if isinstance(op, Write):
            return self._execute_write(thread, op)
        if isinstance(op, Acquire):
            return self._execute_acquire(thread, op)
        if isinstance(op, Release):
            return self._execute_release(thread, op)
        if isinstance(op, Barrier):
            return self._execute_barrier(thread, op)
        if isinstance(op, Prefetch):
            return self._execute_prefetch(thread, op)
        raise ProgramError(f"thread {thread.tid} yielded unknown op {op!r}")

    def _execute_compute(self, thread: DsmThread, op: Compute) -> Generator:
        remaining = op.us
        while remaining > 0:
            chunk = min(COMPUTE_QUANTUM, remaining)
            yield from self.node.occupy(chunk, Category.BUSY)
            thread.run_accum += chunk
            remaining -= chunk

    def _ensure_pages(
        self, thread: DsmThread, addr: int, nbytes: int, write: bool = False
    ) -> Generator:
        """Fault in every stale page of a region, in address order."""
        for page_id in self.node.pages.pages_in_range(addr, nbytes):
            guard = 0
            while True:
                fetch = self.dsm.backend.ensure_valid(page_id, write)
                if fetch is None:
                    break
                guard += 1
                if guard > 128:
                    raise ProgramError(f"page {page_id} never becomes valid")
                yield WaitRequest(fetch, StallKind.MEMORY)

    def _execute_read(self, thread: DsmThread, op: Read) -> Generator:
        yield from self._ensure_pages(thread, op.addr, op.nbytes)
        data = self.node.pages.read(op.addr, op.nbytes)
        return data.view(op.dtype)

    def _execute_write(self, thread: DsmThread, op: Write) -> Generator:
        data = np.ascontiguousarray(op.data).view(np.uint8).ravel()
        pages = self.node.pages.pages_in_range(op.addr, len(data))
        # The store must land while every page is verifiably writable
        # (the protocol's predicate: valid + dirty with a live twin
        # under LRC, exclusively owned under SC).  Each touch may yield
        # for the CPU, and during that yield a remote diff request can
        # flush the page — or an invalidation strip ownership — so the
        # final check-and-store below runs with NO yields between a
        # successful check and the write.
        guard = 0
        while True:
            ready = all(self.dsm.backend.page_writable(page_id) for page_id in pages)
            if ready:
                break
            guard += 1
            if guard > 256:
                raise ProgramError(f"write to {op.addr} cannot stabilize")
            yield from self._ensure_pages(thread, op.addr, len(data), write=True)
            for page_id in pages:
                # A concurrent invalidation (e.g. a lock grant to another
                # local thread) may strike while touching a neighbour;
                # skip it now — the loop re-ensures before the store.
                if self.dsm.backend.page_valid(page_id):
                    yield from self.dsm.backend.op_write_touch(page_id)
        self.node.pages.write(op.addr, data)

    def _execute_acquire(self, thread: DsmThread, op: Acquire) -> Generator:
        wait = yield from self.dsm.locks.op_acquire(op.lock_id)
        if wait is not None:
            yield WaitRequest(wait, StallKind.LOCK)

    def _execute_release(self, thread: DsmThread, op: Release) -> Generator:
        yield from self.dsm.locks.op_release(op.lock_id)

    def _execute_barrier(self, thread: DsmThread, op: Barrier) -> Generator:
        wait = yield from self.dsm.barriers.op_arrive(op.barrier_id, self.local_thread_count)
        yield WaitRequest(wait, StallKind.BARRIER)

    def _execute_prefetch(self, thread: DsmThread, op: Prefetch) -> Generator:
        if self.prefetch is None:
            return  # prefetch ops are no-ops when the technique is off
        yield from self.prefetch.op_prefetch(op)

    # -- checkpoint / recovery ---------------------------------------------

    def rebuild_thread(self, tid: int, body: Generator, values: list) -> DsmThread:
        """Reconstruct a thread from a fresh body and its input log.

        Replaying the logged values into the fresh generator rebuilds its
        internal state without re-running any protocol action.  A thread
        with a non-empty log was (by the consistent-cut argument) blocked
        at a barrier when the checkpoint was taken: after replay the body
        has just yielded that :class:`Barrier` op, so the thread is left
        READY with a continuation that re-waits on the restored episode.
        ndarray values are fed as copies — the body may mutate what it
        receives, and the log must survive for later rollbacks.
        """
        from repro.errors import CheckpointError

        thread = DsmThread(tid, self.node.node_id, body)
        thread.value_log = [
            v.copy() if isinstance(v, np.ndarray) else v for v in values
        ]
        op: Optional[Op] = None
        for v in values:
            feed = v.copy() if isinstance(v, np.ndarray) else v
            try:
                op = body.send(feed)
            except StopIteration:
                thread.state = ThreadState.DONE
                return thread
        if values:
            if not isinstance(op, Barrier):
                raise CheckpointError(
                    f"thread {tid} was checkpointed mid-{type(op).__name__}, "
                    "not at a barrier — the cut is not consistent"
                )
            wake = self.dsm.barriers.register_restored_waiter(op.barrier_id)
            thread.op_continuation = self._restored_barrier_continuation(wake)
        return thread

    def _restored_barrier_continuation(self, wake: Event) -> Generator:
        """The tail of ``_execute_barrier`` for a restored thread: the
        arrival already happened (it is part of the checkpointed barrier
        state), only the wait remains."""
        yield WaitRequest(wake, StallKind.BARRIER)
