"""Litmus tests: each backend shows only the outcomes its memory model allows.

Three classic shapes (Adve & Gharachorloo, "Shared Memory Consistency
Models: A Tutorial"), each bare and properly labelled, on two nodes with
one thread each and ``x``/``y`` on two different pages:

- **MP** (message passing): T0 writes ``x`` then ``y``; T1 reads ``y``
  then ``x``.  SC forbids seeing the flag ``y`` without the data ``x``.
  Labelled, the flag is written and read under a lock and T1 reads ``x``
  only after it saw the flag, so the program is data-race-free.
- **SB** (store buffering): each thread writes one location and reads
  the other.  SC forbids both reads missing both writes.  Labelled, a
  barrier separates the writes from the reads.
- **CoRR** (read-read coherence): T0 writes ``x``; T1 reads it twice.
  Coherence forbids the second read returning an older value than the
  first, under SC and under release consistency, which assumes coherent
  memory.  Labelled, every access is in a critical section.

The allowed sets below are written from the models' definitions, never
derived from a backend.  ``sc`` must show only SC outcomes; ``lrc`` and
``hlrc`` only outcomes release consistency allows, which for a
properly-labelled program are exactly the SC outcomes.  A ``Compute``
delay grid moves the two threads against each other, clean and at 5 %
loss.
"""

import itertools

import numpy as np
import pytest

from repro import Barrier, Compute, DsmRuntime, Program, RunConfig
from repro.api.ops import Acquire, Read, Release, Write
from repro.network import FaultPlan

#: T1 did not read ``x`` (MP labelled: the flag was not set yet).
NOT_READ = -1
ONE = np.array([1], dtype=np.int64)
LOCK = 0

ANY = frozenset(itertools.product((0, 1), repeat=2))
#: shape -> (outcomes SC allows, outcomes RC allows).  An outcome is
#: every value the threads read, T0's first.
ALLOWED = {
    # (r_y, r_x) of T1: the flag without the data is non-SC.
    "MP": (ANY - {(1, 0)}, ANY),
    "MP+lock": (frozenset({(1, 1), (0, NOT_READ)}),) * 2,
    # (T0's y, T1's x): both reads missing both writes is non-SC.
    "SB": (ANY - {(0, 0)}, ANY),
    "SB+barrier": (frozenset({(1, 1)}),) * 2,
    # T1's two reads of x: new then old breaks coherence.
    "CoRR": (ANY - {(1, 0)},) * 2,
    "CoRR+lock": (ANY - {(1, 0)},) * 2,
}
LABELLED = ("MP+lock", "SB+barrier", "CoRR+lock")

#: (T0's start, T1's start, gap between a thread's two accesses), in
#: microseconds: both orders of every pair of accesses, and windows
#: around a remote miss (~1-2 ms).
DELAYS = list(itertools.product((0.0, 1500.0), (0.0, 400.0, 1500.0, 4000.0), (0.0, 2500.0)))


class Litmus(Program):
    name = "litmus"

    def __init__(self, shape: str, start0: float, start1: float, gap: float) -> None:
        self.shape = shape
        self.starts = (start0, start1)
        self.gap = gap
        self.reads: dict[int, list[int]] = {0: [], 1: []}

    def setup(self, runtime):
        page = runtime.config.page_size
        base = runtime.alloc("litmus", 2 * page).base
        self.x, self.y = base, base + page

    def load(self, tid, addr):
        value = yield Read(addr, 8, dtype=np.int64)
        self.reads[tid].append(int(value[0]))

    def thread_body(self, runtime, tid):
        yield Compute(self.starts[tid])
        yield from getattr(self, self.shape.replace("+", "_"))(tid)

    def outcome(self) -> tuple[int, ...]:
        return tuple(self.reads[0] + self.reads[1])

    def verify(self, runtime):
        pass  # the outcome is the result; the test grades it

    def MP(self, tid):
        if tid == 0:
            yield Write(self.x, ONE)
            yield Compute(self.gap)
            yield Write(self.y, ONE)
        else:
            yield from self.load(1, self.y)
            yield Compute(self.gap)
            yield from self.load(1, self.x)

    def MP_lock(self, tid):
        if tid == 0:
            yield Write(self.x, ONE)
            yield Compute(self.gap)
            yield Acquire(LOCK)
            yield Write(self.y, ONE)
            yield Release(LOCK)
        else:
            yield Acquire(LOCK)
            yield from self.load(1, self.y)
            yield Release(LOCK)
            yield Compute(self.gap)
            if self.reads[1][-1] == 1:
                yield from self.load(1, self.x)
            else:
                self.reads[1].append(NOT_READ)

    def SB(self, tid, barrier=False):
        mine, other = (self.x, self.y) if tid == 0 else (self.y, self.x)
        yield Write(mine, ONE)
        yield Compute(self.gap)
        if barrier:
            yield Barrier(0)
        yield from self.load(tid, other)

    def SB_barrier(self, tid):
        return self.SB(tid, barrier=True)

    def CoRR(self, tid, lock=False):
        acquire, release = ((Acquire(LOCK),), (Release(LOCK),)) if lock else ((), ())
        if tid == 0:
            yield from acquire
            yield Write(self.x, ONE)
            yield from release
            return
        for read in range(2):
            if read:
                yield Compute(self.gap)
            yield from acquire
            yield from self.load(1, self.x)
            yield from release

    def CoRR_lock(self, tid):
        return self.CoRR(tid, lock=True)


def outcomes(shape: str, protocol: str, loss: float) -> dict[tuple[int, ...], list]:
    """Every outcome the delay grid produced, with the cells that showed it."""
    seen: dict[tuple[int, ...], list] = {}
    for index, delays in enumerate(DELAYS):
        program = Litmus(shape, *delays)
        config = RunConfig(
            num_nodes=2,
            protocol=protocol,
            seed=index,
            fault_plan=FaultPlan(drop_prob=loss) if loss else None,
        )
        DsmRuntime(config).execute(program)
        seen.setdefault(program.outcome(), []).append(delays)
    return seen


@pytest.mark.parametrize("loss", (0.0, 0.05), ids=("clean", "loss5"))
@pytest.mark.parametrize("protocol", ("lrc", "hlrc", "sc"))
@pytest.mark.parametrize("shape", sorted(ALLOWED))
def test_only_model_allowed_outcomes(shape, protocol, loss):
    sc_allowed, rc_allowed = ALLOWED[shape]
    allowed = sc_allowed if protocol == "sc" else rc_allowed
    seen = outcomes(shape, protocol, loss)
    forbidden = {outcome: cells for outcome, cells in seen.items() if outcome not in allowed}
    assert not forbidden, f"{shape} on {protocol}: forbidden outcomes (delays) {forbidden}"


def test_properly_labelled_shapes_owe_sc_outcomes_under_rc():
    for shape in LABELLED:
        assert ALLOWED[shape][1] == ALLOWED[shape][0]


@pytest.mark.parametrize("protocol", ("lrc", "hlrc", "sc"))
def test_the_grid_reaches_both_orders_of_a_labelled_handoff(protocol):
    """Not vacuous: T1 takes the lock both before and after T0 does."""
    assert set(outcomes("MP+lock", protocol, 0.0)) == ALLOWED["MP+lock"][0]
