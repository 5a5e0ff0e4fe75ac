"""Generated data-race-free programs and the sequential interpreter that grades them.

A *table* holds one op list per thread.  An op is a tuple:

- ``("read", cell)`` and ``("write", cell, value)`` on a barrier-owned cell;
- ``("add", cell, lock, k)``: acquire ``lock``, ``cell += k``, release;
- ``("barrier",)``, ``("compute", us)`` and ``("prefetch", cell, ...)``.

A cell is one int64.  The tables are data-race-free by construction, so
every backend owes them sequentially consistent results (the
programmer-centric contract of Adve & Gharachorloo, SNIPPETS.md
snippet 3).  Cells ``0 .. cells - 1`` are barrier-owned: in phase ``p``
cell ``c`` belongs to thread ``(c + p * shift) % (threads + 1)``, and
owner ``threads`` means nobody writes it that phase and one thread reads
it.  Neighbouring cells so have different owners (false sharing within a
page), and a cell changes owner at every barrier: the new owner reads
what the old one wrote (producer to consumer) before it writes its own
value.  Lock ``l`` owns cell ``cells + l`` for the whole run, and that
cell is only read-modify-written under the lock (migratory data).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from hypothesis import strategies as st

from repro import Barrier, Compute, Program
from repro.api.ops import Acquire, Prefetch, Read, Release, Write

#: What the owner of a barrier cell does with it in one phase.
ACCESSES = (("read", "write"), ("write",), ("read",), ("write", "read"), ())


@st.composite
def tables(draw, threads: int):
    """``(table, cells)``: one op list per thread and the count of cells."""
    cells = draw(st.integers(1, 12))
    locks = draw(st.integers(1, 3))
    shift = draw(st.integers(1, threads))
    table: list[list[tuple]] = [[] for _ in range(threads)]
    for phase in range(draw(st.integers(1, 4))):
        mine: list[list[tuple]] = [[] for _ in range(threads)]
        for cell in range(cells):
            owner = (cell + phase * shift) % (threads + 1)
            if owner == threads:
                mine[draw(st.integers(0, threads - 1))].append(("read", cell))
                continue
            for kind in draw(st.sampled_from(ACCESSES)):
                value = 1000 * (phase + 1) + cell
                mine[owner].append(("read", cell) if kind == "read" else ("write", cell, value))
        for i, k in enumerate(draw(st.lists(st.integers(1, 9), min_size=1, max_size=16))):
            lock = draw(st.integers(0, locks - 1))
            mine[(i + draw(st.integers(0, threads - 1))) % threads].append(
                ("add", cells + lock, lock, k)
            )
        for tid, ops in enumerate(mine):
            if phase:
                table[tid].append(("barrier",))
            if not ops:
                continue
            if draw(st.booleans()):
                table[tid].append(("prefetch", *sorted({op[1] for op in ops})))
            us = draw(st.sampled_from((0.0, 300.0, 3000.0, 20000.0)))
            if us:
                table[tid].append(("compute", us))
            table[tid] += draw(st.permutations(ops))
    # Part of the programs start late, so a fault that begins at 10 ms
    # (SPLIT_BRAIN_PLAN's stall) still finds them running.
    prefix = draw(st.sampled_from((0.0, 12_000.0)))
    return [[("compute", prefix)] + ops if prefix else ops for ops in table], cells + locks


def interpret(table: list[list[tuple]], cells: int) -> tuple[list[int], dict]:
    """Run ``table`` one barrier phase at a time, each phase thread by thread.

    Returns the final memory and the value each ``("read", cell)`` op,
    keyed by ``(tid, op index)``, must return.  Any order of a phase's
    threads gives the same values: only the owner touches a barrier cell,
    and lock adds commute.
    """
    memory = [0] * cells
    reads = {}
    steps = sorted(
        (phase, tid, i)
        for tid, ops in enumerate(table)
        for i, phase in enumerate(accumulate(op[0] == "barrier" for op in ops))
    )
    for _, tid, i in steps:
        kind, *args = table[tid][i]
        if kind == "read":
            reads[tid, i] = memory[args[0]]
        elif kind == "write":
            memory[args[0]] = args[1]
        elif kind == "add":
            memory[args[0]] += args[2]
    return memory, reads


class Replay(Program):
    """Replays a table and checks final memory and every read against :func:`interpret`."""

    name = "drf"

    def __init__(self, table: list[list[tuple]], cells: int) -> None:
        self.table = table
        self.cells = cells
        #: ``(tid, op index, value)`` of every barrier-cell read.  A crash
        #: rollback runs a thread body again, so one op may read twice.
        self.reads: list[tuple[int, int, int]] = []

    def setup(self, runtime):
        self.base = runtime.alloc("drf", 8 * self.cells).base

    def thread_body(self, runtime, tid):
        def load(cell):
            return Read(self.base + 8 * cell, 8, dtype=np.int64)

        def store(cell, value):
            return Write(self.base + 8 * cell, np.array([value], dtype=np.int64))

        for i, (kind, *args) in enumerate(self.table[tid]):
            if kind == "read":
                value = yield load(args[0])
                self.reads.append((tid, i, int(value[0])))
            elif kind == "write":
                yield store(*args)
            elif kind == "add":
                cell, lock, k = args
                yield Acquire(lock)
                value = yield load(cell)
                yield store(cell, int(value[0]) + k)
                yield Release(lock)
            elif kind == "barrier":
                yield Barrier(0)
            elif kind == "compute":
                yield Compute(args[0])
            else:
                yield Prefetch.of([(self.base + 8 * cell, 8) for cell in args])

    def verify(self, runtime):
        memory, reads = interpret(self.table, self.cells)
        final = runtime.read_global(self.base, 8 * self.cells, np.int64)
        assert final.tolist() == memory, f"final memory {final.tolist()} != {memory}"
        for tid, i, value in self.reads:
            assert value == reads[tid, i], f"thread {tid} op {i} read {value}, not {reads[tid, i]}"
