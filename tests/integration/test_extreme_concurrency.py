"""Regression tests for the high-concurrency protocol failure modes.

Each of these encodes a bug found at 8 nodes x 8 threads during
development:

- word tearing: byte-granular diffs could interleave the bytes of two
  happened-before-ordered writes into a torn float (fixed by
  word-granular diffs + per-byte happened-before watermarks);
- gather incompleteness: a fetch could apply a batch while a write
  notice learned *during* the gather still pointed at an older,
  conflicting diff (fixed by re-requesting writers whose needed level
  rose);
- silent re-writes: a page staying dirty across interval closes could
  absorb later writes without any write notice (fixed by TreadMarks
  style write protection at interval close).
"""

import numpy as np
import pytest

from repro import Barrier, Compute, DsmRuntime, Program, Read, RunConfig, Write
from repro.api.ops import Acquire, Release
from repro.apps.base import block_range


class DenseLockMesh(Program):
    """Every thread RMWs every slice of a shared array under per-slice
    locks, twice per round — the densest chain/false-sharing mesh."""

    name = "dense-lock-mesh"

    def __init__(self, slices=16, cells=2, rounds=2):
        self.slices = slices
        self.cells = cells
        self.rounds = rounds

    def setup(self, runtime):
        self.vec = runtime.alloc_vector("mesh", np.float64, self.slices * self.cells)

    def thread_body(self, runtime, tid):
        yield Barrier(0)
        for round_no in range(self.rounds):
            for step in range(self.slices):
                slice_id = (tid + step) % self.slices
                lo = slice_id * self.cells
                yield Acquire(slice_id)
                current = np.asarray((yield self.vec.read(lo, self.cells)))
                yield Compute(1.0)
                # Irrational increments make every write change every
                # byte of the float with high probability — and any
                # tearing or lost update corrupts the exact total.
                yield self.vec.write(lo, current + (tid + 1) * np.pi)
                yield Release(slice_id)
            yield Barrier(0)

    def verify(self, runtime):
        threads_sum = sum(range(1, runtime.config.total_threads + 1))
        expected = threads_sum * np.pi * self.rounds
        values = runtime.read_vector(self.vec)
        assert np.allclose(values, expected, rtol=1e-12), (
            values[~np.isclose(values, expected, rtol=1e-12)],
            expected,
        )


@pytest.mark.parametrize("num_nodes,tpn", [(8, 2), (4, 4), (8, 4)])
def test_dense_lock_mesh_high_concurrency(num_nodes, tpn):
    DsmRuntime(RunConfig(num_nodes=num_nodes, threads_per_node=tpn)).execute(DenseLockMesh())


def test_water_sp_default_at_8x4():
    """The configuration that exposed the word-tearing bug (8x8 is the
    same shape but slower; 8x4 reproduces all three failure modes)."""
    from repro.apps.water import WaterSpatial

    DsmRuntime(RunConfig(num_nodes=8, threads_per_node=4)).execute(WaterSpatial())
