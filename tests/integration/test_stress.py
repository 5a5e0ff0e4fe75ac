"""Protocol stress tests — regression nets for the subtle races.

These encode the failure scenarios found while building the protocol:

1. duplicate concurrent flushes of one dirty span (escalating interval
   tags that clobber newer data);
2. happened-before inversion across fetch batches when interval records
   only exist in the flusher's log;
3. vector-clock inflation from page-filtered reply notices;
4. a remote-triggered flush racing the local write between its
   write-touch and its data store;
5. many lock chains read-modify-writing disjoint slices of shared pages.
"""

import numpy as np
import pytest

from repro import Barrier, Compute, DsmRuntime, Program, RunConfig
from repro.api.ops import Acquire, Release


class MultiChainAccumulator(Program):
    """N lock chains, each accumulating into its slice of shared pages.

    Slices are small (a few cells), so many chains share each page —
    the densest read-modify-write false-sharing pattern the protocol
    must survive.
    """

    name = "multi-chain"

    def __init__(self, slices=8, cells_per_slice=4, rounds=3):
        self.slices = slices
        self.cells = cells_per_slice
        self.rounds = rounds

    def setup(self, runtime):
        # Deliberately small: every page holds many slices.
        self.vec = runtime.alloc_vector("acc", np.float64, self.slices * self.cells)

    def thread_body(self, runtime, tid):
        yield Barrier(0)
        for round_no in range(self.rounds):
            for step in range(self.slices):
                slice_id = (tid + step) % self.slices
                lo = slice_id * self.cells
                yield Acquire(slice_id)
                current = np.asarray((yield self.vec.read(lo, self.cells)))
                yield Compute(3.0)
                yield self.vec.write(lo, current + (tid + 1))
                yield Release(slice_id)
            yield Barrier(0)

    def verify(self, runtime):
        threads_sum = sum(range(1, runtime.config.total_threads + 1))
        expected = threads_sum * self.rounds
        values = runtime.read_vector(self.vec)
        assert np.all(values == expected), (
            f"lost updates: {values[values != expected]} != {expected}"
        )


@pytest.mark.parametrize("num_nodes,tpn", [(2, 1), (4, 1), (8, 1), (4, 2), (2, 4)])
def test_multi_chain_accumulator(num_nodes, tpn):
    program = MultiChainAccumulator()
    DsmRuntime(RunConfig(num_nodes=num_nodes, threads_per_node=tpn)).execute(program)


def test_multi_chain_with_prefetch():
    program = MultiChainAccumulator()
    DsmRuntime(RunConfig(num_nodes=4, prefetch=True)).execute(program)


def test_multi_chain_combined():
    program = MultiChainAccumulator(rounds=2)
    DsmRuntime(RunConfig(num_nodes=4, threads_per_node=2, prefetch=True)).execute(program)


class StraddlingChain(Program):
    """A lock-protected counter whose record straddles a page boundary,
    with bystander writers dirtying both pages concurrently."""

    name = "straddle-chain"

    def setup(self, runtime):
        self.vec = runtime.alloc_vector("s", np.float64, 1024)  # 2 pages
        self.idx = 511  # bytes 4088..4112: crosses the boundary

    def thread_body(self, runtime, tid):
        yield Barrier(0)
        for _ in range(4):
            yield Acquire(3)
            current = np.asarray((yield self.vec.read(self.idx, 3)))
            yield Compute(2.0)
            yield self.vec.write(self.idx, current + 1.0)
            yield Release(3)
            # Bystander writes keep both pages dirty and force flushes.
            yield self.vec.write((tid * 37) % 500, np.array([float(tid)]))
            yield self.vec.write(520 + (tid * 37) % 490, np.array([float(tid)]))
        yield Barrier(0)

    def verify(self, runtime):
        values = runtime.read_vector(self.vec)[self.idx : self.idx + 3]
        assert np.all(values == 4.0 * runtime.config.total_threads), values


@pytest.mark.parametrize("num_nodes", [2, 4, 8])
def test_straddling_chain(num_nodes):
    DsmRuntime(RunConfig(num_nodes=num_nodes)).execute(StraddlingChain())
