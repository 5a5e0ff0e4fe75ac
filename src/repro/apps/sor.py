"""SOR: red-black successive over-relaxation (TreadMarks distribution).

The grid is block-partitioned by rows.  Each iteration has a red phase
and a black phase separated by barriers; a phase updates the rows of its
colour using the two neighbouring rows of the other colour.  The only
remote communication is the halo exchange: the first and last row of
each partition are read by the neighbouring threads, so steady-state
traffic is two pages per neighbour per phase — plus the startup rush
when every node first reads its partition from node 0.

Paper parameters: 2000 x 2000, 50 iterations.  Scaled default: 192 x 512
(one page per row), 6 iterations.
"""

from __future__ import annotations

import numpy as np

from repro.api.ops import Barrier, Compute
from repro.apps.base import BARRIER_MAIN, AppBase, block_range

__all__ = ["Sor", "sor_reference"]


def sor_reference(grid: np.ndarray, iterations: int) -> np.ndarray:
    """Sequential red-black relaxation, bit-identical to the DSM run."""
    grid = grid.copy()
    rows, _cols = grid.shape
    for _ in range(iterations):
        for colour in (0, 1):  # red, black
            for row in range(1, rows - 1):
                if row % 2 != colour:
                    continue
                grid[row, 1:-1] = 0.25 * (
                    grid[row - 1, 1:-1]
                    + grid[row + 1, 1:-1]
                    + grid[row, :-2]
                    + grid[row, 2:]
                )
    return grid


class Sor(AppBase):
    """Red-black SOR over the software DSM."""

    name = "SOR"
    #: Calibrated (DESIGN.md): SOR is the most compute-bound app.
    mflops = 1.45

    def __init__(self, rows: int = 192, cols: int = 512, iterations: int = 6) -> None:
        super().__init__()
        if rows < 8 or cols < 4:
            raise ValueError("grid too small for a meaningful run")
        self.rows = rows
        self.cols = cols
        self.iterations = iterations
        self._initial: np.ndarray | None = None

    # -- program interface ---------------------------------------------------

    def setup(self, runtime) -> None:
        self.grid = runtime.alloc_matrix("sor.grid", np.float64, self.rows, self.cols)
        rng = runtime.random.stream("sor.init")
        self._initial = rng.random((self.rows, self.cols))

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        if tid == 0:
            # Sequential initialization on node 0 (the startup hot spot).
            yield Compute(self.flops_us(self.rows * self.cols))
            yield self.grid.write_rows(0, self._initial)
        yield Barrier(BARRIER_MAIN)

        # Interior rows are partitioned; boundary rows 0 / rows-1 are fixed.
        lo, hi = block_range(self.rows - 2, threads, tid)
        lo, hi = lo + 1, hi + 1
        row_flops = 4 * (self.cols - 2)

        for _iteration in range(self.iterations):
            for colour in (0, 1):
                if self.use_prefetch:
                    # The halo rows are the only remote reads: prefetch
                    # them at phase entry, well before they are used.
                    halo = [row for row in (lo - 1, hi) if 0 <= row < self.rows]
                    yield self.grid.prefetch_row_list(
                        halo,
                        dedup_key=(
                            f"sor:{_iteration}:{colour}:{tid // max(1, threads // runtime.config.num_nodes)}"
                            if self.prefetch_dedup
                            else None
                        ),
                    )
                # Interior-first row order (Mowry's scheduling): the
                # rows touching remote halo data run LAST, giving the
                # halo prefetch the whole interior computation as lead.
                ordered = [row for row in range(lo + 1, hi - 1)] + [
                    row for row in (lo, hi - 1) if lo <= row < hi
                ]
                if hi - lo <= 2:
                    ordered = list(range(lo, hi))
                for row in dict.fromkeys(ordered):
                    if row % 2 != colour:
                        continue
                    above = yield self.grid.read_row(row - 1)
                    below = yield self.grid.read_row(row + 1)
                    centre = yield self.grid.read_row(row)
                    yield Compute(self.flops_us(row_flops))
                    updated = np.asarray(centre, dtype=np.float64).copy()
                    updated[1:-1] = 0.25 * (
                        np.asarray(above)[1:-1]
                        + np.asarray(below)[1:-1]
                        + updated[:-2]
                        + updated[2:]
                    )
                    yield self.grid.write_row(row, updated)
                yield Barrier(BARRIER_MAIN)

    def verify(self, runtime) -> None:
        expected = sor_reference(self._initial, self.iterations)
        actual = runtime.read_matrix(self.grid)
        if not np.allclose(actual, expected, rtol=1e-12, atol=1e-12):
            bad = np.argwhere(~np.isclose(actual, expected, rtol=1e-12, atol=1e-12))
            raise AssertionError(f"SOR mismatch at {len(bad)} cells, first {bad[:3]}")
