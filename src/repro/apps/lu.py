"""LU: SPLASH-2 blocked dense LU factorization (no pivoting).

Blocks are assigned to threads in a 2-D cyclic layout.  Step ``k``
factors the diagonal block, then updates the perimeter (row/column
``k``), then the interior — with barriers between the three phases.
Readers fault on the diagonal and perimeter blocks they consume.

Two memory layouts, as in the paper:

- **LU-CONT**: each block is contiguous and page-aligned — a block read
  touches exactly its own pages (paper: block size 32, contiguous).
- **LU-NCONT**: the matrix is row-major, so a block is a set of strided
  row segments; neighbouring blocks share pages and the writers
  false-share heavily (paper: block size 128, non-contiguous).

Paper parameters: 1024 x 1024.  Scaled default: 192 x 192, B=32.
"""

from __future__ import annotations

import numpy as np

from repro.api.ops import Barrier, Compute, Prefetch
from repro.apps.base import BARRIER_MAIN, AppBase

__all__ = ["Lu", "LuContiguous", "LuNonContiguous", "lu_reference"]


def factor_diagonal(block: np.ndarray) -> None:
    """In-place LU of a block (unit lower diagonal)."""
    size = block.shape[0]
    for r in range(size - 1):
        block[r + 1 :, r] /= block[r, r]
        block[r + 1 :, r + 1 :] -= np.outer(block[r + 1 :, r], block[r, r + 1 :])


def solve_column_block(block: np.ndarray, diag: np.ndarray) -> None:
    """A_ik <- A_ik * U_kk^{-1} (in place)."""
    size = diag.shape[0]
    for c in range(size):
        block[:, c] -= block[:, :c] @ diag[:c, c]
        block[:, c] /= diag[c, c]


def solve_row_block(block: np.ndarray, diag: np.ndarray) -> None:
    """A_kj <- L_kk^{-1} * A_kj (in place, unit lower L)."""
    size = diag.shape[0]
    for r in range(1, size):
        block[r] -= diag[r, :r] @ block[:r]


def lu_reference(matrix: np.ndarray, block_size: int) -> np.ndarray:
    """Sequential blocked LU, bit-identical to the DSM computation."""
    a = matrix.copy()
    n = a.shape[0]
    nb = n // block_size

    def blk(bi, bj):
        return a[
            bi * block_size : (bi + 1) * block_size,
            bj * block_size : (bj + 1) * block_size,
        ]

    for k in range(nb):
        factor_diagonal(blk(k, k))
        for i in range(k + 1, nb):
            solve_column_block(blk(i, k), blk(k, k))
            solve_row_block(blk(k, i), blk(k, k))
        for i in range(k + 1, nb):
            for j in range(k + 1, nb):
                blk(i, j)[...] -= blk(i, k) @ blk(k, j)
    return a


class Lu(AppBase):
    """Blocked LU over the software DSM (both layouts)."""

    def __init__(self, n: int = 192, block_size: int = 32, contiguous: bool = True) -> None:
        super().__init__()
        if n % block_size:
            raise ValueError(f"n={n} must be a multiple of block size {block_size}")
        if n // block_size < 2:
            raise ValueError("need at least a 2x2 grid of blocks")
        self.n = n
        self.block_size = block_size
        self.nb = n // block_size
        self.contiguous = contiguous
        self.name = "LU-CONT" if contiguous else "LU-NCONT"
        self._initial: np.ndarray | None = None

    # -- layout ------------------------------------------------------------

    def setup(self, runtime) -> None:
        n = self.n
        if self.contiguous:
            # One page-aligned segment per block row of blocks: blocks
            # are consecutive B*B cell chunks.
            self.mat = runtime.alloc_matrix(
                "lu.blocks", np.float64, self.nb * self.nb, self.block_size * self.block_size
            )
        else:
            self.mat = runtime.alloc_matrix("lu.rowmajor", np.float64, n, n)
        rng = runtime.random.stream("lu.init")
        base = rng.random((n, n))
        # Diagonally dominant, so factorization without pivoting is stable.
        self._initial = base + np.eye(n) * n

    def owner(self, bi: int, bj: int, threads: int) -> int:
        """2-D scatter decomposition (SPLASH-2): blocks are cyclically
        assigned over a pr x pc processor grid, spreading each step's
        perimeter and interior work over many threads."""
        pr = 1
        for candidate in range(int(threads**0.5), 0, -1):
            if threads % candidate == 0:
                pr = candidate
                break
        pc = threads // pr
        return (bi % pr) * pc + (bj % pc)

    def _read_block(self, bi: int, bj: int):
        """Sub-generator returning the block as a (B, B) array."""
        size = self.block_size
        if self.contiguous:
            row = yield self.mat.read_row(bi * self.nb + bj)
            return np.asarray(row, dtype=np.float64).reshape(size, size).copy()
        block = np.empty((size, size), dtype=np.float64)
        for r in range(size):
            span = yield self.mat.read_cell_span(bi * size + r, bj * size, size)
            block[r] = np.asarray(span)
        return block

    def _write_block(self, bi: int, bj: int, values: np.ndarray):
        size = self.block_size
        if self.contiguous:
            yield self.mat.write_row(bi * self.nb + bj, values.reshape(-1))
            return
        for r in range(size):
            yield self.mat.write_cell_span(bi * size + r, bj * size, values[r])

    def _block_regions(self, bi: int, bj: int) -> list[tuple[int, int]]:
        size = self.block_size
        if self.contiguous:
            return [self.mat.row_region(bi * self.nb + bj)]
        return [
            (self.mat.addr(bi * size + r, bj * size), size * 8) for r in range(size)
        ]

    # -- program -----------------------------------------------------------------

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        size = self.block_size
        if tid == 0:
            yield Compute(self.flops_us(self.n * self.n))
            if self.contiguous:
                for bi in range(self.nb):
                    for bj in range(self.nb):
                        block = self._initial[
                            bi * size : (bi + 1) * size, bj * size : (bj + 1) * size
                        ]
                        yield self.mat.write_row(bi * self.nb + bj, block.reshape(-1))
            else:
                yield self.mat.write_rows(0, self._initial)
        yield Barrier(BARRIER_MAIN)

        block_flops = float(size) ** 3
        for k in range(self.nb):
            # Phase 1: factor the diagonal block.
            if self.owner(k, k, threads) == tid:
                diag = yield from self._read_block(k, k)
                factor_diagonal(diag)
                yield Compute(self.flops_us(block_flops * 2 / 3))
                yield from self._write_block(k, k, diag)
            yield Barrier(BARRIER_MAIN)

            # Phase 2: perimeter row and column.
            if self.use_prefetch and any(
                self.owner(i, k, threads) == tid or self.owner(k, i, threads) == tid
                for i in range(k + 1, self.nb)
            ):
                yield Prefetch.of(
                    self._block_regions(k, k),
                    dedup_key=f"lu:d{k}" if self.prefetch_dedup else None,
                )
            diag = None
            for i in range(k + 1, self.nb):
                mine_col = self.owner(i, k, threads) == tid
                mine_row = self.owner(k, i, threads) == tid
                if not (mine_col or mine_row):
                    continue
                if diag is None:
                    diag = yield from self._read_block(k, k)
                if mine_col:
                    block = yield from self._read_block(i, k)
                    solve_column_block(block, diag)
                    yield Compute(self.flops_us(block_flops))
                    yield from self._write_block(i, k, block)
                if mine_row:
                    block = yield from self._read_block(k, i)
                    solve_row_block(block, diag)
                    yield Compute(self.flops_us(block_flops))
                    yield from self._write_block(k, i, block)
            yield Barrier(BARRIER_MAIN)

            # Phase 3: interior updates.
            if self.use_prefetch:
                needed: list[tuple[int, int]] = []
                for i in range(k + 1, self.nb):
                    for j in range(k + 1, self.nb):
                        if self.owner(i, j, threads) == tid:
                            needed.append((i, k))
                            needed.append((k, j))
                if needed:
                    regions = []
                    for bi, bj in dict.fromkeys(needed):
                        regions.extend(self._block_regions(bi, bj))
                    yield Prefetch.of(
                        regions,
                        dedup_key=f"lu:i{k}" if self.prefetch_dedup else None,
                    )
            col_cache: dict[int, np.ndarray] = {}
            row_cache: dict[int, np.ndarray] = {}
            for i in range(k + 1, self.nb):
                for j in range(k + 1, self.nb):
                    if self.owner(i, j, threads) != tid:
                        continue
                    if i not in col_cache:
                        col_cache[i] = yield from self._read_block(i, k)
                    if j not in row_cache:
                        row_cache[j] = yield from self._read_block(k, j)
                    block = yield from self._read_block(i, j)
                    block -= col_cache[i] @ row_cache[j]
                    yield Compute(self.flops_us(2 * block_flops))
                    yield from self._write_block(i, j, block)
            yield Barrier(BARRIER_MAIN)

    # -- verification ------------------------------------------------------------

    def _result_matrix(self, runtime) -> np.ndarray:
        size = self.block_size
        if not self.contiguous:
            return runtime.read_matrix(self.mat)
        blocks = runtime.read_matrix(self.mat)
        out = np.empty((self.n, self.n), dtype=np.float64)
        for bi in range(self.nb):
            for bj in range(self.nb):
                out[bi * size : (bi + 1) * size, bj * size : (bj + 1) * size] = blocks[
                    bi * self.nb + bj
                ].reshape(size, size)
        return out

    def verify(self, runtime) -> None:
        expected = lu_reference(self._initial, self.block_size)
        actual = self._result_matrix(runtime)
        if not np.allclose(actual, expected, rtol=1e-10, atol=1e-10):
            worst = np.abs(actual - expected).max()
            raise AssertionError(f"{self.name} mismatch: max abs error {worst}")
        # Independent check: L*U reconstructs the input matrix.
        lower = np.tril(actual, -1) + np.eye(self.n)
        upper = np.triu(actual)
        if not np.allclose(lower @ upper, self._initial, rtol=1e-6, atol=1e-6):
            raise AssertionError(f"{self.name}: L*U does not reconstruct the input")


class LuContiguous(Lu):
    """LU-CONT: contiguous page-aligned blocks."""

    #: Calibrated (DESIGN.md).
    mflops = 2.2

    def __init__(self, n: int = 256, block_size: int = 32) -> None:
        super().__init__(n=n, block_size=block_size, contiguous=True)


class LuNonContiguous(Lu):
    """LU-NCONT: row-major layout; blocks false-share pages."""

    #: Calibrated (DESIGN.md).
    mflops = 3.0

    def __init__(self, n: int = 192, block_size: int = 32) -> None:
        super().__init__(n=n, block_size=block_size, contiguous=False)
