"""OCEAN: large-scale ocean circulation (SPLASH-2), reduced to its
dominant communication structure.

The full SPLASH-2 OCEAN alternates many short grid phases per timestep:
stencil sweeps on several grids, global reductions, and a multigrid
solver with restriction/interpolation between levels.  What makes OCEAN
distinctive in the paper is not the physics but the *rate of barriers
relative to computation* — it spends about half its time in
synchronization stalls — plus nearest-neighbour halo misses on two grid
resolutions.  We reproduce exactly that skeleton per timestep:

1. red/black stencil sweep on the fine grid          (2 barriers)
2. residual reduction into a lock-protected scalar    (1 lock + barrier)
3. restriction of the fine grid onto the coarse grid  (1 barrier)
4. red/black sweep on the coarse grid                 (2 barriers)
5. interpolated correction back onto the fine grid    (1 barrier)

Substitution note (DESIGN.md): the hydrodynamics (stream-function
updates, vorticity) are replaced by the same-shaped Laplacian
relaxation; the sharing pattern, phase structure, and barrier rate are
preserved, and every grid value is verified against a sequential
reference.

Paper parameters: 258 x 258 grid.  Scaled default: 66 rows x 512 cols.
"""

from __future__ import annotations

import numpy as np

from repro.api.ops import Acquire, Barrier, Compute, Release
from repro.apps.base import BARRIER_MAIN, AppBase, block_range

__all__ = ["Ocean", "ocean_reference"]

RESIDUAL_LOCK = 1


def _redblack_sweep(grid: np.ndarray, colour: int) -> None:
    """One coloured half-sweep of Jacobi-style relaxation (in place)."""
    rows = grid.shape[0]
    for row in range(1, rows - 1):
        if row % 2 != colour:
            continue
        grid[row, 1:-1] = 0.25 * (
            grid[row - 1, 1:-1] + grid[row + 1, 1:-1] + grid[row, :-2] + grid[row, 2:]
        )


def ocean_reference(fine: np.ndarray, coarse: np.ndarray, timesteps: int) -> tuple:
    """Sequential reference, mirroring the DSM computation loop-for-loop."""
    fine = fine.copy()
    coarse = coarse.copy()
    rows, cols = fine.shape
    crows, ccols = coarse.shape
    residuals = []
    for _ in range(timesteps):
        for colour in (0, 1):
            _redblack_sweep(fine, colour)
        residual = sum(float(np.abs(fine[row, 1:-1]).sum()) for row in range(1, rows - 1))
        residuals.append(residual)
        for crow in range(1, crows - 1):
            frow = 2 * crow
            if frow >= rows - 2:
                continue
            sampled = fine[frow, 2:-2:2][: ccols - 2]
            coarse[crow, 1 : 1 + len(sampled)] = sampled
        for colour in (0, 1):
            _redblack_sweep(coarse, colour)
        width = (cols - 2 + 1) // 2
        for row in range(1, rows - 1):
            if row % 2 != 1:
                continue
            crow = (row - 1) // 2 + 1
            if crow >= crows:
                continue
            fine[row, 1:-1:2] += 0.05 * coarse[crow, 1 : 1 + width]
    return fine, coarse, residuals


class Ocean(AppBase):
    """The OCEAN phase skeleton over the software DSM."""

    name = "OCEAN"
    #: Calibrated (DESIGN.md).
    mflops = 3.3

    def __init__(self, rows: int = 66, cols: int = 512, timesteps: int = 3) -> None:
        super().__init__()
        if rows < 10 or rows % 2 or cols % 2:
            raise ValueError("rows must be even and >= 10; cols even")
        self.rows = rows
        self.cols = cols
        self.timesteps = timesteps
        self.crows = rows // 2 + 1
        self.ccols = cols // 2 + 1
        self._fine0: np.ndarray | None = None
        self._coarse0: np.ndarray | None = None

    def setup(self, runtime) -> None:
        self.fine = runtime.alloc_matrix("ocean.fine", np.float64, self.rows, self.cols)
        self.coarse = runtime.alloc_matrix(
            "ocean.coarse", np.float64, self.crows, self.ccols
        )
        #: lock-protected global residual accumulator, one per timestep.
        self.resid = runtime.alloc_vector("ocean.resid", np.float64, self.timesteps)
        rng = runtime.random.stream("ocean.init")
        self._fine0 = rng.random((self.rows, self.cols))
        self._coarse0 = np.zeros((self.crows, self.ccols))

    # -- helpers -------------------------------------------------------------

    def _sweep(self, mat, lo, hi, colour, halo_prefetch_tag):
        """Red/black half-sweep over owned interior rows of ``mat``."""
        if self.use_prefetch:
            halo = [row for row in (lo - 1, hi) if 0 <= row < mat.rows]
            if halo:
                yield mat.prefetch_row_list(
                    halo,
                    dedup_key=halo_prefetch_tag if self.prefetch_dedup else None,
                )
        # Interior-first: halo-touching rows run last so the prefetch
        # has the interior computation as lead time.
        ordered = [row for row in range(lo + 1, hi - 1)] + [
            row for row in (lo, hi - 1) if lo <= row < hi
        ]
        if hi - lo <= 2:
            ordered = list(range(lo, hi))
        for row in dict.fromkeys(ordered):
            if row % 2 != colour:
                continue
            above = np.asarray((yield mat.read_row(row - 1)))
            below = np.asarray((yield mat.read_row(row + 1)))
            centre = np.asarray((yield mat.read_row(row))).copy()
            yield Compute(self.flops_us(4 * (mat.cols - 2)))
            centre[1:-1] = 0.25 * (above[1:-1] + below[1:-1] + centre[:-2] + centre[2:])
            yield mat.write_row(row, centre)

    # -- program ---------------------------------------------------------------

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        if tid == 0:
            yield Compute(self.flops_us(self.rows * self.cols))
            yield self.fine.write_rows(0, self._fine0)
            yield self.coarse.write_rows(0, self._coarse0)
        yield Barrier(BARRIER_MAIN)

        flo, fhi = block_range(self.rows - 2, threads, tid)
        flo, fhi = flo + 1, fhi + 1
        clo, chi = block_range(self.crows - 2, threads, tid)
        clo, chi = clo + 1, chi + 1

        for step in range(self.timesteps):
            # 1. fine-grid sweep (red, black).
            for colour in (0, 1):
                yield from self._sweep(self.fine, flo, fhi, colour, f"oc:f{step}:{colour}")
                yield Barrier(BARRIER_MAIN)

            # 2. residual reduction under a global lock.
            local_sum = 0.0
            for row in range(flo, fhi):
                values = np.asarray((yield self.fine.read_row(row)))
                local_sum += float(np.abs(values[1:-1]).sum())
            yield Compute(self.flops_us((fhi - flo) * self.cols))
            yield Acquire(RESIDUAL_LOCK)
            current = np.asarray((yield self.resid.read(step, 1)))
            yield self.resid.write(step, current + local_sum)
            yield Compute(2.0)
            yield Release(RESIDUAL_LOCK)
            yield Barrier(BARRIER_MAIN)

            # 3. restriction onto the coarse grid (read remote fine rows).
            if self.use_prefetch:
                remote_rows = [
                    2 * crow
                    for crow in range(clo, chi)
                    if 2 * crow < self.rows - 2 and not flo <= 2 * crow < fhi
                ]
                if remote_rows:
                    yield self.fine.prefetch_row_list(remote_rows)
            for crow in range(clo, chi):
                frow = 2 * crow
                if frow >= self.rows - 2:
                    continue
                fine_row = np.asarray((yield self.fine.read_row(frow)))
                coarse_row = np.asarray((yield self.coarse.read_row(crow))).copy()
                sampled = fine_row[2:-2:2][: self.ccols - 2]
                coarse_row[1 : 1 + len(sampled)] = sampled
                yield Compute(self.flops_us(self.ccols))
                yield self.coarse.write_row(crow, coarse_row)
            yield Barrier(BARRIER_MAIN)

            # 4. coarse-grid sweep (red, black).
            for colour in (0, 1):
                yield from self._sweep(self.coarse, clo, chi, colour, f"oc:c{step}:{colour}")
                yield Barrier(BARRIER_MAIN)

            # 5. interpolated correction back to the fine grid.
            if self.use_prefetch:
                remote_crows = sorted(
                    {
                        (row - 1) // 2 + 1
                        for row in range(flo, fhi)
                        if row % 2 == 1 and (row - 1) // 2 + 1 < self.crows
                    }
                    - set(range(clo, chi))
                )
                if remote_crows:
                    yield self.coarse.prefetch_row_list(remote_crows)
            for row in range(flo, fhi):
                if row % 2 != 1:
                    continue
                crow = (row - 1) // 2 + 1
                if crow >= self.crows:
                    continue
                coarse_row = np.asarray((yield self.coarse.read_row(crow)))
                fine_row = np.asarray((yield self.fine.read_row(row))).copy()
                width = (self.cols - 2 + 1) // 2
                fine_row[1:-1:2] += 0.05 * coarse_row[1 : 1 + width]
                yield Compute(self.flops_us(self.cols))
                yield self.fine.write_row(row, fine_row)
            yield Barrier(BARRIER_MAIN)

    def verify(self, runtime) -> None:
        expected_fine, expected_coarse, _ = ocean_reference(
            self._fine0, self._coarse0, self.timesteps
        )
        actual_fine = runtime.read_matrix(self.fine)
        actual_coarse = runtime.read_matrix(self.coarse)
        if not np.allclose(actual_fine, expected_fine, rtol=1e-10, atol=1e-12):
            worst = np.abs(actual_fine - expected_fine).max()
            raise AssertionError(f"OCEAN fine-grid mismatch: {worst}")
        if not np.allclose(actual_coarse, expected_coarse, rtol=1e-10, atol=1e-12):
            raise AssertionError("OCEAN coarse-grid mismatch")
        # The lock-protected accumulator must hold the global residual;
        # thread contributions sum in arbitrary order, so allow float
        # reassociation slack.
        _, _, expected_residuals = ocean_reference(
            self._fine0, self._coarse0, self.timesteps
        )
        actual_residuals = runtime.read_vector(self.resid)
        for step, expected_value in enumerate(expected_residuals):
            if not np.isclose(actual_residuals[step], expected_value, rtol=1e-9):
                raise AssertionError(
                    f"residual mismatch at step {step}: "
                    f"{actual_residuals[step]} vs {expected_value}"
                )
