"""FFT: the SPLASH-2 six-step 1-D complex FFT.

``n = m*m`` points are viewed as an m x m matrix; the six steps are
transpose, row FFTs, twiddle multiply, transpose, row FFTs, transpose.
The transposes are all-to-all communication: every thread reads a column
block out of every other thread's rows — the dominant source of remote
misses (the paper measures FFT at ~52% memory stall time).

Prefetching follows the compiler-inserted scheme of Section 3.2:
software-pipelined prefetches run a fixed distance ahead of the
transpose loop — and, like the SUIF compiler, cannot distinguish private
from shared rows, so local rows are prefetched too (the paper's 98%
unnecessary-prefetch rate for FFT).

Paper parameters: 256K points.  Scaled default: m=96 (9216 points).
"""

from __future__ import annotations

import numpy as np

from repro.api.ops import Barrier, Compute, Prefetch
from repro.apps.base import BARRIER_MAIN, AppBase, block_range

__all__ = ["Fft", "six_step_reference"]


def six_step_reference(x: np.ndarray, m: int) -> np.ndarray:
    """Sequential six-step FFT (equals ``np.fft.fft(x)``)."""
    n = m * m
    a = x.reshape(m, m)
    b = np.fft.fft(a.T.copy(), axis=1)
    i = np.arange(m).reshape(m, 1)
    j = np.arange(m).reshape(1, m)
    b = b * np.exp(-2j * np.pi * i * j / n)
    c = np.fft.fft(b.T.copy(), axis=1)
    return c.T.copy().reshape(n)


class Fft(AppBase):
    """Six-step FFT over the software DSM."""

    name = "FFT"
    #: Calibrated effective compute rate: preserves the paper-scale
    #: compute-to-communication ratio at the scaled problem size
    #: (see DESIGN.md, "calibration").
    mflops = 1.30

    def __init__(self, m: int = 96, prefetch_distance: int = 4) -> None:
        super().__init__()
        if m < 4:
            raise ValueError("m must be >= 4")
        self.m = m
        self.n = m * m
        self.prefetch_distance = prefetch_distance
        self._input: np.ndarray | None = None

    def setup(self, runtime) -> None:
        m = self.m
        # complex128 stored as 2 float64 per cell -> 16 bytes.
        self.mat_a = runtime.alloc_matrix("fft.a", np.complex128, m, m)
        self.mat_b = runtime.alloc_matrix("fft.b", np.complex128, m, m)
        rng = runtime.random.stream("fft.init")
        self._input = (rng.random(self.n) + 1j * rng.random(self.n)).astype(np.complex128)

    # -- phases -----------------------------------------------------------------

    def _transpose(self, src, dst, lo, hi, phase_tag):
        """dst[i][j] = src[j][i] for the thread's dst rows [lo, hi)."""
        m = self.m
        width = hi - lo
        local = np.empty((width, m), dtype=np.complex128)
        distance = self.prefetch_distance
        if self.use_prefetch:
            # Compiler-style insertion: issue the whole phase's source
            # rows up front (strip-mined into windows), including local
            # rows — the compiler cannot distinguish private data, which
            # is what drives FFT's huge unnecessary-prefetch rate.
            for window_start in range(0, m, max(1, distance)):
                window = range(window_start, min(window_start + distance, m))
                yield Prefetch.of(
                    [src.row_region(row) for row in window],
                    dedup_key=(
                        f"fft:{phase_tag}:{window_start}" if self.prefetch_dedup else None
                    ),
                )
        for j in range(m):
            segment = yield src.read_cell_span(j, lo, width)
            local[:, j] = np.asarray(segment)
            yield Compute(self.flops_us(2 * width))
        for i in range(width):
            yield dst.write_row(lo + i, local[i])

    def _row_ffts(self, mat, lo, hi, twiddle: bool):
        m = self.m
        n = self.n
        fft_flops = 5 * m * np.log2(m)
        cols = np.arange(m)
        for i in range(lo, hi):
            row = yield mat.read_row(i)
            values = np.fft.fft(np.asarray(row))
            yield Compute(self.flops_us(fft_flops))
            if twiddle:
                values = values * np.exp(-2j * np.pi * i * cols / n)
                yield Compute(self.flops_us(8 * m))
            yield mat.write_row(i, values)

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        m = self.m
        if tid == 0:
            yield Compute(self.flops_us(self.n))
            yield self.mat_a.write_rows(0, self._input.reshape(m, m))
        yield Barrier(BARRIER_MAIN)

        lo, hi = block_range(m, threads, tid)
        yield from self._transpose(self.mat_a, self.mat_b, lo, hi, "t1")
        yield Barrier(BARRIER_MAIN)
        yield from self._row_ffts(self.mat_b, lo, hi, twiddle=True)
        yield Barrier(BARRIER_MAIN)
        yield from self._transpose(self.mat_b, self.mat_a, lo, hi, "t2")
        yield Barrier(BARRIER_MAIN)
        yield from self._row_ffts(self.mat_a, lo, hi, twiddle=False)
        yield Barrier(BARRIER_MAIN)
        yield from self._transpose(self.mat_a, self.mat_b, lo, hi, "t3")
        yield Barrier(BARRIER_MAIN)

    def verify(self, runtime) -> None:
        expected = np.fft.fft(self._input)
        actual = runtime.read_matrix(self.mat_b).reshape(self.n)
        if not np.allclose(actual, expected, rtol=1e-8, atol=1e-8):
            worst = np.abs(actual - expected).max()
            raise AssertionError(f"FFT mismatch: max abs error {worst}")
        reference = six_step_reference(self._input, self.m)
        if not np.allclose(reference, expected, rtol=1e-8, atol=1e-8):
            raise AssertionError("FFT six-step reference disagrees with np.fft.fft")
