"""RADIX: the SPLASH-2 parallel integer radix sort.

Each pass sorts one digit: threads build local histograms of their key
slice, a prefix-sum over all histograms assigns every (thread, bucket)
pair its global output offset, and the permutation phase writes each
thread's keys — grouped by bucket — into the destination array at those
offsets.  The permutation scatters writes across the whole destination
array, so every page is written by many threads (heavy false sharing)
and read remotely in the next pass: RADIX is the most
communication-intensive application in the paper (and the one whose
loop structure leaves prefetches no time to hide latency — its
prefetches are issued right before the data is used).

Paper parameters: 2^20 keys, max 2^21, radix 1024.  Scaled default:
16384 keys, max 2^21, radix 128 (3 passes).
"""

from __future__ import annotations

import numpy as np

from repro.api.ops import Barrier, Compute, Prefetch
from repro.apps.base import BARRIER_MAIN, AppBase, block_range

__all__ = ["Radix"]


class Radix(AppBase):
    """Parallel radix sort over the software DSM."""

    name = "RADIX"
    #: Calibrated (DESIGN.md): RADIX is the least compute-bound app.
    mflops = 4.4

    def __init__(
        self, num_keys: int = 16384, max_key: int = 1 << 21, digit_bits: int = 7
    ) -> None:
        super().__init__()
        if num_keys < 64:
            raise ValueError("need at least 64 keys")
        if not 1 <= digit_bits <= 16:
            raise ValueError("digit_bits must be in [1, 16]")
        self.num_keys = num_keys
        self.max_key = max_key
        self.digit_bits = digit_bits
        self.radix = 1 << digit_bits
        # Keys are drawn from [0, max_key), so the widest key has
        # (max_key - 1).bit_length() bits.
        key_bits = max(1, (max_key - 1).bit_length())
        self.passes = -(-key_bits // digit_bits)
        self._input: np.ndarray | None = None

    def setup(self, runtime) -> None:
        self.arr_a = runtime.alloc_vector("radix.a", np.int64, self.num_keys)
        self.arr_b = runtime.alloc_vector("radix.b", np.int64, self.num_keys)
        threads = runtime.config.total_threads
        self.hist = runtime.alloc_matrix("radix.hist", np.int64, threads, self.radix)
        self.offsets = runtime.alloc_matrix("radix.off", np.int64, threads, self.radix)
        rng = runtime.random.stream("radix.keys")
        self._input = rng.integers(0, self.max_key, self.num_keys).astype(np.int64)

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        if tid == 0:
            yield Compute(self.flops_us(self.num_keys))
            yield self.arr_a.write(0, self._input)
        yield Barrier(BARRIER_MAIN)

        lo, hi = block_range(self.num_keys, threads, tid)
        count = hi - lo
        src, dst = self.arr_a, self.arr_b
        for pass_no in range(self.passes):
            shift = pass_no * self.digit_bits
            # Phase 1: local histogram of the thread's slice of src.
            if self.use_prefetch:
                # The source slice was scattered here by the previous
                # pass — prefetch it at phase entry, well ahead of use.
                step = 2 if (self.throttle_prefetch and pass_no % 1 == 0) else 1
                region = src.region(lo, count)
                if step == 1:
                    yield Prefetch.of([region])
                else:
                    # Throttled: every other page only (Section 5.1).
                    page = runtime.config.page_size
                    addr, nbytes = region
                    pages = range(addr // page, (addr + nbytes + page - 1) // page, step)
                    yield Prefetch.of([(p * page, 1) for p in pages])
            keys = np.asarray((yield src.read(lo, count)))
            digits = (keys >> shift) & (self.radix - 1)
            local_hist = np.bincount(digits, minlength=self.radix).astype(np.int64)
            yield Compute(self.flops_us(2 * count))
            yield self.hist.write_row(tid, local_hist)
            yield Barrier(BARRIER_MAIN)

            # Phase 2: thread 0 computes global offsets.
            if tid == 0:
                all_hists = np.asarray(
                    (yield self.hist.read_rows(0, threads))
                ).reshape(threads, self.radix)
                totals = all_hists.sum(axis=0)
                bucket_starts = np.concatenate(([0], np.cumsum(totals)[:-1]))
                within = np.cumsum(all_hists, axis=0) - all_hists
                offsets = bucket_starts[None, :] + within
                yield Compute(self.flops_us(3 * threads * self.radix))
                yield self.offsets.write_rows(0, offsets.astype(np.int64))
            yield Barrier(BARRIER_MAIN)

            # Phase 3: permutation — scatter keys into dst, grouped by
            # bucket (stable: threads in tid order within each bucket).
            my_offsets = np.asarray((yield self.offsets.read_row(tid)))
            order = np.argsort(digits, kind="stable")
            yield Compute(self.flops_us(5 * count))
            sorted_digits = digits[order]
            sorted_keys = keys[order]
            if count == 0:
                starts = ends = np.array([], dtype=np.int64)
            else:
                boundaries = np.flatnonzero(np.diff(sorted_digits)) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [count]))
            throttle = self.use_prefetch and self.throttle_prefetch
            runs = [
                (int(my_offsets[int(sorted_digits[s])]), s, e)
                for s, e in zip(starts, ends)
            ]
            distance = 4  # software-pipelining depth
            for run_index, (position, start, end) in enumerate(runs):
                if self.use_prefetch and run_index % distance == 0:
                    # Software-pipelined destination prefetches: the
                    # addresses become known only inside the permutation
                    # loop, so the pipeline depth is all the lead RADIX
                    # can get — they are still largely "too late", the
                    # paper's RADIX signature (Section 5.2).  The
                    # combined scheme throttles every other window.
                    window = runs[run_index + distance : run_index + 2 * distance]
                    if throttle:
                        window = window[::2]
                    if window:
                        yield Prefetch.of(
                            [(dst.addr(p), (e - s) * 8) for p, s, e in window]
                        )
                yield dst.write(position, sorted_keys[start:end])
            yield Barrier(BARRIER_MAIN)
            src, dst = dst, src

        # One more barrier so the final array is globally consistent.
        yield Barrier(BARRIER_MAIN)

    def verify(self, runtime) -> None:
        final = self.arr_a if self.passes % 2 == 0 else self.arr_b
        result = runtime.read_vector(final)
        if not np.array_equal(np.sort(self._input), result):
            raise AssertionError("RADIX output not sorted")
