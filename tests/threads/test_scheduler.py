"""Behavioural tests for the thread scheduler through small programs."""

import numpy as np
import pytest

from repro import Barrier, Compute, DsmRuntime, Program, Read, RunConfig, Write
from repro.metrics.counters import Category
from repro.threads import SchedulingPolicy


def test_policies():
    single = SchedulingPolicy.single_threaded()
    assert not single.switch_on_memory and not single.switch_on_sync
    multi = SchedulingPolicy.multithreaded()
    assert multi.switch_on_memory and multi.switch_on_sync
    combined = SchedulingPolicy.sync_only()
    assert not combined.switch_on_memory and combined.switch_on_sync


class OverlapProbe(Program):
    """One thread stalls on remote memory; the other computes.  Under
    multithreading the compute must overlap the stall."""

    name = "overlap"

    def setup(self, runtime):
        self.vec = runtime.alloc_vector("v", np.float64, 4096)

    def thread_body(self, runtime, tid):
        if tid == 0:
            yield self.vec.write(0, np.ones(4096))
        yield Barrier(0)
        if tid % runtime.config.threads_per_node == 0 and tid // runtime.config.threads_per_node == 1:
            # First thread of node 1: fault on node 0's data.
            _ = yield self.vec.read(0, 4096)
        else:
            yield Compute(2000.0)
        yield Barrier(0)

    def verify(self, runtime):
        pass


def test_multithreading_overlaps_memory_stalls():
    single = DsmRuntime(RunConfig(num_nodes=2, threads_per_node=1)).execute(OverlapProbe())
    multi = DsmRuntime(RunConfig(num_nodes=2, threads_per_node=4)).execute(OverlapProbe())
    # With 4 threads per node the fault overlaps the siblings' compute,
    # so memory idle shrinks relative to the single-threaded run.
    single_idle = single.breakdown.times[Category.MEMORY_IDLE]
    multi_idle = multi.breakdown.times[Category.MEMORY_IDLE]
    assert multi_idle < single_idle


class MissStorm(Program):
    """Non-initializing nodes read 32 distinct remote pages."""

    name = "miss-storm"

    PAGES = 32
    CELLS = 512  # one 4 KB page of float64

    def setup(self, runtime):
        self.vec = runtime.alloc_vector("v", np.float64, self.PAGES * self.CELLS)

    def thread_body(self, runtime, tid):
        tpn = runtime.config.threads_per_node
        if tid == 0:
            yield self.vec.write(0, np.ones(self.PAGES * self.CELLS))
        yield Barrier(0)
        if tid // tpn != 0:
            for page in range(tid % tpn, self.PAGES, tpn):
                _ = yield self.vec.read(page * self.CELLS, self.CELLS)
        yield Barrier(0)

    def verify(self, runtime):
        assert np.all(runtime.read_vector(self.vec) == 1.0)


def test_mt_overlaps_independent_misses():
    """The mechanism behind Figure 4, isolated from the applications: in
    a pure remote-miss storm the threads overlap each other's stalls, so
    wall time drops from 1 to 4 threads per node while per-miss latency
    rises (more outstanding requests share the same links) — the trade
    the paper describes."""
    walls = {}
    latencies = {}
    for tpn in (1, 2, 4):
        report = DsmRuntime(RunConfig(num_nodes=2, threads_per_node=tpn)).execute(MissStorm())
        walls[tpn] = report.wall_time_us
        latencies[tpn] = report.events.avg_miss_stall
    assert walls[2] < 0.8 * walls[1]
    assert walls[4] < 0.6 * walls[1]
    assert latencies[4] > latencies[1]


def test_context_switches_charged_only_when_multithreaded():
    single = DsmRuntime(RunConfig(num_nodes=2)).execute(OverlapProbe())
    assert single.events.context_switches == 0
    assert single.breakdown.times[Category.MT] == 0.0
    multi = DsmRuntime(RunConfig(num_nodes=2, threads_per_node=4)).execute(OverlapProbe())
    assert multi.events.context_switches > 0
    assert multi.breakdown.times[Category.MT] > 0.0


def test_run_lengths_recorded_on_stalls():
    report = DsmRuntime(RunConfig(num_nodes=2)).execute(OverlapProbe())
    assert report.events.run_lengths_count > 0


def test_breakdown_idle_split_memory_vs_sync():
    report = DsmRuntime(RunConfig(num_nodes=2)).execute(OverlapProbe())
    times = report.breakdown.times
    assert times[Category.MEMORY_IDLE] > 0  # the fault
    assert times[Category.SYNC_IDLE] > 0  # the skewed barrier
