"""End-to-end smoke tests: small hand-written programs through the full
stack (threads -> scheduler -> DSM protocol -> network -> verification).
"""

import numpy as np
import pytest

from repro import Barrier, Compute, DsmRuntime, Program, Read, RunConfig, Write
from repro.api.ops import Acquire, Release


class ProducerConsumer(Program):
    """Thread 0 writes a vector; after a barrier everyone reads it."""

    name = "producer-consumer"

    def __init__(self, length=512):
        self.length = length
        self.reads = {}

    def setup(self, runtime):
        self.vec = runtime.alloc_vector("data", np.float64, self.length)

    def thread_body(self, runtime, tid):
        if tid == 0:
            values = np.arange(self.length, dtype=np.float64)
            yield Write(self.vec.addr(0), values)
        yield Barrier(0)
        data = yield Read(self.vec.addr(0), self.length * 8, dtype=np.float64)
        self.reads[tid] = np.asarray(data).copy()
        yield Compute(10.0)
        yield Barrier(0)

    def verify(self, runtime):
        expected = np.arange(self.length, dtype=np.float64)
        for tid, seen in self.reads.items():
            assert np.array_equal(seen, expected), f"thread {tid} saw stale data"
        assert np.array_equal(runtime.read_vector(self.vec), expected)


class LockedCounter(Program):
    """All threads increment a shared counter under one lock."""

    name = "locked-counter"

    def __init__(self, increments=5):
        self.increments = increments

    def setup(self, runtime):
        self.counter = runtime.alloc_vector("counter", np.int64, 1)

    def thread_body(self, runtime, tid):
        yield Barrier(0)
        for _ in range(self.increments):
            yield Acquire(0)
            value = yield Read(self.counter.addr(0), 8, dtype=np.int64)
            yield Compute(5.0)
            yield Write(self.counter.addr(0), np.asarray(value) + 1)
            yield Release(0)
        yield Barrier(0)

    def verify(self, runtime):
        total = runtime.read_vector(self.counter)[0]
        expected = self.increments * runtime.config.total_threads
        assert total == expected, f"counter={total}, want {expected}"


def run(program, **config_kwargs):
    return DsmRuntime(RunConfig(**config_kwargs)).execute(program)


def test_producer_consumer_two_nodes():
    report = run(ProducerConsumer(), num_nodes=2)
    assert report.wall_time_us > 0
    assert report.events.remote_misses > 0  # node 1 faulted on the data


def test_producer_consumer_eight_nodes():
    report = run(ProducerConsumer(length=2048), num_nodes=8)
    # Every non-initializing node faulted on node 0's pages.
    assert report.events.remote_misses >= 7


def test_producer_consumer_multithreaded():
    report = run(ProducerConsumer(), num_nodes=4, threads_per_node=4)
    assert report.threads_per_node == 4
    assert report.events.context_switches > 0


def test_locked_counter_sequentially_consistent():
    run(LockedCounter(increments=4), num_nodes=2)


def test_locked_counter_eight_nodes():
    report = run(LockedCounter(increments=3), num_nodes=8)
    assert report.events.remote_lock_misses > 0


def test_locked_counter_multithreaded_combining():
    report = run(LockedCounter(increments=2), num_nodes=4, threads_per_node=2)
    run(LockedCounter(increments=2), num_nodes=4, threads_per_node=2)
    assert report.events.remote_misses >= 0  # smoke: completed + verified


def test_breakdown_accounts_most_of_wall_time():
    report = run(ProducerConsumer(length=4096), num_nodes=4)
    total = report.breakdown.total
    wall_area = report.wall_time_us * report.num_nodes
    # Charged + idle time should cover most of the run (scheduler slack
    # and in-flight handler remainders account for the rest).
    assert total <= wall_area * 1.01
    assert total >= wall_area * 0.5


def test_deterministic_wall_time():
    a = run(ProducerConsumer(length=1024), num_nodes=4)
    b = run(ProducerConsumer(length=1024), num_nodes=4)
    assert a.wall_time_us == b.wall_time_us
    assert a.total_messages == b.total_messages


def test_prefetch_config_runs():
    report = run(ProducerConsumer(length=2048), num_nodes=4, prefetch=True)
    assert report.prefetch_stats is not None
