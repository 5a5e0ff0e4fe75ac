"""Unit tests for interval tracking and the diff store."""

import numpy as np

from repro.dsm import DiffStore, IntervalManager, IntervalRecord, StoredDiff
from repro.memory import make_diff


def stored(proc, covers, lamport, page=0):
    twin = np.zeros(8, dtype=np.uint8)
    return StoredDiff(proc, covers, lamport, make_diff(page, twin, twin + 1))


def test_interval_dirty_tracking():
    manager = IntervalManager(owner=1)
    assert not manager.has_modifications
    manager.record_write(5)
    manager.record_write(5)
    manager.record_write(9)
    assert manager.dirty_pages == frozenset({5, 9})


def test_take_dirty_clears():
    manager = IntervalManager(owner=0)
    manager.record_write(1)
    assert manager.take_dirty() == {1}
    assert manager.take_dirty() == set()


def test_close_emits_sorted_notices_and_bumps_lamport():
    from repro.api.runtime import DsmRuntime, RunConfig

    backend = DsmRuntime(RunConfig(num_nodes=4)).dsm_nodes[2].backend
    manager = backend.intervals
    manager.record_write(9)
    manager.record_write(3)
    before = manager.lamport
    assert backend._close_interval() == (3, 9)
    assert manager.lamport == before + 1 and not manager.has_modifications
    assert backend.vc[2] == 1
    # Logged as one record for the whole interval.
    assert backend.wn_log.own_notices_after(2, 0) == [IntervalRecord(2, 1, before + 1, (3, 9))]
    assert backend._close_interval() == ()  # nothing written: no interval, no clock bump
    assert backend.vc[2] == 1 and manager.lamport == before + 1


def test_observe_lamport_keeps_max():
    manager = IntervalManager(owner=0)
    manager.observe_lamport(10)
    manager.observe_lamport(5)
    assert manager.lamport == 10


def test_diff_store_diffs_after():
    store = DiffStore()
    store.add(stored(0, covers=1, lamport=1))
    store.add(stored(0, covers=3, lamport=2))
    assert len(store.diffs_after(0, 0)) == 2
    assert len(store.diffs_after(0, 1)) == 1
    assert store.diffs_after(0, 3) == []
    assert store.diffs_after(99, 0) == []


def test_diff_store_latest_coverage():
    store = DiffStore()
    assert store.latest_coverage(0) == 0
    store.add(stored(0, covers=2, lamport=1))
    assert store.latest_coverage(0) == 2
