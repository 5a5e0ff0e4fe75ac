"""Unit tests for the write-notice log."""

import bisect
import random

import pytest

from repro.dsm import WriteNotice, WriteNoticeLog
from repro.dsm.writenotice import WIRE_BYTES_PER_NOTICE


def wn(proc, idx, page, lamport=None):
    return WriteNotice(proc, idx, lamport if lamport is not None else idx, page)


def test_add_and_duplicate_detection():
    log = WriteNoticeLog(4)
    log.merge([wn(1, 1, 7)])
    log.merge([wn(1, 1, 7)])  # exact duplicate
    assert log.total() == 1
    assert log.notices_for_page(7) == [wn(1, 1, 7)]


def test_out_of_order_insertion_keeps_sorted():
    log = WriteNoticeLog(4)
    log.merge([wn(1, 3, 7)])
    log.merge([wn(1, 1, 8), wn(1, 1, 9)])  # a missed older interval, whole
    notices = log.notices_from(1)
    assert [(n.interval_idx, n.page_id) for n in notices] == [(1, 8), (1, 9), (3, 7)]


def test_unseen_by_filters_on_vector_clock():
    log = WriteNoticeLog(3)
    log.merge([wn(0, 1, 10), wn(0, 2, 11), wn(1, 1, 12)])
    missing = log.unseen_by((1, 0, 0))
    assert {(n.proc, n.interval_idx) for n in missing} == {(0, 2), (1, 1)}
    assert log.unseen_by((2, 1, 0)) == []


def test_own_notices_after():
    log = WriteNoticeLog(2)
    for idx in (1, 2, 3):
        log.merge([wn(0, idx, idx * 10)])
    after = log.own_notices_after(0, 1)
    assert [n.interval_idx for n in after] == [2, 3]


def test_wire_bytes():
    notices = [wn(0, 1, 5), wn(1, 2, 6)]
    assert WriteNoticeLog.wire_bytes(notices) == 2 * WIRE_BYTES_PER_NOTICE


def test_merge_keeps_new_intervals_only():
    log = WriteNoticeLog(2)
    log.merge([wn(0, 1, 5), wn(0, 1, 6)])
    log.merge([wn(0, 1, 5), wn(0, 1, 6), wn(1, 1, 6)])  # interval (0, 1) is held
    assert log.total() == 3
    assert log.notices_for_page(6) == [wn(0, 1, 6), wn(1, 1, 6)]


def test_merge_skips_the_receivers_own_runs():
    log = WriteNoticeLog(3)
    log.merge([wn(0, 1, 5), wn(2, 1, 5), wn(2, 1, 6), wn(1, 4, 6)], skip_proc=2)
    assert log.notices_from(2) == [] and log.total() == 2
    assert log.notices_for_page(5) == [wn(0, 1, 5)]
    assert log.notices_for_page(6) == [wn(1, 4, 6)]


# -- the per-notice log this one replaced, kept as the reference ------------------


class ReferenceLog:
    """``WriteNoticeLog`` as it was: one insertion per notice, deduplicated
    by a ``(proc, interval_idx, page_id)`` tuple in two sets."""

    def __init__(self, num_nodes):
        self._by_proc = [[] for _ in range(num_nodes)]
        self._by_page = {}
        self._seen_full = set()
        self._seen_page = set()

    def add(self, notice, full=True):
        key = (notice.proc, notice.interval_idx, notice.page_id)
        if key not in self._seen_page:
            self._seen_page.add(key)
            self._by_page.setdefault(notice.page_id, []).append(notice)
        if not full or key in self._seen_full:
            return
        self._seen_full.add(key)
        known = self._by_proc[notice.proc]
        if known and known[-1].interval_idx > notice.interval_idx:
            bisect.insort(known, notice, key=lambda n: n.interval_idx)
        else:
            known.append(notice)

    def merge(self, notices, full=True, skip_proc=-1):
        for notice in notices:
            if notice.proc != skip_proc:
                self.add(notice, full)

    def notices_for_page(self, page_id):
        return list(self._by_page.get(page_id, ()))

    def unseen_by(self, vc_snapshot):
        return [
            n
            for proc, known in enumerate(self._by_proc)
            for n in known
            if n.interval_idx > vc_snapshot[proc]
        ]

    def own_notices_after(self, proc, interval_idx):
        return [n for n in self._by_proc[proc] if n.interval_idx > interval_idx]

    def total(self):
        return sum(len(known) for known in self._by_proc)

    def snapshot_state(self):
        return {
            "by_proc": [list(known) for known in self._by_proc],
            "by_page": {pid: list(ns) for pid, ns in self._by_page.items()},
            "seen_full": set(self._seen_full),
            "seen_page": set(self._seen_page),
        }

    def restore_state(self, snap):
        self._by_proc = [list(known) for known in snap["by_proc"]]
        self._by_page = {pid: list(ns) for pid, ns in snap["by_page"].items()}
        self._seen_full = set(snap["seen_full"])
        self._seen_page = set(snap["seen_page"])


PROCS, PAGES, INTERVALS, ME = 5, 12, 9, 2


def _world(rng):
    """Every interval every proc ever closes: ``world[proc][idx]`` is the
    interval's whole notice list, pages sorted, one lamport each."""
    lamport = 0
    world = [{} for _ in range(PROCS)]
    for idx in range(1, INTERVALS + 1):
        for proc in range(PROCS):
            lamport += 1
            pages = sorted(rng.sample(range(PAGES), rng.randrange(1, 5)))
            world[proc][idx] = [WriteNotice(proc, idx, lamport, page) for page in pages]
    return world


def _full_batch(rng, world):
    """Shaped like ``unseen_by``: per proc, ascending whole intervals —
    any subset, so duplicates and missed older intervals both occur."""
    batch = []
    for proc in rng.sample(range(PROCS), rng.randrange(1, PROCS + 1)):
        for idx in sorted(rng.sample(range(1, INTERVALS + 1), rng.randrange(1, 4))):
            batch.extend(world[proc][idx])
    return batch


def _page_batch(rng, world):
    """Shaped like ``reply_notices``: one page's history, a random part."""
    page = rng.randrange(PAGES)
    history = [
        n
        for proc in range(PROCS)
        for idx in range(1, INTERVALS + 1)
        for n in world[proc][idx]
        if n.page_id == page and rng.random() < 0.5
    ]
    rng.shuffle(history)
    return history


def _assert_equal_views(log, ref, rng):
    assert log.total() == ref.total()
    for page in range(PAGES):
        assert log.notices_for_page(page) == ref.notices_for_page(page)
    for _ in range(4):
        vc = tuple(rng.randrange(0, INTERVALS + 1) for _ in range(PROCS))
        assert log.unseen_by(vc) == ref.unseen_by(vc)
    proc, idx = rng.randrange(PROCS), rng.randrange(0, INTERVALS)
    assert log.own_notices_after(proc, idx) == ref.own_notices_after(proc, idx)


@pytest.mark.parametrize("seed", range(20))
def test_merge_matches_the_per_notice_log_on_whole_interval_traffic(seed):
    rng = random.Random(seed)
    world = _world(rng)
    log, ref = WriteNoticeLog(PROCS), ReferenceLog(PROCS)
    saved = None
    for step in range(60):
        roll = rng.random()
        if roll < 0.55:
            batch, full = _full_batch(rng, world), True
        elif roll < 0.9:
            batch, full = _page_batch(rng, world), False
        elif saved is None:
            saved = (log.snapshot_state(), ref.snapshot_state(), step)
            continue
        else:
            # Roll both back, then make sure the snapshot shared nothing
            # mutable with what was merged after it was taken.
            log.restore_state(saved[0])
            ref.restore_state(saved[1])
            _assert_equal_views(log, ref, rng)
            saved = None
            continue
        # A receiver skips its own notices on the acquire path only.
        skip = ME if rng.random() < 0.7 else -1
        log.merge(batch, full=full, skip_proc=skip)
        ref.merge(batch, full=full, skip_proc=skip)
        _assert_equal_views(log, ref, rng)
    assert log.total() > PROCS  # the traffic did land


def test_snapshot_round_trip_rebuilds_the_held_interval_index():
    log = WriteNoticeLog(3)
    log.merge([wn(0, 1, 4), wn(0, 1, 5), wn(1, 2, 4)])
    log.merge([wn(0, 3, 9)], full=False)
    snap = log.snapshot_state()
    log.merge([wn(0, 2, 6), wn(2, 1, 7)])
    log.restore_state(snap)
    assert log.total() == 3 and log.notices_from(2) == []
    log.merge([wn(0, 1, 4), wn(0, 1, 5)])  # held before the snapshot: a duplicate
    log.merge([wn(0, 2, 6)])  # merged after it: new again
    log.merge([wn(0, 3, 9)])  # was page-filtered only: the full upgrade lands
    assert [(n.interval_idx, n.page_id) for n in log.notices_from(0)] == [
        (1, 4), (1, 5), (2, 6), (3, 9),
    ]
    assert log.notices_for_page(9) == [wn(0, 3, 9)]
