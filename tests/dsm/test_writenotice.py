"""Unit tests for the interval-record log, and its equivalence — with the
demand-driven per-page state above it — to the eager per-notice design
it replaced, which lives on here as the reference."""

import bisect
import copy
import random
from collections import namedtuple

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.dsm import IntervalRecord, PageCoherence, WriteNoticeLog
from repro.dsm.writenotice import indexed, wire_bytes

#: One write notice, as the wire and the old log knew it.
Notice = namedtuple("Notice", "proc interval_idx lamport page_id")


#: The record index the logs below share, as a run's nodes share theirs:
#: a record is indexed when it is created.
RECORDS = {}


def rec(proc, idx, *pages, lamport=None):
    record = IntervalRecord(proc, idx, lamport if lamport is not None else idx, pages)
    return indexed(RECORDS, record)


def new_log(num_nodes):
    return WriteNoticeLog(num_nodes, RECORDS)


@pytest.fixture(autouse=True)
def fresh_records():
    """Each test is one run: its records name only its own logs' procs."""
    RECORDS.clear()


def notices_for_page(log, page_id):
    """The page's history as a list (asking makes the log hold the page)."""
    return list(log.history(page_id).values())


def flat(records):
    """The per-notice view of a batch: page by page, in order."""
    return [Notice(r.proc, r.interval_idx, r.lamport, page) for r in records for page in r.pages]


def test_add_and_duplicate_detection():
    log = new_log(4)
    log.merge([rec(1, 1, 7)])
    log.merge([rec(1, 1, 7)])  # exact duplicate
    assert log.total() == 1
    assert notices_for_page(log, 7) == [rec(1, 1, 7)]


def test_out_of_order_insertion_keeps_sorted():
    log = new_log(4)
    log.merge([rec(1, 3, 7)])
    log.merge([rec(1, 1, 8, 9)])  # a missed older interval
    assert log.own_notices_after(1, 0) == [rec(1, 1, 8, 9), rec(1, 3, 7)]


def test_unseen_by_filters_on_vector_clock():
    log = new_log(3)
    log.merge([rec(0, 1, 10), rec(0, 2, 11), rec(1, 1, 12)])
    missing = log.unseen_by((1, 0, 0))
    assert [(r.proc, r.interval_idx) for r in missing] == [(0, 2), (1, 1)]
    assert log.unseen_by((2, 1, 0)) == []


def test_own_notices_after():
    log = new_log(2)
    for idx in (1, 2, 3):
        log.merge([rec(0, idx, idx * 10)])
    assert [r.interval_idx for r in log.own_notices_after(0, 1)] == [2, 3]
    assert log.own_notices_after(0, 3) == [] and len(log.own_notices_after(0, 0)) == 3


def test_wire_bytes():
    # A 12-byte (proc, interval, lamport) header per record, 4 bytes per page.
    assert wire_bytes([rec(0, 1, 5), rec(1, 2, 6, 7)]) == 2 * 12 + 3 * 4
    assert wire_bytes([]) == 0


def test_merge_keeps_new_intervals_only():
    log = new_log(2)
    notices_for_page(log, 6)  # held from the start: its history is in arrival order
    log.merge([rec(0, 1, 5, 6)])
    log.merge([rec(0, 1, 5, 6), rec(1, 1, 6)])  # interval (0, 1) is held
    assert log.total() == 3  # pages, not records
    assert notices_for_page(log, 6) == [rec(0, 1, 5, 6), rec(1, 1, 6)]


def test_merge_skips_the_receivers_own_runs():
    log = new_log(3)
    log.merge([rec(0, 1, 5), rec(2, 1, 5, 6), rec(1, 4, 6)], skip_proc=2)
    assert log.own_notices_after(2, 0) == [] and log.total() == 2
    assert notices_for_page(log, 5) == [rec(0, 1, 5)]
    assert notices_for_page(log, 6) == [rec(1, 4, 6)]


def test_a_page_not_held_costs_no_history():
    log = new_log(3)
    log.merge([rec(0, 1, 5, 6, 7), rec(1, 1, 6)])
    assert log._by_page == {}
    assert notices_for_page(log, 6) == [rec(0, 1, 5, 6, 7), rec(1, 1, 6)]  # built on demand
    log.merge([rec(1, 2, 6, 7)])  # ... and kept current from then on
    assert list(log._by_page) == [6]
    assert notices_for_page(log, 6)[-1] == rec(1, 2, 6, 7)


def test_a_first_history_is_in_per_proc_interval_order():
    log = new_log(3)
    log.merge([rec(2, 1, 4), rec(0, 2, 4), rec(1, 1, 4, 5), rec(0, 1, 4)])
    assert [(r.proc, r.interval_idx) for r in notices_for_page(log, 4)] == [
        (0, 1), (0, 2), (1, 1), (2, 1)
    ]


def test_a_first_history_holds_the_logged_record_not_its_key():
    """A rollback closes an interval again as a new record under the same
    key; a page only the discarded one named has no history entry."""
    log = new_log(2)
    discarded = rec(1, 1, 5, 6)
    again = rec(1, 1, 5)
    log.merge([again])
    assert notices_for_page(log, 6) == []
    assert [record is again for record in notices_for_page(log, 5)] == [True]
    assert discarded.pages == (5, 6)


def test_only_cuts_a_record_down_to_one_page():
    wide = rec(1, 4, 2, 3, 5, lamport=9)
    assert wide.only(3) == IntervalRecord(1, 4, 9, (3,))
    narrow = rec(1, 4, 3)
    assert narrow.only(3) is narrow


# -- the per-notice log this one replaced, kept as the reference ------------------


class ReferenceLog:
    """``WriteNoticeLog`` as it first was: one insertion per notice,
    deduplicated by a ``(proc, interval_idx, page_id)`` tuple in two sets,
    a history for every page any notice names."""

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


def _world(rng, records=RECORDS):
    """Every interval every proc ever closes: ``world[proc][idx]`` is the
    interval's record, pages sorted, one lamport each, entered in the
    ``records`` index its logs read."""
    lamport = 0
    world = [{} for _ in range(PROCS)]
    for idx in range(1, INTERVALS + 1):
        for proc in range(PROCS):
            lamport += 1
            pages = sorted(rng.sample(range(PAGES), rng.randrange(1, 5)))
            world[proc][idx] = indexed(records, IntervalRecord(proc, idx, lamport, tuple(pages)))
    return world


def _full_batch(rng, world):
    """Shaped like ``unseen_by``: per proc, ascending intervals — any
    subset, so duplicates and missed older intervals both occur."""
    batch = []
    for proc in rng.sample(range(PROCS), rng.randrange(1, PROCS + 1)):
        for idx in sorted(rng.sample(range(1, INTERVALS + 1), rng.randrange(1, 4))):
            batch.append(world[proc][idx])
    return batch


def _page_batch(rng, world):
    """Shaped like ``reply_notices``: one page's history, a random part,
    every record cut down to that page."""
    page = rng.randrange(PAGES)
    history = [
        world[proc][idx].only(page)
        for proc in range(PROCS)
        for idx in range(1, INTERVALS + 1)
        if page in world[proc][idx].pages and rng.random() < 0.5
    ]
    rng.shuffle(history)
    return history


def _assert_equal_views(log, ref, rng):
    assert log.total() == ref.total()
    for page in range(PAGES):
        # Every page is asked about from the first step on, so each is
        # held while the log is still empty and its history is in
        # arrival order, exactly the reference's.
        assert flat(r.only(page) for r in notices_for_page(log, page)) == ref.notices_for_page(page)
    for _ in range(4):
        vc = tuple(rng.randrange(0, INTERVALS + 1) for _ in range(PROCS))
        assert flat(log.unseen_by(vc)) == ref.unseen_by(vc)
    proc, idx = rng.randrange(PROCS), rng.randrange(0, INTERVALS)
    assert flat(log.own_notices_after(proc, idx)) == ref.own_notices_after(proc, idx)


@pytest.mark.parametrize("seed", range(20))
def test_merge_matches_the_per_notice_log_on_whole_interval_traffic(seed):
    rng = random.Random(seed)
    world = _world(rng)
    log, ref = new_log(PROCS), ReferenceLog(PROCS)
    _assert_equal_views(log, ref, rng)
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
        ref.merge(flat(batch), full=full, skip_proc=skip)
        _assert_equal_views(log, ref, rng)
    assert log.total() > PROCS  # the traffic did land


def test_snapshot_round_trip_rebuilds_the_held_interval_index():
    log = new_log(3)
    log.merge([rec(0, 1, 4, 5), rec(1, 2, 4)])
    log.merge([rec(0, 3, 9)], full=False)
    snap = log.snapshot_state()
    assert set(snap["by_page"]) == {9}  # only the page that is held
    log.merge([rec(0, 2, 6), rec(2, 1, 7)])
    log.restore_state(snap)
    assert log.total() == 3 and log.own_notices_after(2, 0) == []
    log.merge([rec(0, 1, 4, 5)])  # held before the snapshot: a duplicate
    log.merge([rec(0, 2, 6)])  # merged after it: new again
    log.merge([rec(0, 3, 9)])  # was page-filtered only: the full upgrade lands
    assert log.own_notices_after(0, 0) == [rec(0, 1, 4, 5), rec(0, 2, 6), rec(0, 3, 9)]
    assert log.total() == 5
    assert notices_for_page(log, 9) == [rec(0, 3, 9)]


# -- the eager acquire path, kept as the reference for the demand-driven one ------


class EagerNode:
    """One node's notice state as it was before ISSUE 21: the per-notice
    log above, and a ``PageCoherence`` created for — and updated by —
    every notice that arrives, whether or not the node ever uses the page."""

    def __init__(self, num_nodes, node_id):
        self.num_nodes = num_nodes
        self.node_id = node_id
        self.log = ReferenceLog(num_nodes)
        self.vc = [0] * num_nodes
        self.lamport = 0
        self.pages = {}

    def coherence(self, page_id):
        state = self.pages.get(page_id)
        if state is None:
            state = self.pages[page_id] = PageCoherence(page_id, self.num_nodes)
        return state

    def apply(self, notices, advance_vc=True):
        """``LrcBackend.apply_notices_charged`` at the parent commit."""
        self.log.merge(notices, full=advance_vc, skip_proc=self.node_id)
        for notice in notices:
            if notice.proc == self.node_id:
                continue
            if advance_vc:
                self.vc[notice.proc] = max(self.vc[notice.proc], notice.interval_idx)
            self.lamport = max(self.lamport, notice.lamport)
            self.coherence(notice.page_id).note_write_notice(notice.proc, notice.interval_idx)

    def snapshot(self):
        return copy.deepcopy((self.log.snapshot_state(), self.vc, self.lamport, self.pages))

    def restore(self, snap):
        log, self.vc, self.lamport, self.pages = copy.deepcopy(snap)
        self.log.restore_state(log)


def _drain(generator):
    """Run a charged protocol action to the end, outside any simulation
    (the CPU is free, so the charge is the only thing it waits for)."""
    for _ in generator:
        pass


def _assert_same_state(backend, ref, touched, rng):
    assert backend.vc.snapshot() == tuple(ref.vc)
    assert backend.intervals.lamport == ref.lamport
    assert backend.wn_log.total() == ref.log.total()
    # Per-page state exists for what was touched, and for nothing else.
    assert set(backend._coherence) == set(backend.wn_log._by_page) == touched
    for page in touched:
        mine, theirs = backend._coherence[page], ref.coherence(page)
        assert mine.needed_upto == theirs.needed_upto, page
        assert (mine.stale, mine.valid) == (theirs.stale, theirs.valid), page
        assert mine.applied_upto == theirs.applied_upto, page
        # As a set: a history built at first touch is in per-proc order,
        # the reference's (and any history held from the start) in
        # arrival order.  Nothing reads the order: a reply's records are
        # each applied by max().
        history = flat(r.only(page) for r in notices_for_page(backend.wn_log, page))
        assert len(history) == len(set(history))
        assert set(history) == set(ref.log.notices_for_page(page)), page
    for _ in range(3):
        vc = tuple(rng.randrange(0, INTERVALS + 1) for _ in range(PROCS))
        assert flat(backend.wn_log.unseen_by(vc)) == ref.log.unseen_by(vc)


SEEDS = range(24)
SHAPES = (
    "late older interval",
    "touched between arrival and release",
    "filtered reply for a page not held",
    "first touch after its notices",
    "rolled back",
)


def _drive_both(seed):
    """Drive the real backend and :class:`EagerNode` with one seed's
    traffic, comparing after every step; returns the shapes it reached."""
    rng = random.Random(1000 + seed)
    # Odd seeds run with the prefetch engine installed (``on_invalidation``).
    config = RunConfig(num_nodes=PROCS, prefetch=bool(seed % 2))
    backend = DsmRuntime(config).dsm_nodes[ME].backend
    world = _world(rng, backend.host.records)
    ref = EagerNode(PROCS, ME)
    touched = set()
    own_closed = 0
    saved = None
    shapes = set()

    def touch(page):
        touched.add(page)
        backend.coherence(page)

    def apply(batch, advance_vc=True):
        _drain(backend.apply_notices_charged(batch, advance_vc=advance_vc))
        ref.apply(flat(batch), advance_vc)

    for step in range(70):
        roll = rng.random()
        if roll < 0.12 and own_closed < INTERVALS:
            # Our own interval close: logged, never applied to ourselves.
            own_closed += 1
            assert backend.vc.advance_own() == own_closed
            ref.vc[ME] = own_closed
            backend.wn_log.merge([world[ME][own_closed]])
            ref.log.merge(flat([world[ME][own_closed]]))
            for page in world[ME][own_closed].pages:
                touch(page)  # we wrote them
        elif roll < 0.40:
            # A lock grant: a granter's log above our clock, as holey as
            # the granter's knowledge (so older intervals can come late).
            batch = [
                r
                for r in _full_batch(rng, world)
                if r.proc != ME or r.interval_idx <= own_closed
            ]
            if any(r.interval_idx < backend.vc[r.proc] for r in batch if r.proc != ME):
                shapes.add("late older interval")
            apply(batch)
        elif roll < 0.55:
            # A barrier episode with this node as the manager.  Arrivals
            # carry each node's own records above what the manager's
            # clock covers (prefix closure: anything at or below it was
            # applied when the clock moved), merged without applying.
            for proc in rng.sample(range(PROCS), rng.randrange(1, PROCS + 1)):
                arrival = [
                    world[proc][idx]
                    for idx in range(1 if proc == ME else backend.vc[proc] + 1, INTERVALS + 1)
                    if (proc != ME or idx <= own_closed) and rng.random() < 0.6
                ]
                backend.wn_log.merge(arrival)
                ref.log.merge(flat(arrival))
                # First touches in the window: the merged records are in
                # the log but above the clock, so must read as unapplied.
                for page in rng.sample(range(PAGES), rng.randrange(0, 3)):
                    if page not in touched and any(page in r.pages for r in arrival):
                        shapes.add("touched between arrival and release")
                    touch(page)
                _assert_same_state(backend, ref, touched, rng)
            release = backend.wn_log.unseen_by(backend.vc.snapshot())
            assert flat(release) == ref.log.unseen_by(tuple(ref.vc))
            apply(release)
        elif roll < 0.75:
            # A diff (or prefetch) reply: one page's records, filtered.
            batch = _page_batch(rng, world)
            for record in batch:
                if record.proc == ME:
                    continue  # skipped on the acquire path, so holds nothing
                if record.pages[0] not in touched:
                    shapes.add("filtered reply for a page not held")
                touched.add(record.pages[0])
            apply(batch, advance_vc=False)
        elif roll < 0.88:
            # A first touch, possibly long after the page's notices came,
            # then (sometimes) the fetch that makes it valid again.
            page = rng.randrange(PAGES)
            if page not in touched and page in ref.pages:
                shapes.add("first touch after its notices")
            touch(page)
            if rng.random() < 0.5:
                mine, theirs = backend.coherence(page), ref.coherence(page)
                for writer in theirs.stale_writers():
                    mine.note_diffs_applied(writer, theirs.needed_upto[writer])
                    theirs.note_diffs_applied(writer, theirs.needed_upto[writer])
        elif saved is None:
            saved = (backend.snapshot_state(), ref.snapshot(), set(touched), own_closed)
        else:
            backend.restore_state(saved[0])
            ref.restore(saved[1])
            touched, own_closed = set(saved[2]), saved[3]
            saved = None
            shapes.add("rolled back")
        _assert_same_state(backend, ref, touched, rng)
    assert backend.wn_log.total() > PROCS  # the traffic did land
    return shapes


@pytest.mark.parametrize("seed", SEEDS)
def test_demand_driven_state_matches_the_eager_reference(seed):
    """The real backend against :class:`EagerNode` under seeded traffic
    of every shape the protocol produces: lock-grant batches (with
    duplicates, the node's own records and missed older intervals that
    arrive late), barrier episodes where the node is the manager (arrivals
    merged but not applied, pages first touched in that window, then its
    own release), page-filtered replies (also for pages not yet held),
    diffs applied, and a checkpoint rolled back to after more traffic."""
    assert _drive_both(seed) <= set(SHAPES)


def test_the_seeded_traffic_reaches_every_shape():
    reached = [_drive_both(seed) for seed in SEEDS]
    for shape in SHAPES:
        assert sum(shape in shapes for shapes in reached) >= len(SEEDS) // 3, shape
