"""Unit tests for per-page coherence metadata."""

import numpy as np

from repro.dsm import PageCoherence


def test_fresh_page_is_valid():
    state = PageCoherence(0, 4)
    assert state.valid
    assert state.stale_writers() == []


def test_write_notice_invalidates():
    state = PageCoherence(0, 4)
    became_stale = state.note_write_notice(2, 1)
    assert became_stale
    assert not state.valid
    assert state.stale_writers() == [2]


def test_second_notice_does_not_report_stale_again():
    state = PageCoherence(0, 4)
    assert state.note_write_notice(2, 1)
    assert not state.note_write_notice(2, 2)
    assert not state.note_write_notice(3, 1)
    assert set(state.stale_writers()) == {2, 3}


def test_diffs_applied_revalidates():
    state = PageCoherence(0, 4)
    state.note_write_notice(1, 3)
    state.note_diffs_applied(1, 3)
    assert state.valid


def test_diffs_covering_future_intervals():
    state = PageCoherence(0, 4)
    state.note_write_notice(1, 2)
    state.note_diffs_applied(1, 5)  # flush covered through 5
    assert state.valid
    # An older notice arriving late changes nothing.
    assert not state.note_write_notice(1, 4)
    assert state.valid


def test_applied_never_regresses():
    state = PageCoherence(0, 2)
    state.note_diffs_applied(1, 5)
    state.note_diffs_applied(1, 3)
    assert state.applied_upto[1] == 5


def test_fetch_in_flight_tracking():
    from repro.sim import Simulator, Event

    sim = Simulator()
    state = PageCoherence(0, 2)
    assert not state.fetch_in_flight
    state.fetch_event = Event(sim)
    assert state.fetch_in_flight
    state.fetch_event.succeed(None)
    assert not state.fetch_in_flight


def test_a_writer_already_stale_does_not_report_stale_again():
    state = PageCoherence(0, 4)
    assert state.note_write_notice(1, 2)
    # Another writer goes stale, then the first one's need rises further:
    # neither is the valid -> stale edge.
    assert not state.note_write_notice(2, 1)
    state.note_diffs_applied(2, 1)
    assert state.stale == 1
    assert not state.note_write_notice(1, 5)
    assert state.stale == 1 and state.stale_writers() == [1]


def test_stale_count_tracks_the_scan_under_any_interleaving():
    """``valid`` is an O(1) counter test; the O(nodes) scan it replaced is
    the oracle.  Any order of notices, applied diffs and checkpoint
    round-trips must keep the two in step."""
    import random

    for seed in range(25):
        rng = random.Random(seed)
        nodes = rng.choice([2, 3, 8])
        state = PageCoherence(7, nodes)
        for _ in range(400):
            roll = rng.random()
            proc = rng.randrange(nodes)
            # Around the current frontier, so late and fresh indices both occur.
            idx = max(state.needed_upto[proc], state.applied_upto[proc]) + rng.randrange(-2, 3)
            if roll < 0.45:
                was_valid = state.valid
                became_stale = state.note_write_notice(proc, idx)
                assert became_stale == (was_valid and not state.valid)
            elif roll < 0.9:
                state.note_diffs_applied(proc, idx)
            else:
                state = PageCoherence.from_snapshot(7, nodes, state.snapshot_state())
            scan_valid = all(a >= n for a, n in zip(state.applied_upto, state.needed_upto))
            assert state.valid == scan_valid
            assert state.stale == len(state.stale_writers())
            # ``missing_writers`` against its definition: a writer is
            # missing while neither the applied diffs nor the ones held
            # (gathered or cached) reach its latest notice.
            held = {w: rng.randrange(idx + 3) for w in range(nodes) if rng.random() < 0.5}
            have = [max(a, held.get(w, 0)) for w, a in enumerate(state.applied_upto)]
            assert state.missing_writers(held) == [
                (w, have[w]) for w in range(nodes) if state.needed_upto[w] > have[w]
            ]


def _apply_per_byte(page, twin, marks, diff, lamport):
    """The per-byte stamps ``apply_diff`` replaced: an ``int64`` for every
    byte of the page, compared and raised word by word."""
    values = diff.words.view(np.uint8)
    for taken, word in enumerate(np.arange(len(page) // 8)[diff.index].tolist()):
        window = slice(word * 8, word * 8 + 8)
        data = values[taken * 8 : taken * 8 + 8]
        mask = marks[window] <= lamport
        page[window][mask] = data[mask]
        if twin is not None:
            twin[window][mask] = data[mask]
        np.maximum(marks[window], lamport, out=marks[window])


def test_word_stamps_match_per_byte_stamps_under_out_of_order_diffs():
    """One stamp per 8-byte word must give the pages, twins and stamps that
    one stamp per byte gave, whatever order the diffs arrive in, across
    checkpoint round trips, and at an unchanged modelled checkpoint size."""
    import random

    from repro.ft.checkpoint import NodeCheckpoint
    from repro.memory import make_diff

    page_bytes = 256
    below_ceiling = 0
    for seed in range(40):
        rng = random.Random(seed)
        gen = np.random.default_rng(seed)
        page = gen.integers(0, 256, page_bytes, dtype=np.uint8)
        ref_page = page.copy()
        ref_marks = np.zeros(page_bytes, dtype=np.int64)
        ref_twin = None
        state = PageCoherence(3, 4)
        for _ in range(60):
            # A remote writer's diff: some words of its copy changed, a few
            # bytes of a changed word may coincide with the old value.
            theirs = ref_page.copy()
            words = theirs.view(np.uint64)
            for w in rng.sample(range(page_bytes // 8), rng.randint(1, 12)):
                words[w] ^= np.uint64(rng.choice((1, 0xFF00, 2**63, rng.getrandbits(64) | 1)))
            diff = make_diff(3, ref_page, theirs)
            lamport = rng.randint(1, 12)  # well out of order, with ties
            if rng.random() < 0.3:  # a local write opens (or closes) a twin
                state.dirty = not state.dirty
                state.twin = page.copy() if state.dirty else None
                ref_twin = None if state.twin is None else state.twin.copy()
            below_ceiling += lamport < state.ceiling
            state.apply_diff(page, diff, lamport)
            _apply_per_byte(ref_page, ref_twin, ref_marks, diff, lamport)
            assert state.ceiling >= state.word_lamports.max()
            assert np.array_equal(page, ref_page)
            assert (state.twin is None) == (ref_twin is None)
            if ref_twin is not None:
                assert np.array_equal(state.twin, ref_twin)
            assert np.array_equal(np.repeat(state.word_lamports, 8), ref_marks)
            if rng.random() < 0.2:
                snap = state.snapshot_state()
                state = PageCoherence.from_snapshot(3, 4, snap)
                assert state.word_lamports is not snap["word_lamports"]
                assert state.ceiling == snap["word_lamports"].max()
                ckpt = NodeCheckpoint(
                    node_id=0,
                    dsm={"pages": {3: page}, "coherence": {3: snap}, "vc": [0] * 4},
                    transport={},
                    thread_logs=[],
                )
                twin_bytes = page_bytes if snap["twin"] is not None else 0
                # page + twin + an int64 stamp per *byte* (the modelled
                # stable-storage format) + the vector clock.
                assert ckpt.size_bytes == page_bytes + twin_bytes + ref_marks.nbytes + 16
    # Out-of-order batches: most diffs land below the ceiling, and take
    # the gathered, masked path.
    assert below_ceiling > 1000


def test_restore_rebuilds_the_ceiling_that_keeps_newer_words():
    """A diff older than a restored word must not take the straight
    scatter: ``from_snapshot`` raises the ceiling to the restored stamps."""
    from repro.memory import make_diff

    state = PageCoherence(0, 2)
    page = np.zeros(64, dtype=np.uint8)
    newer = np.zeros(64, dtype=np.uint8)
    newer[:8] = 5
    state.apply_diff(page, make_diff(0, page.copy(), newer), 5)
    state = PageCoherence.from_snapshot(0, 2, state.snapshot_state())
    assert state.ceiling == 5
    older = np.full(64, 3, dtype=np.uint8)
    state.apply_diff(page, make_diff(0, np.zeros(64, dtype=np.uint8), older), 3)
    assert page[:8].tolist() == [5] * 8 and page[8:].tolist() == [3] * 56
    assert state.word_lamports.tolist() == [5] + [3] * 7


def test_diff_run_outside_the_page_is_rejected():
    import pytest

    from repro.errors import PagedMemoryError
    from repro.memory import Diff

    state = PageCoherence(0, 2)
    page = np.zeros(64, dtype=np.uint8)
    outside = Diff(0, words=np.ones(2, dtype=np.uint64), index=np.array([7, 8], np.uint8), run_count=1)
    with pytest.raises(PagedMemoryError, match="outside page"):
        state.apply_diff(page, outside, 1)
