"""Unit tests for per-page coherence metadata."""

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
