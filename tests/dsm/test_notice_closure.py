"""Tests for the write-notice log's prefix-closure discipline.

The per-proc log (which feeds ``unseen_by`` and, through grants, every
vector clock) may only contain FULLY-transferred records; page-filtered
ones from diff replies live in the per-page history only.  Violating
this punches holes in a proc's interval prefix, and a later grant
forwards the holey knowledge — the receiver's clock then skips past a
notice it never saw, losing the invalidation forever.
"""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import APP_ORDER, make_app
from repro.dsm import WriteNoticeLog
from repro.network.faults import FaultPlan, NodeCrash

from tests.dsm.test_writenotice import fresh_records, new_log, notices_for_page, rec  # noqa: F401


def test_full_notices_enter_both_structures():
    log = new_log(4)
    log.merge([rec(1, 1, 7)], full=True)
    assert log.own_notices_after(1, 0) == [rec(1, 1, 7)]
    assert notices_for_page(log, 7) == [rec(1, 1, 7)]


def test_page_filtered_notices_stay_out_of_proc_log():
    log = new_log(4)
    log.merge([rec(1, 5, 7)], full=False)
    assert log.own_notices_after(1, 0) == []          # not forwardable
    assert notices_for_page(log, 7) == [rec(1, 5, 7)]  # but reply-visible
    assert log.unseen_by((0, 0, 0, 0)) == []  # grants never ship it
    assert log.total() == 0


def test_page_filtered_then_full_upgrade():
    """A notice first seen page-filtered must still enter the proc log
    when its whole interval later arrives via a full transfer."""
    log = new_log(4)
    log.merge([rec(1, 5, 7)], full=False)
    log.merge([rec(1, 5, 7, 8)], full=True)
    assert log.own_notices_after(1, 0) == [rec(1, 5, 7, 8)]
    # No duplicate in the page history.
    assert notices_for_page(log, 7) == [rec(1, 5, 7)]


def test_full_then_page_filtered_is_deduped():
    log = new_log(4)
    log.merge([rec(1, 5, 7, 8)], full=True)
    log.merge([rec(1, 5, 7)], full=False)
    assert log.own_notices_after(1, 0) == [rec(1, 5, 7, 8)]
    assert notices_for_page(log, 7) == [rec(1, 5, 7, 8)]


def test_unseen_by_never_exposes_holes():
    """unseen_by ships every full record above the threshold; a
    page-filtered one in between is invisible (the receiver's clock
    must not be advanced past it by proxy)."""
    log = new_log(2)
    log.merge([rec(1, 1, 0)], full=True)
    log.merge([rec(1, 2, 0)], full=False)  # hole at 2 in the full prefix
    log.merge([rec(1, 3, 0)], full=True)
    shipped = [r.interval_idx for r in log.unseen_by((0, 0))]
    assert shipped == [1, 3]
    # The page history still knows all three.
    assert sorted(r.interval_idx for r in notices_for_page(log, 0)) == [1, 2, 3]


# -- the invariant interval-level dedupe rests on ----------------------------------
#
# A record IS a whole interval, so "a full transfer moves whole intervals,
# contiguous in its batch" now holds by construction.  What is left to
# watch is the other half: a record arriving for an interval already held
# names exactly the pages of the held copy (they are one shared object,
# except across a rollback, where the interval is closed a second time).


def _watch_full_merges(monkeypatch):
    """Wrap ``merge``; returns the counters the wrapper fills."""
    seen = {"runs": 0, "held": 0, "reclosed": 0}
    merge = WriteNoticeLog.merge

    def checked(log, records, full=True, skip_proc=-1):
        if full:
            keys = [(r.proc, r.interval_idx) for r in records]
            assert len(keys) == len(set(keys)), "an interval twice in one batch"
            for record in records:
                proc, idx = record.proc, record.interval_idx
                assert record.pages == tuple(sorted(set(record.pages))) and record.pages
                if proc == skip_proc:
                    continue
                seen["runs"] += 1
                if idx in {r.interval_idx for r in log._by_proc[proc]}:
                    seen["held"] += 1
                    (held,) = [r for r in log._by_proc[proc] if r.interval_idx == idx]
                    assert record == held, f"held interval {(proc, idx)} changed"
                    seen["reclosed"] += record is not held
        merge(log, records, full, skip_proc)

    monkeypatch.setattr(WriteNoticeLog, "merge", checked)
    return seen


@pytest.mark.parametrize("protocol", ["lrc", "hlrc"])
@pytest.mark.parametrize("app_name", APP_ORDER)
def test_full_transfers_move_whole_intervals(monkeypatch, app_name, protocol):
    seen = _watch_full_merges(monkeypatch)
    config = RunConfig(num_nodes=4, protocol=protocol)
    DsmRuntime(config).execute(make_app(app_name, "small"))
    assert seen["runs"] > 0 and seen["held"] > 0  # duplicates do arrive
    assert seen["reclosed"] == 0  # ... and each is the held object itself


def test_full_transfers_move_whole_intervals_across_a_rollback(monkeypatch):
    """Recovery rewinds every log to the cut and replays the release
    fan-out: intervals re-created after it carry the same pages as the
    copies any survivor could still hold."""
    baseline = DsmRuntime(RunConfig(num_nodes=4, seed=11)).execute(make_app("WATER-NSQ", "small"))
    seen = _watch_full_merges(monkeypatch)
    plan = FaultPlan(crashes=(NodeCrash(node=2, at_us=baseline.wall_time_us * 0.5),))
    report = DsmRuntime(RunConfig(num_nodes=4, seed=11, fault_plan=plan)).execute(
        make_app("WATER-NSQ", "small")
    )
    assert report.extra["ft"]["recoveries"] == 1
    assert seen["runs"] > 0 and seen["held"] > 0
