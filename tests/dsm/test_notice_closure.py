"""Tests for the write-notice log's prefix-closure discipline.

The per-proc log (which feeds ``unseen_by`` and, through grants, every
vector clock) may only contain FULLY-transferred notices; page-filtered
sets from diff replies live in the per-page history only.  Violating
this punches holes in a proc's interval prefix, and a later grant
forwards the holey knowledge — the receiver's clock then skips past a
notice it never saw, losing the invalidation forever.
"""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import APP_ORDER, make_app
from repro.dsm import WriteNotice, WriteNoticeLog
from repro.network.faults import FaultPlan, NodeCrash


def wn(proc, idx, page):
    return WriteNotice(proc, idx, idx, page)


def test_full_notices_enter_both_structures():
    log = WriteNoticeLog(4)
    log.merge([wn(1, 1, 7)], full=True)
    assert log.notices_from(1) == [wn(1, 1, 7)]
    assert log.notices_for_page(7) == [wn(1, 1, 7)]


def test_page_filtered_notices_stay_out_of_proc_log():
    log = WriteNoticeLog(4)
    log.merge([wn(1, 5, 7)], full=False)
    assert log.notices_from(1) == []          # not forwardable
    assert log.notices_for_page(7) == [wn(1, 5, 7)]  # but reply-visible
    assert log.unseen_by((0, 0, 0, 0)) == []  # grants never ship it


def test_page_filtered_then_full_upgrade():
    """A notice first seen page-filtered must still enter the proc log
    when it later arrives via a full transfer."""
    log = WriteNoticeLog(4)
    log.merge([wn(1, 5, 7)], full=False)
    log.merge([wn(1, 5, 7)], full=True)
    assert log.notices_from(1) == [wn(1, 5, 7)]
    # No duplicate in the page history.
    assert log.notices_for_page(7) == [wn(1, 5, 7)]


def test_full_then_page_filtered_is_deduped():
    log = WriteNoticeLog(4)
    log.merge([wn(1, 5, 7)], full=True)
    log.merge([wn(1, 5, 7)], full=False)
    assert log.notices_from(1) == [wn(1, 5, 7)]
    assert log.notices_for_page(7) == [wn(1, 5, 7)]


def test_unseen_by_never_exposes_holes():
    """unseen_by ships every full notice above the threshold; a
    page-filtered notice in between is invisible (the receiver's clock
    must not be advanced past it by proxy)."""
    log = WriteNoticeLog(2)
    log.merge([wn(1, 1, 0)], full=True)
    log.merge([wn(1, 2, 0)], full=False)  # hole at 2 in the full prefix
    log.merge([wn(1, 3, 0)], full=True)
    shipped = [n.interval_idx for n in log.unseen_by((0, 0))]
    assert shipped == [1, 3]
    # The page history still knows all three.
    assert [n.interval_idx for n in log.notices_for_page(0)] == [1, 2, 3]


# -- the invariant interval-level dedupe rests on ----------------------------------


def _watch_full_merges(monkeypatch):
    """Wrap ``merge``: every full run must be a whole interval, contiguous
    in its batch, and a run for an interval already held must bring no
    page the held copy lacks.  Returns the counters the wrapper fills."""
    seen = {"runs": 0, "held": 0}
    merge = WriteNoticeLog.merge

    def checked(log, notices, full=True, skip_proc=-1):
        if full:
            runs = {}
            last = None
            for notice in notices:
                key = (notice.proc, notice.interval_idx)
                if key != last:
                    assert key not in runs, f"interval {key} split across one batch"
                    runs[key] = set()
                    last = key
                runs[key].add(notice.page_id)
            for (proc, idx), pages in runs.items():
                if proc == skip_proc:
                    continue
                seen["runs"] += 1
                if idx in log._full[proc]:
                    seen["held"] += 1
                    held = {n.page_id for n in log._by_proc[proc] if n.interval_idx == idx}
                    assert pages <= held, f"held interval {(proc, idx)} gained pages {pages - held}"
        merge(log, notices, full, skip_proc)

    monkeypatch.setattr(WriteNoticeLog, "merge", checked)
    return seen


@pytest.mark.parametrize("protocol", ["lrc", "hlrc"])
@pytest.mark.parametrize("app_name", APP_ORDER)
def test_full_transfers_move_whole_intervals(monkeypatch, app_name, protocol):
    seen = _watch_full_merges(monkeypatch)
    config = RunConfig(num_nodes=4, protocol=protocol)
    DsmRuntime(config).execute(make_app(app_name, "small"))
    assert seen["runs"] > 0 and seen["held"] > 0  # duplicates do arrive


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
