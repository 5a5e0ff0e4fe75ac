"""The profile is a fold over the trace: held, key by key, to sections the
live profiler wrote on the commit the fixture was recorded on.

``python -m tests.profile.fixtures.record`` re-records the fixture; a
failure names every key that moved (``histograms.lock_hold_us.total``,
``hot_pages[2].stall_us``), not just that a digest changed.
"""

import json

import pytest

from repro.profile import profiler
from tests.dsm.fixtures.record import fault_overrides, traced_run
from tests.profile.fixtures.record import CELLS, FIXTURE, PROFILE_ONLY, cell_key, profile_section

with open(FIXTURE, encoding="utf-8") as _handle:
    RECORDED = json.load(_handle)


def leaves(value, path=""):
    """Every leaf of a profile section, keyed by its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def moved_keys(got: dict, want: dict) -> list[str]:
    got, want = dict(leaves(got)), dict(leaves(want))
    return sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell_key(*cell))
def test_profile_equals_the_recorded_section(cell):
    moved = moved_keys(profile_section(*cell), RECORDED[cell_key(*cell)])
    assert not moved, f"{cell_key(*cell)}: {len(moved)} keys moved: {moved[:20]}"


def test_fixture_covers_every_fact_kind():
    """Not vacuous: the cells reach every histogram, counter and table."""
    kinds = set()
    for section in RECORDED.values():
        kinds |= set(section["histograms"]) | set(section["counters"])
        for table in ("hot_pages", "hot_locks", "hot_barriers"):
            kinds |= {f"{table}.{metric}" for row in section[table] for metric in row}
    assert {
        "lock_wait_us",
        "lock_hold_us",
        "barrier_skew_us",
        "prefetch_lead_us",
        "retransmit_delay_us",
        "transport_rtt_us",
        "home_fetch_us",
        "stall_lock_us",
        "transport_paced",
        "prefetch_shed",
        "transport_retries_exhausted",
        "hot_locks.handoffs",
        "hot_pages.twins",
        "hot_pages.home_updates",
        "hot_pages.pages_served",
        "hot_pages.write_faults",
        "hot_pages.diffs_served",
    } <= kinds


def test_a_requested_trace_folds_to_the_same_profile():
    """``profile=True`` alone records an internal trace; asking for the
    trace too changes nothing in the section."""
    cell = ("WATER-NSQ", "4TP", "lrc", "")
    assert profile_section(*cell) == profile_section(*cell, trace=True)


class EveryName:
    """A name set that holds every name: a fold filter widened to drop nothing."""

    def __contains__(self, name):
        return True


def test_the_fold_drops_only_events_it_never_reads(monkeypatch):
    """``fold_events`` skips every event whose name is not in ``_READS``;
    widening the set to every name changes no profile, so no branch reads
    a name the set leaves out."""
    for app_name, label, protocol, fault in CELLS:
        planes = {**PROFILE_ONLY, "trace": True, **(fault_overrides(fault) if fault else {})}
        runtime, _ = traced_run(app_name, label, protocol, **planes)
        events = list(runtime.tracer.events)
        shipped = profiler.fold_events(events, 4).to_dict()
        with monkeypatch.context() as patch:
            patch.setattr(profiler, "_READS", EveryName())
            widened = profiler.fold_events(events, 4).to_dict()
        assert shipped == widened, cell_key(app_name, label, protocol, fault)
