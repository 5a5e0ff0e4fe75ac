"""Profile behaviour: the fold's rules, end-to-end runs, the determinism
guard, hot-entity attribution, and survival across FT recovery."""

import json

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.errors import ConfigError
from repro.network.faults import FaultPlan, NodeCrash
from repro.profile import ProfileConfig, fold_events
from repro.trace import TraceEvent

from tests.dsm.fixtures.record import FAULTS

# -- the fold's rules ---------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ProfileConfig(top_n=0)


def fault(page, start, end, remote=True):
    span = f"n0:f{page}"
    return [
        TraceEvent(start, "b", "protocol", "page_fault", 0, id=span, args={"page": page}),
        TraceEvent(end, "e", "protocol", "page_fault", 0, id=span, args={"remote": remote}),
    ]


def test_top_ranks_by_primary_metric_with_deterministic_ties():
    profile = fold_events(fault(7, 0.0, 100.0) + fault(3, 0.0, 100.0) + fault(5, 0.0, 900.0), 1)
    assert [page_id for page_id, _ in profile.top("page", 2)] == [5, 3]  # ties break by id
    assert profile.top("page", 3)[-1][0] == 7
    assert profile.top("page")[0][1] == {"faults": 1.0, "stall_us": 900.0, "remote_faults": 1.0}


def test_rollback_discards_open_waits_but_keeps_skew_windows():
    """At ``recover`` an open stall and a waiting barrier arrival are
    dropped; a skew window opened before it closes after it."""

    def instant(ts, name, cat="protocol", **args):
        return TraceEvent(ts, "i", cat, name, 0, args=args)

    episode = {"barrier": 0, "episode": 1}
    events = [
        instant(10.0, "barrier_gather", src=1, **episode),
        instant(11.0, "barrier_arrive", arrived=1, **episode),
        TraceEvent(11.0, "B", "sched", "stall:barrier", 0, tid=0),
        instant(50.0, "recover", "ft", nodes=[1]),
        TraceEvent(50.0, "E", "sched", "stall:barrier", 0, tid=0),  # the restart's close
        instant(90.0, "barrier_resume", waiters=1, **episode),
        instant(95.0, "barrier_release", **episode),
    ]
    histograms = fold_events(events, 1).histograms
    assert "stall_barrier_us" not in histograms
    assert "barrier_wait_us" not in histograms
    assert histograms["barrier_skew_us"].total == 85.0


def test_a_saved_trace_holds_the_whole_profile():
    """The JSONL rows of a run fold to the profile the run reported."""
    runtime, report = run_once("WATER-NSQ", nodes=2)
    rows = [json.loads(json.dumps(event.as_dict())) for event in runtime.tracer.events]
    profile = fold_events([TraceEvent(**row) for row in rows], 2)
    assert json.loads(json.dumps(profile.to_dict(runtime.space))) == report.profile


# -- end-to-end ---------------------------------------------------------------


def run_once(app_name="SOR", profile=True, plan=None, seed=42, nodes=4, **config_kwargs):
    config = RunConfig(
        num_nodes=nodes, seed=seed, profile=profile, fault_plan=plan, **config_kwargs
    )
    runtime = DsmRuntime(config)
    app = make_app(app_name, "small")
    app.use_prefetch = config.prefetch
    report = runtime.execute(app)
    return runtime, report


def core_json(report):
    data = report.to_dict()
    data.pop("profile")
    return json.dumps(data, sort_keys=True)


def test_profile_on_off_byte_identical_core():
    """The acceptance determinism guard: profiling changes nothing but
    the profile section itself."""
    _, plain = run_once(profile=False)
    _, profiled = run_once(profile=True)
    assert plain.profile is None
    assert profiled.profile is not None
    assert core_json(plain) == core_json(profiled)


def test_profiled_rerun_is_deterministic():
    _, first = run_once()
    _, second = run_once()
    assert first.to_json() == second.to_json()


def test_profile_section_shape_and_content():
    runtime, report = run_once()
    profile = report.profile
    assert profile["version"] == 1
    assert profile["num_nodes"] == 4
    for name in ("page_fault_us", "diff_rtt_us", "barrier_wait_us", "barrier_skew_us"):
        entry = profile["histograms"][name]
        assert entry["count"] > 0
        assert entry["p50"] <= entry["p90"] <= entry["p99"] <= entry["max"]
    top = profile["hot_pages"][0]
    assert top["faults"] > 0 and top["stall_us"] > 0
    assert top["segment"] is not None  # named via the address space
    # The report section is pure JSON.
    json.dumps(profile)


def test_lock_metrics_on_a_lock_using_app():
    _, report = run_once("WATER-NSQ", nodes=2)
    histograms = report.profile["histograms"]
    assert histograms["lock_acquire_us"]["count"] > 0
    assert histograms["lock_hold_us"]["count"] > 0
    hot = report.profile["hot_locks"]
    assert hot and hot[0]["acquires"] > 0


def test_prefetch_lead_time_recorded():
    _, report = run_once("SOR", prefetch=True)
    lead = report.profile["histograms"].get("prefetch_lead_us")
    assert lead is not None and lead["count"] > 0


def test_ocean_hot_pages_name_boundary_rows():
    """Acceptance: OCEAN's hot-page table names the fine-grid boundary
    pages.  With 18x128 float64 rows (1024 B: 4 rows/page) partitioned
    over 4 workers, the partition-boundary rows fall in fine pages
    1, 2 and 3 — exactly the pages neighbouring workers ping-pong."""
    runtime, report = run_once("OCEAN")
    fine = runtime.space.segment("ocean.fine")
    page_size = runtime.config.page_size
    fine_pages = {
        row["page"]
        for row in report.profile["hot_pages"]
        if row["segment"] == "ocean.fine"
    }
    boundary = {fine.base // page_size + offset for offset in (1, 2, 3)}
    assert boundary <= fine_pages


# -- FT interaction -----------------------------------------------------------


def crash_run(seed=11):
    _, baseline = run_once(profile=False, seed=seed)
    plan = FaultPlan(crashes=(NodeCrash(node=2, at_us=baseline.wall_time_us * 0.5),))
    return run_once(profile=True, plan=plan, seed=seed), baseline


def test_profile_survives_rollback():
    """Counters and histograms are monotone across crash recovery: the
    recovered run's profile includes the discarded execution's work."""
    (_, report), baseline = crash_run()
    assert report.extra["ft"]["recoveries"] == 1
    profile = report.profile
    # More faults profiled than a fault-free run records: redone work.
    faults_profiled = profile["histograms"]["page_fault_us"]["count"]
    assert faults_profiled > baseline.events.remote_misses + baseline.events.cache_faults
    assert profile["hot_pages"], "attribution survives the rollback"


def test_crashed_profile_deterministic():
    (_, first), _ = crash_run()
    (_, second), _ = crash_run()
    assert json.dumps(first.profile, sort_keys=True) == json.dumps(
        second.profile, sort_keys=True
    )


def test_profile_survives_fence_expiry_rollback():
    """partition900 recovers through an expired fence, not a crash: the
    rollback rules are the same, and so is determinism."""
    first = run_once(prefetch=True, plan=FAULTS["partition900"], seed=7)[1]
    second = run_once(prefetch=True, plan=FAULTS["partition900"], seed=7)[1]
    assert first.extra["ft"]["recoveries"] >= 1 and first.extra["ft"]["crashes"] == 0
    assert first.profile["histograms"]["stall_barrier_us"]["count"] > 0
    assert first.to_json() == second.to_json()
