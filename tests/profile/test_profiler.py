"""Profiler behaviour: unit semantics, end-to-end runs, the determinism
guard, hot-entity attribution, and survival across FT recovery."""

import json

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.errors import ConfigError, ProtocolError
from repro.ft.sanitizer import ProtocolSanitizer
from repro.network.faults import FaultPlan, NodeCrash
from repro.profile import (
    NULL_PROFILER,
    MetricsRegistry,
    NullProfiler,
    ProfileConfig,
    Profiler,
)

# -- unit semantics -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ProfileConfig(top_n=0)


def test_span_first_begin_wins_and_pops_on_end():
    profiler = Profiler(num_nodes=1)
    profiler.span_begin("k", 10.0)
    profiler.span_begin("k", 50.0)  # ignored: first begin wins
    assert profiler.span_end("k", 110.0) == 100.0
    assert profiler.span_end("k", 200.0) is None  # popped: no double record


def test_top_ranks_by_primary_metric_with_deterministic_ties():
    profiler = Profiler(ProfileConfig(top_n=2), num_nodes=1)
    profiler.entity_add("page", 7, "stall_us", 100.0)
    profiler.entity_add("page", 3, "stall_us", 100.0)
    profiler.entity_add("page", 5, "stall_us", 900.0)
    top = profiler.top("page")
    assert [page_id for page_id, _ in top] == [5, 3]  # ties break by id
    assert profiler.top("page", n=3)[-1][0] == 7


def test_null_profiler_is_inert():
    assert NULL_PROFILER.enabled is False
    assert isinstance(NULL_PROFILER, NullProfiler)
    NULL_PROFILER.observe(0, "x", 1.0)
    NULL_PROFILER.count(0, "x")
    NULL_PROFILER.entity_add("page", 1, "faults")
    NULL_PROFILER.span_begin("k", 0.0)
    assert NULL_PROFILER.span_end("k", 1.0) is None
    assert NULL_PROFILER.merged().to_dict() == {"histograms": {}, "counters": {}}


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
    (runtime, report), baseline = crash_run()
    assert report.extra["ft"]["recoveries"] == 1
    profile = report.profile
    # More faults profiled than a fault-free run records: redone work.
    faults_profiled = profile["histograms"]["page_fault_us"]["count"]
    assert faults_profiled > 0
    assert profile["hot_pages"], "attribution survives the rollback"
    # The per-node registries still merge associatively afterwards.
    forward = MetricsRegistry.merge(runtime.profiler.registries)
    backward = MetricsRegistry.merge(list(reversed(runtime.profiler.registries)))
    assert forward.to_dict() == backward.to_dict()


def test_crashed_profile_deterministic():
    (_, first), _ = crash_run()
    (_, second), _ = crash_run()
    assert json.dumps(first.profile, sort_keys=True) == json.dumps(
        second.profile, sort_keys=True
    )


# -- sanitizer wiring ---------------------------------------------------------


def test_sanitizer_violations_counted_in_profiler():
    sanitizer = ProtocolSanitizer(num_nodes=2)
    profiler = Profiler(num_nodes=2)
    sanitizer.profile = profiler
    sanitizer.on_twin_created(0, 7)
    with pytest.raises(ProtocolError):
        sanitizer.on_twin_created(0, 7)  # twin over twin: invariant broken
    merged = profiler.merged()
    assert merged.counters["sanitizer_violations"] == 1
    assert any(key.startswith("sanitizer_violations:") for key in merged.counters)


def test_runtime_wires_sanitizer_to_profiler():
    runtime, report = run_once(sanitizer=True)
    assert runtime.cluster.sim.sanitizer.profile is runtime.profiler
    # A clean run profiles zero violations (no counter at all).
    assert "sanitizer_violations" not in (report.profile["counters"])
