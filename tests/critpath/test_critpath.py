"""Critical-path analyzer tests: the exactness identities the whole
feature is sold on, plus the house observability invariants."""

import json
from fractions import Fraction

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps.registry import make_app
from repro.critpath import analyze_events, build_pag
from repro.experiments.runner import make_configured_app, parse_label
from repro.network import FaultPlan, TransportConfig

LABELS = ("O", "P", "4T", "4TP")


def run_once(app_name="SOR", label="O", critpath=True, **overrides):
    threads_per_node, prefetch = parse_label(label)
    config = RunConfig(
        num_nodes=4,
        threads_per_node=threads_per_node,
        prefetch=prefetch,
        critpath=critpath,
        **overrides,
    )
    runtime = DsmRuntime(config)
    app = make_configured_app(app_name, "small", label)
    report = runtime.execute(app)
    return runtime, report


@pytest.fixture(scope="module")
def sor_runs():
    """One SOR run per paper label, shared across the assertions."""
    return {label: run_once("SOR", label) for label in LABELS}


# -- the exact identities ----------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_path_length_equals_wall_clock_exactly(sor_runs, label):
    """The headline guarantee: critical-path length == wall clock with
    exact (rational) arithmetic, per scheme."""
    _, report = sor_runs[label]
    section = report.critpath
    assert section["identity_exact"] is True
    assert section["wall_time_us"] == report.wall_time_us
    assert section["path_us"] == report.wall_time_us
    assert section["unattributed_us"] == 0.0


@pytest.mark.parametrize("label", LABELS)
def test_blame_sums_to_path_exactly(sor_runs, label):
    """Category blame telescopes to the path length (checked in Fraction
    space inside the analyzer; re-checked here from the float section
    within an ulp since JSON carries floats)."""
    runtime, report = sor_runs[label]
    result = analyze_events(runtime.tracer.events)
    total = sum(result.blame.values(), Fraction(0))
    assert total == Fraction(report.wall_time_us)
    # Per-epoch blame sums to each epoch's span exactly, too.
    assert report.critpath["epochs_exact"] is True
    for epoch in report.critpath["epochs"]:
        assert epoch["blame_us"], "empty epoch blame table"


@pytest.mark.parametrize("label", LABELS)
def test_dp_reproduces_the_wall(sor_runs, label):
    """The forward longest-path DP over the same graph must find the
    wall clock under measured weights — otherwise what-if projections
    computed from that DP would be meaningless."""
    _, report = sor_runs[label]
    assert report.critpath["dp_identity_exact"] is True


@pytest.mark.parametrize("label", LABELS)
def test_projections_lower_bound_the_measured_run(sor_runs, label):
    _, report = sor_runs[label]
    wall = report.wall_time_us
    what_if = report.critpath["what_if_us"]
    assert set(what_if) == {
        "zero_latency_network",
        "perfect_prefetch",
        "zero_cost_switch",
        "compute_floor",
    }
    for name, value in what_if.items():
        assert 0.0 < value <= wall, (name, value, wall)
    # Zeroing every wire is at least as aggressive as zeroing diff RTTs.
    assert what_if["zero_latency_network"] <= what_if["perfect_prefetch"]


def test_per_node_slack_accounts_for_the_wall(sor_runs):
    _, report = sor_runs["O"]
    section = report.critpath
    wall = section["wall_time_us"]
    rows = section["per_node"]
    assert [row["node"] for row in rows] == [0, 1, 2, 3]
    for row in rows:
        assert row["on_path_us"] + row["slack_us"] == pytest.approx(wall)
        assert row["on_path_us"] >= 0.0
    # Someone must be on the path.
    assert sum(row["on_path_us"] for row in rows) > 0.0


def test_epochs_partition_the_run(sor_runs):
    _, report = sor_runs["O"]
    epochs = report.critpath["epochs"]
    assert epochs[0]["start"] == 0.0
    assert epochs[-1]["end"] == report.wall_time_us
    for prev, cur in zip(epochs, epochs[1:]):
        assert prev["end"] == cur["start"]
    # SOR has barriers, so there are multiple epochs with waits blamed.
    assert len(epochs) > 1
    assert any(ep["top_wait"] for ep in epochs)


def test_hot_entities_name_pages_and_sync_objects(sor_runs):
    _, report = sor_runs["O"]
    entities = [row["entity"] for row in report.critpath["hot_entities"]]
    assert any(name.startswith("page:") for name in entities)


# -- house invariants --------------------------------------------------------


def core_json(report):
    data = report.to_dict()
    data.pop("critpath")
    data.pop("profile")
    return json.dumps(data, sort_keys=True)


def test_critpath_on_off_byte_identical_core():
    """The NULL_-style guard: analysis observes, never perturbs."""
    _, plain = run_once(critpath=False)
    _, analyzed = run_once(critpath=True)
    assert plain.critpath is None
    assert analyzed.critpath is not None
    assert core_json(plain) == core_json(analyzed)


def test_analysis_is_deterministic_across_reruns():
    _, first = run_once()
    _, second = run_once()
    assert json.dumps(first.critpath, sort_keys=True) == json.dumps(
        second.critpath, sort_keys=True
    )


def test_parallel_workers_carry_the_section_identically():
    """--jobs N ships reports through JSON; the section must survive
    bit-for-bit (floats included)."""
    from repro.parallel import RunSpec, run_specs

    config = RunConfig(num_nodes=4, critpath=True)
    spec = RunSpec(
        index=0, app_name="SOR", preset="small", label="O", config=config, verify=True
    )
    (shipped,) = run_specs([spec], jobs=2)
    _, local = run_once()
    assert json.dumps(shipped.critpath, sort_keys=True) == json.dumps(
        local.critpath, sort_keys=True
    )


def test_critpath_works_with_explicit_tracer_and_flows_export(tmp_path):
    """--trace + --critpath together: the chrome export grows dwell
    slices and flow arrows, and still validates."""
    from repro.trace.validate import validate_chrome_trace

    runtime, report = run_once(trace=True)
    doc = runtime.tracer.chrome_trace(critpath=report.critpath)
    assert validate_chrome_trace(doc) == []
    rows = doc["traceEvents"]
    flows = [r for r in rows if r.get("cat") == "critpath" and r["ph"] in "sf"]
    dwells = [r for r in rows if r.get("cat") == "critpath" and r["ph"] == "X"]
    assert len(flows) == 2 * report.critpath["hops"]
    assert dwells, "critical path produced no dwell slices"
    # Flow ids pair up s with f.
    by_id = {}
    for r in flows:
        by_id.setdefault(r["id"], []).append(r["ph"])
    assert all(sorted(phases) == ["f", "s"] for phases in by_id.values())


def test_ring_overflow_is_surfaced_not_fatal():
    """A trace that lost its oldest events (a ring buffer's overflow, as a
    file from a bounded recorder holds) analyzes without crashing and
    reports its health honestly instead of claiming exactness."""
    runtime, report = run_once(critpath=False, trace=True)
    events = list(runtime.tracer.events)
    dropped = len(events) - 200
    result = analyze_events(events[dropped:], events_dropped=dropped)
    section = result.to_dict()
    assert section["events_dropped"] == dropped
    # Partial causality: the analyzer must not fabricate an exact path.
    assert section["path_us"] <= section["wall_time_us"] or not section["identity_exact"]


def test_pag_health_metrics_clean_on_full_trace(sor_runs):
    runtime, _ = sor_runs["O"]
    pag = build_pag(runtime.tracer.events)
    assert pag.dangling_arrivals == 0
    assert pag.overlap_us == 0.0
    assert pag.finish_ts, "sched_finish markers missing"


def test_offline_cli_round_trip(tmp_path, capsys):
    """python -m repro.critpath reproduces the in-process analysis from
    a written trace file, in both the JSONL and the Chrome form: its
    ``--json`` file is byte for byte what ``repro.apps --critpath``
    writes.  A lossy adaptive run, so the rows the loader turns into
    events carry timeout and retransmit edges."""
    from repro.critpath.__main__ import load_trace, main

    runtime, report = run_once(
        trace=True,
        fault_plan=FaultPlan(drop_prob=0.05),
        transport=TransportConfig(adaptive=True),
    )
    # What ``python -m repro.apps ... --critpath PATH`` writes.
    online = json.dumps(report.critpath, indent=2, sort_keys=True) + "\n"
    jsonl = tmp_path / "run.jsonl"
    chrome = tmp_path / "run.json"
    runtime.tracer.write_jsonl(str(jsonl))
    runtime.tracer.write_chrome(str(chrome), critpath=report.critpath)
    for trace in (jsonl, chrome):
        out_json = tmp_path / f"{trace.name}.section.json"
        assert main([str(trace), "--json", str(out_json)]) == 0
        assert out_json.read_text() == online, trace.name
        pag = build_pag(load_trace(str(trace))[0])
        assert pag.timeouts and any(wire.category == "retransmit" for wire in pag.wires)
    text = capsys.readouterr().out
    assert "identity exact" in text
    assert "what-if projections" in text


def test_offline_cli_errors(tmp_path, capsys):
    from repro.critpath.__main__ import main

    missing = tmp_path / "nope.jsonl"
    assert main([str(missing)]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main([str(empty)]) == 2
    capsys.readouterr()


# -- per-protocol blame ------------------------------------------------------


@pytest.fixture(scope="module")
def protocol_runs():
    """One SOR O run per coherence backend."""
    return {
        protocol: run_once("SOR", "O", protocol=protocol)
        for protocol in ("lrc", "hlrc", "sc")
    }


@pytest.mark.parametrize("protocol", ["lrc", "hlrc", "sc"])
def test_identity_holds_on_every_protocol(protocol_runs, protocol):
    """Path length == wall clock is a property of the analyzer, not of
    the LRC protocol it was first built against."""
    _, report = protocol_runs[protocol]
    section = report.critpath
    assert section["identity_exact"] is True
    assert section["path_us"] == report.wall_time_us
    assert section["unattributed_us"] == 0.0
    assert section["dp_identity_exact"] is True


def test_sc_faults_are_blamed_not_dumped_in_network(protocol_runs):
    """SC's coherence traffic gets named categories: ownership
    transfers blame ``invalidation``, data movement ``page_fetch`` —
    neither lands in the catch-all ``network`` bucket."""
    _, report = protocol_runs["sc"]
    blame = report.critpath["blame_us"]
    assert blame.get("invalidation", 0.0) > 0.0
    assert blame.get("page_fetch", 0.0) > 0.0
    assert "diff_rtt" not in blame
    # What's left in the catch-all is transport acks and membership —
    # the protocol's own round trips dwarf it.
    assert blame.get("network", 0.0) < blame["invalidation"] + blame["page_fetch"]


def test_hlrc_blames_home_traffic(protocol_runs):
    _, report = protocol_runs["hlrc"]
    blame = report.critpath["blame_us"]
    assert blame.get("page_fetch", 0.0) + blame.get("home_update", 0.0) > 0.0
    assert "diff_rtt" not in blame
