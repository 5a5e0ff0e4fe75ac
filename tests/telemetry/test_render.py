"""Offline rendering: dashboards from reports and from traces.

The exporter and renderer share the metric taxonomy, so a trace's
counter tracks must rebuild into the same series the report carries —
and the rebuilt section must re-grade to the same findings.
"""

import json

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import Sor
from repro.telemetry import TelemetryConfig
from repro.telemetry.__main__ import main as telemetry_main
from repro.telemetry.render import (
    load_section,
    render_html,
    render_text,
    section_from_trace,
)


@pytest.fixture(scope="module")
def traced_run():
    runtime = DsmRuntime(
        RunConfig(
            num_nodes=2,
            threads_per_node=1,
            trace=True,
            telemetry=TelemetryConfig(interval_us=2000.0),
        )
    )
    report = runtime.execute(Sor(rows=24, cols=24, iterations=2))
    trace = runtime.tracer.chrome_trace(telemetry=report.telemetry)
    return report, trace


def test_counter_rows_emitted_and_tagged(traced_run):
    report, trace = traced_run
    counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
    assert counters
    assert all(e["cat"] == "telemetry" for e in counters)
    assert all(isinstance(e["args"], dict) and e["args"] for e in counters)
    assert trace["otherData"]["telemetry_version"] == report.telemetry["version"]
    # Without the section, no counter rows and no marker.
    runtime2 = DsmRuntime(RunConfig(num_nodes=2, trace=True))
    runtime2.execute(Sor(rows=24, cols=24, iterations=2))
    bare = runtime2.tracer.chrome_trace()
    assert not any(e.get("ph") == "C" for e in bare["traceEvents"])
    assert "telemetry_version" not in bare["otherData"]


def test_trace_round_trips_series_and_findings(traced_run):
    report, trace = traced_run
    rebuilt = section_from_trace(trace)
    original = report.telemetry
    assert rebuilt["windows"] == original["windows"]
    for node_key, entry in original["nodes"].items():
        assert rebuilt["nodes"][node_key]["gauges"] == entry["gauges"]
        assert rebuilt["nodes"][node_key]["deltas"] == entry["deltas"]
    # Identical series re-grade to identical findings.
    assert rebuilt["findings"] == original["findings"]
    assert rebuilt["interval_us"] == original["interval_us"]


def test_one_window_trace_keeps_its_interval():
    """The window width rides ``otherData``: a run that fits in one
    window has no second boundary to infer it from."""
    runtime = DsmRuntime(
        RunConfig(num_nodes=2, telemetry=TelemetryConfig(interval_us=1e9))
    )
    report = runtime.execute(Sor(rows=24, cols=24, iterations=2))
    assert len(report.telemetry["windows"]) == 1
    trace = runtime.tracer.chrome_trace(telemetry=report.telemetry)
    assert trace["otherData"]["telemetry_interval_us"] == 1e9
    assert section_from_trace(trace)["interval_us"] == 1e9


def test_render_text_and_html_cover_the_section(traced_run):
    report, _trace = traced_run
    text = render_text(report.telemetry)
    assert "node 0:" in text and "node 1:" in text
    assert "sched.busy_us_total" in text
    assert "findings" in text
    assert "epochs:" in text
    html = render_html(report.telemetry, title="t")
    assert html.startswith("<!doctype html>")
    assert "<svg" in html and "watchdog findings" in html
    # Node filter restricts the text dashboard.
    only0 = render_text(report.telemetry, node=0)
    assert "node 0:" in only0 and "node 1:" not in only0


def test_load_section_accepts_report_section_and_trace(tmp_path, traced_run):
    report, trace = traced_run
    report_path = tmp_path / "report.json"
    report_path.write_text(report.to_json())
    section_path = tmp_path / "section.json"
    section_path.write_text(json.dumps(report.telemetry))
    trace_path = tmp_path / "trace.json"
    trace_path.write_text(json.dumps(trace))
    assert load_section(str(report_path)) == report.telemetry
    assert load_section(str(section_path)) == report.telemetry
    assert load_section(str(trace_path))["windows"] == report.telemetry["windows"]


def test_load_section_rejects_unrelated_files(tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text('{"hello": 1}')
    with pytest.raises(ValueError):
        load_section(str(bogus))
    no_telemetry_trace = tmp_path / "t.json"
    no_telemetry_trace.write_text('{"traceEvents": []}')
    with pytest.raises(ValueError):
        load_section(str(no_telemetry_trace))


def test_cli_renders_and_exit_codes(tmp_path, capsys, traced_run):
    report, _trace = traced_run
    path = tmp_path / "report.json"
    path.write_text(report.to_json())
    assert telemetry_main([str(path)]) == 0
    assert "telemetry v1" in capsys.readouterr().out
    html_out = tmp_path / "dash.html"
    assert telemetry_main([str(path), "--html", str(html_out)]) == 0
    assert html_out.read_text().startswith("<!doctype html>")
    # Load failures exit 2.
    assert telemetry_main([str(tmp_path / "missing.json")]) == 2


def test_cli_strict_fails_on_findings(tmp_path, capsys):
    section = {
        "version": 1,
        "interval_us": 1000.0,
        "windows": [1000.0, 2000.0, 3000.0, 4000.0, 5000.0],
        "nodes": {
            "0": {
                "gauges": {"transport.backlog": [0, 1, 2, 3, 4]},
                "deltas": {},
            }
        },
        "network": {"deltas": {}},
    }
    from repro.telemetry import run_watchdogs

    section["findings"] = run_watchdogs(section)
    assert section["findings"], "synthetic section must trip the watchdog"
    path = tmp_path / "section.json"
    path.write_text(json.dumps(section))
    assert telemetry_main([str(path)]) == 0  # findings alone don't fail
    assert telemetry_main([str(path), "--strict"]) == 1
    assert "backlog" in capsys.readouterr().out
