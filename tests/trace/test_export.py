"""Exporter and validator tests: Chrome trace structure, JSONL, and the
format checks CI runs against fresh traces."""

import json

from repro.trace import TraceEvent, Tracer, chrome_trace, validate_chrome_trace
from repro.trace.export import (
    APP_TID_BASE,
    CPU_TID,
    IDLE_TID,
    PROTOCOL_TID,
    jsonl_lines,
)


def sample_tracer():
    tracer = Tracer()
    tracer.slice(0.0, 5.0, "cpu", "busy", node=0)
    tracer.slice(5.0, 2.0, "cpu", "memory_idle", node=0)
    tracer.instant(6.0, "protocol", "write_notices", node=0, count=3)
    tracer.begin(7.0, "sched", "stall:lock", node=1, tid=4)
    tracer.end(9.0, "sched", "stall:lock", node=1, tid=4)
    tracer.async_begin(3.0, "network", "msg:diff_request", node=0, id="m17")
    tracer.async_end(4.0, "network", "msg:diff_request", node=1, id="m17")
    return tracer


def test_chrome_trace_track_layout():
    trace = chrome_trace(sample_tracer().events)
    rows = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    by_name = {row["name"]: row for row in rows}
    assert by_name["busy"]["tid"] == CPU_TID
    assert by_name["memory_idle"]["tid"] == IDLE_TID
    assert by_name["write_notices"]["tid"] == PROTOCOL_TID
    assert by_name["stall:lock"]["tid"] == APP_TID_BASE + 4
    assert by_name["stall:lock"]["pid"] == 1


def test_chrome_trace_metadata_and_shape():
    trace = chrome_trace(sample_tracer().events)
    assert trace["displayTimeUnit"] == "ms"
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    names = {(e["name"], e["pid"], e["tid"]): e["args"] for e in meta}
    assert names[("process_name", 0, 0)] == {"name": "node 0"}
    assert names[("thread_name", 0, CPU_TID)] == {"name": "cpu"}
    assert names[("thread_name", 1, APP_TID_BASE + 4)] == {"name": "thread 4"}
    # Non-metadata timestamps come out sorted.
    ts = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
    assert ts == sorted(ts)
    # The whole thing is JSON-serializable.
    json.dumps(trace)


def test_chrome_trace_instants_scoped_and_async_ids_kept():
    trace = chrome_trace(sample_tracer().events)
    rows = [e for e in trace["traceEvents"] if e["ph"] != "M"]
    instant = next(e for e in rows if e["ph"] == "i")
    assert instant["s"] == "t"
    asyncs = [e for e in rows if e["ph"] in "be"]
    assert {e["id"] for e in asyncs} == {"m17"}


def test_sample_trace_passes_validator():
    assert validate_chrome_trace(chrome_trace(sample_tracer().events)) == []


def test_jsonl_round_trips_event_fields():
    lines = list(jsonl_lines(sample_tracer().events))
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 7
    assert rows[0] == {"ts": 0.0, "ph": "X", "cat": "cpu", "name": "busy", "node": 0, "dur": 5.0}
    assert rows[5]["id"] == "m17"


# -- validator rejection cases ------------------------------------------------


def wrap(events):
    return {"traceEvents": events}


def row(**kwargs):
    base = {"name": "x", "ph": "i", "ts": 0.0, "pid": 0, "tid": 0}
    base.update(kwargs)
    return base


def test_validator_rejects_non_object_top_level():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"events": []}) != []


def test_validator_rejects_missing_keys_and_unknown_phase():
    assert any("missing keys" in e for e in validate_chrome_trace(wrap([{"ph": "i"}])))
    assert any("unknown phase" in e for e in validate_chrome_trace(wrap([row(ph="Z")])))


def test_validator_rejects_unsorted_and_negative_timestamps():
    unsorted = wrap([row(ts=5.0), row(ts=1.0)])
    assert any("unsorted" in e for e in validate_chrome_trace(unsorted))
    assert any("bad timestamp" in e for e in validate_chrome_trace(wrap([row(ts=-1.0)])))


def test_validator_checks_duration_stack():
    orphan_end = wrap([row(ph="E", name="a")])
    assert any("no open B" in e for e in validate_chrome_trace(orphan_end))
    mismatched = wrap([row(ph="B", name="a"), row(ph="E", name="b", ts=1.0)])
    assert any("closes B" in e for e in validate_chrome_trace(mismatched))
    unclosed = wrap([row(ph="B", name="a")])
    assert any("unclosed B" in e for e in validate_chrome_trace(unclosed))
    balanced = wrap([row(ph="B", name="a"), row(ph="E", name="a", ts=1.0)])
    assert validate_chrome_trace(balanced) == []


def test_validator_rejects_bad_x_duration():
    assert any("bad dur" in e for e in validate_chrome_trace(wrap([row(ph="X")])))
    assert validate_chrome_trace(wrap([row(ph="X", dur=1.0)])) == []


def test_validator_allows_orphan_async_begin_but_not_orphan_end():
    # An unterminated b is what a dropped message looks like — legal.
    dropped = wrap([row(ph="b", cat="network", id="m1")])
    assert validate_chrome_trace(dropped) == []
    # An e with no matching b is a bug.
    orphan = wrap([row(ph="e", cat="network", id="m9")])
    assert any("no open b" in e for e in validate_chrome_trace(orphan))
    # Ids are scoped by category: same id, different cat, no match.
    cross_cat = wrap(
        [row(ph="b", cat="network", id="m1"), row(ph="e", cat="protocol", id="m1", ts=1.0)]
    )
    assert any("no open b" in e for e in validate_chrome_trace(cross_cat))


def test_validator_cli(tmp_path, capsys):
    from repro.trace.validate import main

    good = tmp_path / "good.json"
    good.write_text(json.dumps(chrome_trace(sample_tracer().events)))
    assert main([str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(wrap([row(ph="E")])))
    assert main([str(bad)]) == 1
    assert main([str(tmp_path / "missing.json")]) == 2
    out = capsys.readouterr().out
    assert "OK:" in out and "INVALID:" in out and "ERROR:" in out


def test_validator_cli_exits_2_on_dangling_causal_edge(tmp_path, capsys):
    """An orphan async e is a PAG wire edge whose begin the recorder
    dropped: worse than a format nit, so it gets its own exit code."""
    from repro.trace.validate import main

    doc = wrap([row(ph="e", cat="network", id="m9", name="msg:diff_reply")])
    doc["otherData"] = {"events_dropped": 7}
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps(doc))
    assert main([str(dangling)]) == 2
    out = capsys.readouterr().out
    assert "7 events dropped" in out
    assert "causal (PAG) edge" in out


def test_validator_cli_reports_drop_count_on_valid_trace(tmp_path, capsys):
    from repro.trace.validate import main

    doc = chrome_trace(sample_tracer().events)
    doc["otherData"]["events_dropped"] = 3  # a file whose recorder discarded events
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "3 events dropped" in out


def test_chrome_trace_critpath_overlay():
    from repro.trace.export import CRITPATH_TID

    section = {
        "dwells": [{"node": 0, "start": 0.0, "end": 5.0}],
        "flows": [
            {"src": 0, "src_ts": 5.0, "dst": 1, "dst_ts": 6.0, "category": "diff_rtt"}
        ],
    }
    doc = chrome_trace(sample_tracer().events, critpath=section)
    rows = [e for e in doc["traceEvents"] if e.get("cat") == "critpath"]
    phases = sorted(r["ph"] for r in rows)
    assert phases == ["X", "f", "s"]
    flow = next(r for r in rows if r["ph"] == "s")
    assert flow["name"] == "diff_rtt" and flow["id"] == "cp0"
    dwell = next(r for r in rows if r["ph"] == "X")
    assert dwell["tid"] == CRITPATH_TID and dwell["dur"] == 5.0
    # The overlay track is named in the metadata.
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert any(
        e["name"] == "thread_name"
        and e["tid"] == CRITPATH_TID
        and e["args"] == {"name": "critical path"}
        for e in meta
    )
    # The tracer keeps every event, so the writer reports no drops.
    assert "events_dropped" not in doc["otherData"]
    assert validate_chrome_trace(doc) == []


def test_tracer_write_helpers(tmp_path):
    tracer = sample_tracer()
    chrome_path = tmp_path / "t.json"
    jsonl_path = tmp_path / "t.jsonl"
    tracer.write_chrome(str(chrome_path))
    tracer.write_jsonl(str(jsonl_path))
    assert validate_chrome_trace(json.loads(chrome_path.read_text())) == []
    assert len(jsonl_path.read_text().splitlines()) == len(tracer)


# -- telemetry counter overlay ------------------------------------------------


def telemetry_section():
    return {
        "version": 1,
        "interval_us": 5.0,
        "windows": [5.0, 10.0],
        "nodes": {
            "0": {
                "gauges": {"sched.runnable": [1, 0]},
                "deltas": {"dsm.faults": [2, 1]},
                "peers": {"1": {"cwnd": [8.0, 4.0], "rto_us": [900.0, 1800.0]}},
            }
        },
        "network": {"deltas": {"net.messages": [3, 1]}},
        "findings": [],
    }


def test_chrome_trace_telemetry_counter_overlay():
    from repro.trace.export import TELEMETRY_TID

    doc = chrome_trace(sample_tracer().events, telemetry=telemetry_section())
    counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
    assert counters and all(e["cat"] == "telemetry" for e in counters)
    assert all(e["tid"] == TELEMETRY_TID for e in counters)
    runnable = [e for e in counters if e["name"] == "sched.runnable"]
    assert [(e["ts"], e["args"]["value"]) for e in runnable] == [(5.0, 1), (10.0, 0)]
    # Per-peer metrics ride one multi-series track, keyed by peer id.
    cwnd = [e for e in counters if e["name"] == "transport.peer.cwnd"]
    assert [(e["ts"], e["args"]) for e in cwnd] == [
        (5.0, {"1": 8.0}),
        (10.0, {"1": 4.0}),
    ]
    assert doc["otherData"]["telemetry_version"] == 1
    # The overlaid trace still validates, and its timestamps stay sorted.
    assert validate_chrome_trace(doc) == []
    ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
    assert ts == sorted(ts)
    # Without the section: no counter rows, no marker (byte-stability).
    clean = chrome_trace(sample_tracer().events)
    assert not any(e.get("ph") == "C" for e in clean["traceEvents"])
    assert "telemetry_version" not in clean["otherData"]


def test_validator_rejects_malformed_counter_payloads():
    # No args at all / empty args.
    assert any(
        "C counter" in e for e in validate_chrome_trace(wrap([row(ph="C")]))
    )
    assert any(
        "C counter" in e for e in validate_chrome_trace(wrap([row(ph="C", args={})]))
    )
    # Non-numeric series values (strings, booleans, nested objects).
    for bad in ("high", True, {"nested": 1}, None):
        errors = validate_chrome_trace(wrap([row(ph="C", args={"value": bad})]))
        assert any("non-numeric" in e for e in errors), bad
    # Well-formed counters pass.
    good = wrap([row(ph="C", args={"value": 3}), row(ph="C", args={"0": 1.5, "1": 2})])
    assert validate_chrome_trace(good) == []


def test_validator_cli_exits_2_on_malformed_counter(tmp_path, capsys):
    from repro.trace.validate import main

    path = tmp_path / "counter.json"
    path.write_text(json.dumps(wrap([row(ph="C", args={"value": "high"})])))
    assert main([str(path)]) == 2
    out = capsys.readouterr().out
    assert "malformed counter payload" in out
