"""repro.explain between two files: flattening, the two-sided gate, and exit codes."""

import io
import json

import pytest

from repro.explain import explain, flatten, main

REPORT = {
    "wall_time_us": 1000.0,
    "total_messages": 50,
    "total_kbytes": 12.5,
    "message_drops": 0,
    "retransmissions": 2,
    "node_breakdowns": [
        {"busy": 600.0, "memory_stall": 100.0},
        {"busy": 550.0, "memory_stall": 150.0},
    ],
    "profile": {
        "histograms": {
            "diff_rtt_us": {"count": 9, "mean": 40.0, "p50": 38.0, "p90": 55.0,
                            "p99": 60.0, "max": 61.0, "buckets": {"30": 9}},
        },
        "counters": {"transport_retries_exhausted": 1},
    },
}

BENCH = {
    "schema": "repro-bench-1",
    "runs": [
        {
            "app": "SOR",
            "config": "O",
            "metrics": {"wall_time_us": 500.0, "time.busy": 300.0},
            "quantiles": {"page_fault_us": {"p99": 80.0, "count": 12}},
        },
        {
            "app": "SOR",
            "config": "P",
            "metrics": {"wall_time_us": 420.0},
            "quantiles": {},
        },
    ],
}


def gate(old, new, tolerance=0.0, out=None):
    """``explain`` over one OLD/NEW pair: the failing-metric count."""
    return explain(["old", "new"], [old, new], tolerance=tolerance, out=out or io.StringIO())


# -- flatten ------------------------------------------------------------------


def test_flatten_run_report():
    flat = flatten(REPORT)
    assert flat["wall_time_us"] == 1000.0
    assert flat["time.busy"] == 1150.0  # summed across nodes
    assert flat["time.memory_stall"] == 250.0
    assert flat["hist.diff_rtt_us.p99"] == 60.0
    assert flat["counter.transport_retries_exhausted"] == 1.0
    assert "hist.diff_rtt_us.buckets" not in flat


def test_flatten_bench_file():
    flat = flatten(BENCH)
    assert flat["SOR/O/wall_time_us"] == 500.0
    assert flat["SOR/O/time.busy"] == 300.0
    assert flat["SOR/O/hist.page_fault_us.p99"] == 80.0
    assert flat["SOR/P/wall_time_us"] == 420.0


def test_flatten_rejects_unknown_shape():
    with pytest.raises(ValueError):
        flatten({"something": "else"})


# -- the gate -----------------------------------------------------------------


def test_identical_inputs_no_regressions():
    flat = flatten(REPORT)
    out = io.StringIO()
    assert gate(flat, dict(flat), out=out) == 0
    assert out.getvalue().startswith(f"0 of {len(flat)} metric(s) moved across 2 file(s)\n")
    assert "0 metric(s) moved by more than 0%" in out.getvalue()


def test_growth_past_tolerance_is_a_regression():
    old = {"wall_time_us": 100.0}
    assert gate(old, {"wall_time_us": 125.0}, tolerance=0.2) == 1
    assert gate(old, {"wall_time_us": 115.0}, tolerance=0.2) == 0
    # The gate is two-sided: a fall past tolerance fails like a rise.
    assert gate(old, {"wall_time_us": 75.0}, tolerance=0.2) == 1
    assert gate(old, {"wall_time_us": 85.0}, tolerance=0.2) == 0
    assert gate(old, {"wall_time_us": 10.0}) == 1


def test_a_zero_base_shows_the_absolute_delta():
    out = io.StringIO()
    assert gate({"message_drops": 0.0}, {"message_drops": 176.0}, out=out) == 1
    text = out.getvalue()
    assert "+176  FAIL" in text
    assert "%" not in text.splitlines()[-2]  # the row itself has no percentage
    # Any fraction of a zero base is zero: a move off zero fails at every tolerance.
    assert gate({"message_drops": 0.0}, {"message_drops": 176.0}, tolerance=0.5) == 1


def test_unmatched_metrics_fail_under_exact_gate():
    # Under tolerance 0 the comparison is exact: a metric that appeared
    # or vanished is a difference, not a footnote.
    out = io.StringIO()
    count = gate({"a": 1.0, "gone": 5.0}, {"a": 1.0, "fresh": 5.0}, out=out)
    assert count == 2
    rows = {line.split()[0]: line.split()[1:] for line in out.getvalue().splitlines()}
    assert rows["gone"] == ["5", "-", "-", "FAIL"]
    assert rows["fresh"] == ["-", "5", "-", "FAIL"]
    assert "2 of 3 metric(s) moved" in out.getvalue()


def test_unmatched_metrics_are_notes_with_slop():
    out = io.StringIO()
    count = gate({"a": 1.0, "gone": 5.0}, {"a": 1.0, "fresh": 5.0}, tolerance=0.1, out=out)
    assert count == 0
    text = out.getvalue()
    assert "2 of 3 metric(s) moved" in text
    assert "FAIL" not in text


# -- CLI ----------------------------------------------------------------------


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_a_metric_that_only_falls_fails_the_exact_gate(tmp_path, capsys):
    # Halving one wall time is not a mechanical change: --tolerance 0
    # exits 0 only when no simulated metric moved at all.
    with open("BENCH_2026-10-17.json") as handle:
        doc = json.load(handle)
    for run in doc["runs"]:
        if (run["app"], run["config"]) == ("FFT", "O"):
            run["metrics"]["wall_time_us"] /= 2
    faster = write(tmp_path / "faster.json", doc)
    assert main(["BENCH_2026-10-17.json", faster, "--tolerance", "0"]) == 1
    out = capsys.readouterr().out
    assert "1 of 1948 metric(s) moved across 2 file(s)" in out
    assert "-50.0%  FAIL" in out


def test_main_exit_codes(tmp_path):
    old = write(tmp_path / "old.json", REPORT)
    same = write(tmp_path / "same.json", REPORT)
    assert main([old, same]) == 0
    assert main([old, same, "--tolerance", "0"]) == 0

    worse = json.loads(json.dumps(REPORT))
    worse["wall_time_us"] = 1500.0
    worse_path = write(tmp_path / "worse.json", worse)
    assert main([old, worse_path, "--tolerance", "0.2"]) == 1
    assert main([old, worse_path, "--tolerance", "0.6"]) == 0
    # Without --tolerance it only reports.
    assert main([old, worse_path]) == 0


def test_main_usage_errors_exit_2(tmp_path):
    ok = write(tmp_path / "ok.json", REPORT)
    assert main([ok, str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path / "bad.json", {"nope": 1})
    assert main([ok, bad]) == 2
    disjoint = write(tmp_path / "disjoint.json", {"wall_time_us": "not-a-number"})
    assert main([ok, disjoint, "--tolerance", "0"]) == 2  # no metrics in common
    with pytest.raises(SystemExit) as exited:
        main([ok, ok, "--tolerance", "-1"])  # compare's old "skip" value
    assert exited.value.code == 2
