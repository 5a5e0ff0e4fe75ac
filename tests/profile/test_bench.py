"""The bench harness: schema validity and repro.explain interoperability."""

import json
import runpy
import sys

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    DEFAULT_CONFIGS,
    bench_filename,
    normalize_app,
    run_bench,
)
from repro.explain import explain, flatten


def test_normalize_app():
    assert normalize_app("sor") == "SOR"
    assert normalize_app(" water-nsq ") == "WATER-NSQ"
    with pytest.raises(ValueError):
        normalize_app("quake")


def test_bench_filename():
    assert bench_filename("20260806") == "BENCH_20260806.json"
    generated = bench_filename()
    assert generated.startswith("BENCH_") and generated.endswith(".json")
    assert len(generated) == len("BENCH_20260806.json")


def test_config_sets_cover_the_papers_schemes():
    assert DEFAULT_CONFIGS == ("O", "P", "4T", "4TP")


@pytest.fixture(scope="module")
def tiny_bench():
    return run_bench(
        ["sor"], ["O", "P"], num_nodes=2, preset="small", top_n=3, verbose=False
    )


def test_document_schema(tiny_bench):
    doc = tiny_bench
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["preset"] == "small" and doc["nodes"] == 2 and doc["seed"] == 42
    assert doc["configs"] == ["O", "P"]
    assert len(doc["runs"]) == 2
    json.dumps(doc)  # JSON-serializable end to end

    for run, label in zip(doc["runs"], ("O", "P")):
        assert run["app"] == "SOR" and run["config"] == label
        metrics = run["metrics"]
        assert metrics["wall_time_us"] > 0
        assert metrics["total_messages"] > 0
        assert any(key.startswith("time.") for key in metrics)
        fault_stats = run["quantiles"]["page_fault_us"]
        assert set(fault_stats) == {"count", "mean", "p50", "p90", "p99", "max"}
        assert fault_stats["count"] > 0
        assert len(run["hot_pages"]) <= 3  # honors top_n


def test_prefetch_config_actually_prefetches(tiny_bench):
    base, prefetched = tiny_bench["runs"]
    assert "prefetch_lead_us" not in base["quantiles"]
    assert prefetched["quantiles"]["prefetch_lead_us"]["count"] > 0


def test_bench_output_feeds_compare(tiny_bench):
    flat = flatten(tiny_bench)
    assert "SOR/O/wall_time_us" in flat
    assert "SOR/P/hist.page_fault_us.p99" in flat
    import io

    assert explain(["a", "b"], [flat, dict(flat)], tolerance=0.0, out=io.StringIO()) == 0


def test_bench_is_deterministic(tiny_bench):
    again = run_bench(
        ["sor"], ["O", "P"], num_nodes=2, preset="small", top_n=3, verbose=False
    )
    a, b = dict(tiny_bench), again
    a.pop("created"), b.pop("created")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def run_command(monkeypatch, module, *args):
    """``python -m MODULE ARGS...`` in-process: its exit code."""
    monkeypatch.setattr(sys, "argv", [module, *args])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module(module, run_name="__main__")
    return exited.value.code


# runpy warns that repro.explain was imported before it ran as __main__.
@pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
def test_sor_fft_document_matches_schema(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "bench.json")
    assert run_command(monkeypatch, "repro.bench", "--apps", "sor,fft", "--nodes", "4", "--out", out) == 0
    assert "wrote 8 runs" in capsys.readouterr().out
    with open(out) as handle:
        doc = json.load(handle)
    assert doc["schema"] == BENCH_SCHEMA
    assert {run["app"] for run in doc["runs"]} == {"SOR", "FFT"}
    assert flatten(doc)  # flattens without error
    assert run_command(monkeypatch, "repro.explain", out, out, "--tolerance", "0") == 0


def test_bench_records_the_protocol(tiny_bench):
    assert tiny_bench["protocol"] == "lrc"
    assert all(entry["protocol"] == "lrc" for entry in tiny_bench["runs"])


def test_bench_on_another_protocol_compares_against_itself():
    doc = run_bench(
        ["sor"], ["O"], num_nodes=2, preset="small", top_n=3,
        verbose=False, protocol="sc",
    )
    assert doc["protocol"] == "sc"
    assert doc["runs"][0]["protocol"] == "sc"
    import io

    flat = flatten(doc)
    assert explain(["a", "b"], [flat, dict(flat)], tolerance=0.0, out=io.StringIO()) == 0
