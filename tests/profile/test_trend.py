"""Trajectory tables across bench points (repro.profile.trend)."""

import io
import json

from repro.profile.trend import main, render_trend, trend_table


def bench_doc(created, wall_a, wall_b=None, extra=None):
    runs = [
        {"app": "SOR", "config": "O", "metrics": {"wall_time_us": wall_a}},
    ]
    if wall_b is not None:
        runs.append(
            {"app": "FFT", "config": "O", "metrics": {"wall_time_us": wall_b}}
        )
    if extra:
        runs[0]["metrics"].update(extra)
    return {"schema": "repro-bench-1", "created": created, "runs": runs}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_trend_table_aligns_metrics_across_points(tmp_path):
    paths = [
        write(tmp_path, "BENCH_2026-01-01.json", bench_doc("2026-01-01", 100.0)),
        write(
            tmp_path,
            "BENCH_2026-01-02.json",
            bench_doc("2026-01-02", 110.0, wall_b=50.0),
        ),
    ]
    labels, table = trend_table(paths)
    # Filename stamps label the columns (unique even when dates repeat).
    assert labels == ["2026-01-01", "2026-01-02"]
    assert table["SOR/O/wall_time_us"] == [100.0, 110.0]
    # A metric absent from the older point shows None there.
    assert table["FFT/O/wall_time_us"] == [None, 50.0]


def test_trend_table_pattern_filter(tmp_path):
    path = write(
        tmp_path,
        "BENCH_2026-01-01.json",
        bench_doc("2026-01-01", 100.0, extra={"total_messages": 7}),
    )
    _labels, table = trend_table([path], ["*/wall_time_us"])
    assert list(table) == ["SOR/O/wall_time_us"]
    _labels, everything = trend_table([path], None)
    assert set(everything) == {"SOR/O/wall_time_us", "SOR/O/total_messages"}


def test_render_trend_net_column_and_tsv(tmp_path):
    labels, table = (
        ["a", "b"],
        {"SOR/O/wall_time_us": [100.0, 110.0], "FFT/O/wall_time_us": [None, 50.0]},
    )
    out = io.StringIO()
    render_trend(labels, table, out=out)
    text = out.getvalue()
    assert "+10.0%" in text  # 100 -> 110
    assert "-" in text  # single-point metric has no net
    tsv = io.StringIO()
    render_trend(labels, table, out=tsv, tsv=True)
    lines = tsv.getvalue().splitlines()
    assert lines[0] == "metric\ta\tb\tnet"
    assert "SOR/O/wall_time_us\t100\t110\t+10.0%" in lines


def test_cli_default_selection_and_out(tmp_path, capsys):
    paths = [
        write(tmp_path, "BENCH_2026-01-01.json", bench_doc("2026-01-01", 100.0)),
        write(tmp_path, "BENCH_2026-01-02.json", bench_doc("2026-01-02", 90.0)),
    ]
    tsv_out = tmp_path / "trend.tsv"
    assert main([*paths, "--out", str(tsv_out)]) == 0
    out = capsys.readouterr().out
    assert "1 metric(s) across 2 bench point(s)" in out
    assert "-10.0%" in out
    assert tsv_out.read_text().startswith("metric\t")


def test_cli_exit_2_on_empty_selection_and_bad_file(tmp_path, capsys):
    path = write(tmp_path, "BENCH_2026-01-01.json", bench_doc("2026-01-01", 100.0))
    assert main([path, "--metric", "nope/*"]) == 2
    assert "no metric matched" in capsys.readouterr().err
    assert main([str(tmp_path / "missing.json")]) == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    assert main([str(bogus)]) == 2


def test_cli_runs_over_committed_bench_files(capsys):
    import glob

    files = sorted(glob.glob("BENCH_*.json"))
    assert len(files) >= 3, "the repo commits its bench history"
    assert main(files) == 0
    capsys.readouterr()
    # A deterministic simulator's history is flat between declared
    # re-baselines: the first two committed points agree on every wall
    # time (BENCH_2026-10-17.json is the first re-baseline).
    assert main(files[:2]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows and all(row[-1] == "+0.0%" for row in rows)
