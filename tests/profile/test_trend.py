"""repro.explain across N files: the table over the bench history."""

import glob
import json

from repro.explain import main


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


def table(out):
    """The printed rows after the summary line, keyed by metric name."""
    return {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}


def test_trend_table_aligns_metrics_across_points(tmp_path, capsys):
    paths = [
        write(tmp_path, "BENCH_2026-01-01.json", bench_doc("2026-01-01", 100.0)),
        write(
            tmp_path,
            "BENCH_2026-01-02.json",
            bench_doc("2026-01-02", 110.0, wall_b=50.0),
        ),
    ]
    assert main(paths) == 0
    rows = table(capsys.readouterr().out)
    # Filename stamps label the columns (unique even when dates repeat).
    assert rows["metric"] == ["2026-01-01", "2026-01-02", "net"]
    assert rows["SOR/O/wall_time_us"] == ["100", "110", "+10.0%"]
    # A metric absent from the older point shows "-" there, and has no net.
    assert rows["FFT/O/wall_time_us"] == ["-", "50", "-"]


def test_trend_table_pattern_filter(tmp_path, capsys):
    paths = [
        write(
            tmp_path,
            name,
            bench_doc(name, wall, extra={"total_messages": messages}),
        )
        for name, wall, messages in (("a.json", 100.0, 7), ("b.json", 90.0, 8))
    ]
    assert main([*paths, "--metric", "*/wall_time_us"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 of 1 metric(s) moved across 2 file(s)\n")
    assert list(table(out)) == ["metric", "SOR/O/wall_time_us"]
    assert table(out)["SOR/O/wall_time_us"] == ["100", "90", "-10.0%"]
    # The default selection is every metric; only the moved ones print.
    assert main(paths) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 of 2 metric(s) moved across 2 file(s)\n")
    assert set(table(out)) == {"metric", "SOR/O/wall_time_us", "SOR/O/total_messages"}


def test_cli_exit_2_on_empty_selection_and_bad_file(tmp_path, capsys):
    path = write(tmp_path, "BENCH_2026-01-01.json", bench_doc("2026-01-01", 100.0))
    assert main([path, "--metric", "nope/*"]) == 2
    assert "no metric matched" in capsys.readouterr().err
    assert main([str(tmp_path / "missing.json")]) == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    assert main([str(bogus)]) == 2


def test_cli_runs_over_committed_bench_files(capsys):
    files = sorted(glob.glob("BENCH_*.json"))
    assert len(files) >= 3, "the repo commits its bench history"
    assert main(files) == 0
    capsys.readouterr()
    # A deterministic simulator's history is flat between declared
    # re-baselines: the first two committed points agree on every
    # flattened metric (BENCH_2026-10-17.json is the first re-baseline).
    assert files[:3] == [
        "BENCH_2026-08-06.json", "BENCH_2026-09-28c.json", "BENCH_2026-10-17.json",
    ]
    assert main([*files[:2], "--tolerance", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 of 1948 metric(s) moved across 2 file(s)",
        "0 metric(s) moved by more than 0% of their first value",
    ]
    # The re-baseline moved simulated metrics, so the exact gate fails there.
    assert main([*files[1:3], "--tolerance", "0"]) == 1
