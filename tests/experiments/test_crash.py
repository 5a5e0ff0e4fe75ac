"""Smoke test for the crash-recovery matrix at tiny scale."""

import pytest

from repro.apps.registry import APP_ORDER
from repro.experiments import ALL_EXPERIMENTS, ExperimentRunner, crash_matrix
from repro.experiments.__main__ import main as experiments_main


def test_crash_matrix_registered():
    assert ALL_EXPERIMENTS["crash"] is crash_matrix


def test_crash_matrix_entries():
    runner = ExperimentRunner(num_nodes=4, preset="small", verify=True)
    text, data = crash_matrix(runner)
    assert "Crash matrix: node 3 crashes at 45% of the fault-free wall time (loss=0%)" in text
    assert set(data) == set(APP_ORDER)
    for entry in data.values():
        assert entry["recoveries"] == 1
        assert entry["detections"] == 1
        assert entry["crash_ms"] > entry["base_ms"]
        assert entry["checkpoint_kb"] > 0
        assert entry["heartbeats"] > 0


def test_cli_crash_id(capsys):
    code = experiments_main(["crash", "--nodes", "4", "--preset", "small"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Crash matrix" in out


def test_cli_requires_some_experiment():
    with pytest.raises(SystemExit):
        experiments_main([])
