"""The critical-path what-if matrix at tiny scale: structure, the
projections' ordering, and ``--jobs`` stability."""

import json

import pytest

from repro.apps.registry import APP_ORDER
from repro.experiments import ExperimentRunner, critpath_matrix


def run_matrix(jobs):
    return critpath_matrix(ExperimentRunner(num_nodes=2, preset="small", verify=True, jobs=jobs))


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(jobs=1)


def test_matrix_structure(matrix):
    text, data = matrix
    assert "Critical-path what-if matrix" in text
    assert list(data) == list(APP_ORDER)
    for entry in data.values():
        assert set(entry["measured_us"]) == {"O", "P", "4T", "4TP"}
        assert all(wall > 0 for wall in entry["measured_us"].values())
        assert entry["identity_exact"] is True
        assert entry["top_wait"] != "-"


def test_projections_bound_the_run_they_reweight(matrix):
    _, data = matrix
    for entry in data.values():
        measured, what_if = entry["measured_us"]["O"], entry["what_if_us"]
        # Hiding a latency can only shorten the O run's own path, and
        # nothing beats doing the compute alone.
        for scenario in ("perfect_prefetch", "zero_cost_switch", "zero_latency_network"):
            assert what_if["compute_floor"] <= what_if[scenario] <= measured
        # One thread per node never switches: that projection is the run.
        assert what_if["zero_cost_switch"] == measured


def test_matrix_is_jobs_stable(matrix):
    """Acceptance gate: identical output for any --jobs N."""
    runner = ExperimentRunner(num_nodes=2, preset="small", verify=True, jobs=3)
    runner.prefetch_grid(("P", "4T", "4TP"))
    fanned = critpath_matrix(runner)
    assert matrix[0] == fanned[0]
    assert json.dumps(matrix[1], sort_keys=True) == json.dumps(fanned[1], sort_keys=True)
