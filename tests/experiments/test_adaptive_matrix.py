"""The static-vs-adaptive transport matrix at tiny scale: structure, the
scenarios' signatures, and ``--jobs`` stability."""

import json

import pytest

from repro.experiments import ExperimentRunner, adaptive_matrix
from repro.experiments.adaptive import ADAPTIVE_SCENARIOS


def run_matrix(jobs):
    runner = ExperimentRunner(num_nodes=2, preset="small", verify=True, jobs=jobs)
    return adaptive_matrix(runner, apps=["SOR"])


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(jobs=1)


def test_matrix_structure(matrix):
    text, data = matrix
    assert "Adaptive transport matrix" in text
    assert list(data) == ["SOR"]
    assert tuple(data["SOR"]) == ADAPTIVE_SCENARIOS
    for entry in data["SOR"].values():
        assert entry["static_wall_us"] > 0 and entry["adaptive_wall_us"] > 0
        assert entry["speedup"] == entry["static_wall_us"] / entry["adaptive_wall_us"]
        assert entry["rtt_samples"] > 0  # the adaptive arm really estimated


def test_matrix_shows_each_scenario(matrix):
    _, data = matrix
    clean, loss, degrade, partition = (data["SOR"][s] for s in ADAPTIVE_SCENARIOS)
    # A clean fabric never retransmits, and adaptation costs nothing on it.
    assert clean["static_retransmits"] == clean["adaptive_retransmits"] == 0
    assert clean["speedup"] == 1.0
    # Loss makes both arms retransmit; only the adaptive one has a window to halve.
    assert loss["static_retransmits"] > 0 and loss["adaptive_retransmits"] > 0
    assert loss["cwnd_halvings"] > 0
    # Latency above the fixed RTO: the static arm retransmits for the rest
    # of the run, the adaptive one learns the new round trip.
    assert degrade["static_retransmits"] > 2 * degrade["adaptive_retransmits"]
    # Both deliver through a healed partition, later than on a clean fabric.
    assert partition["static_wall_us"] > clean["static_wall_us"]
    assert partition["adaptive_wall_us"] > clean["adaptive_wall_us"]


def test_matrix_is_jobs_stable(matrix):
    """Acceptance gate: identical output for any --jobs N."""
    fanned = run_matrix(jobs=3)
    assert matrix[0] == fanned[0]
    assert json.dumps(matrix[1], sort_keys=True) == json.dumps(fanned[1], sort_keys=True)
