"""Tests for the experiment runner and label parsing."""

import pytest

from repro.apps.registry import APP_ORDER
from repro.errors import ConfigError
from repro.experiments import (
    ALL_EXPERIMENTS,
    CONFIG_LABELS,
    GRID_LABELS,
    ExperimentRunner,
    parse_label,
)
from repro.experiments.__main__ import main as experiments_main


def test_parse_labels():
    assert parse_label("O") == (1, False)
    assert parse_label("P") == (1, True)
    assert parse_label("2T") == (2, False)
    assert parse_label("8T") == (8, False)
    assert parse_label("4TP") == (4, True)


def test_parse_label_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_label("X")
    with pytest.raises(ValueError):
        parse_label("TTP")


def test_config_labels_cover_figure5():
    assert CONFIG_LABELS == ["O", "2T", "4T", "8T", "P", "2TP", "4TP", "8TP"]


def test_runner_caches_reports():
    runner = ExperimentRunner(num_nodes=2, preset="small")
    first = runner.run("SOR", "O")
    second = runner.run("SOR", "O")
    assert first is second


def test_runner_verifies_results():
    runner = ExperimentRunner(num_nodes=2, preset="small", verify=True)
    report = runner.run("SOR", "P")
    assert report.prefetch_stats is not None
    assert report.config_label == "P"


def test_runner_combined_sets_app_options():
    runner = ExperimentRunner(num_nodes=2, preset="small")
    report = runner.run("RADIX", "2TP")
    assert report.threads_per_node == 2
    assert report.prefetch_stats is not None


def test_runner_unknown_app():
    runner = ExperimentRunner(num_nodes=2, preset="small")
    with pytest.raises(ConfigError):
        runner.run("NOPE", "O")


@pytest.fixture(scope="module")
def grid():
    """Every (app, label) cell of the grid, run once for the module."""
    runner = ExperimentRunner(num_nodes=4, preset="small")
    return {
        (app_name, label): runner.run(app_name, label)
        for app_name in APP_ORDER
        for label in CONFIG_LABELS
    }


class DeclaredGridOnly(ExperimentRunner):
    """Refuses a grid read that the cache does not already hold."""

    def run(self, app_name, label):
        assert (app_name, label) in self._cache, f"reads undeclared grid label {label}"
        return super().run(app_name, label)


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_declared_grid_labels_cover_every_grid_read(experiment_id, grid):
    """The CLI fans out only what ``GRID_LABELS`` declares: a label an
    experiment reads without declaring would still run, but serially,
    one cell at a time, whatever ``--jobs`` says."""
    runner = DeclaredGridOnly(num_nodes=4, preset="small")
    runner._cache = {
        key: report for key, report in grid.items() if key[1] in GRID_LABELS[experiment_id]
    }
    # The two matrices that take an app list do not need all eight here.
    subset = {"apps": ["SOR"]} if experiment_id in ("adaptive", "protocol") else {}
    text, _data = ALL_EXPERIMENTS[experiment_id](runner, **subset)
    assert text


def test_declared_grid_labels_are_grid_labels():
    assert GRID_LABELS.keys() == ALL_EXPERIMENTS.keys()
    assert all(set(labels) <= set(CONFIG_LABELS) for labels in GRID_LABELS.values())


def test_cli_tables_do_not_depend_on_jobs(capsys):
    def tables(jobs):
        argv = ["fig1", "tab1", "--nodes", "2", "--preset", "small", "--jobs", jobs]
        assert experiments_main(argv) == 0
        return [
            line
            for line in capsys.readouterr().out.splitlines()
            # Progress and timing lines are no contract.
            if not line.startswith(("  running", "  finished")) and "regenerated in" not in line
        ]

    serial = tables("1")
    assert any(line.startswith("Figure 1") for line in serial)
    assert any(line.startswith("Table 1") for line in serial)
    assert tables("2") == serial
