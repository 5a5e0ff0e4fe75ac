"""Experiment harness: regenerate every figure and table of the paper."""

from repro.experiments.adaptive import adaptive_matrix
from repro.experiments.crash import crash_matrix
from repro.experiments.critpath import critpath_matrix
from repro.experiments.figures import figure1, figure2, figure3, figure4, figure5
from repro.experiments.protocol import protocol_matrix
from repro.experiments.runner import CONFIG_LABELS, ExperimentRunner, parse_label
from repro.experiments.tables import table1, table2

ALL_EXPERIMENTS = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "tab1": table1,
    "tab2": table2,
    "crash": crash_matrix,
    "critpath": critpath_matrix,
    "adaptive": adaptive_matrix,
    "protocol": protocol_matrix,
}

#: The grid labels each experiment reads through ``runner.run`` (its
#: other runs are its own ``run_cells`` matrix).  The CLI fans the union
#: out across ``--jobs`` workers before tabulating; a label missing
#: here is still run, serially, and ``tests/experiments/test_runner.py``
#: fails.
GRID_LABELS = {
    "fig1": ("O",),
    "fig2": ("O", "P"),
    "fig3": ("P",),
    "fig4": ("O", "2T", "4T", "8T"),
    "fig5": tuple(CONFIG_LABELS),
    "tab1": ("O", "P"),
    "tab2": ("O", "2T", "4T", "8T"),
    "crash": ("O",),
    "critpath": ("P", "4T", "4TP"),
    "adaptive": ("P",),
    "protocol": (),
}

__all__ = [
    "ALL_EXPERIMENTS",
    "GRID_LABELS",
    "CONFIG_LABELS",
    "ExperimentRunner",
    "adaptive_matrix",
    "crash_matrix",
    "critpath_matrix",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "parse_label",
    "protocol_matrix",
    "table1",
    "table2",
]
