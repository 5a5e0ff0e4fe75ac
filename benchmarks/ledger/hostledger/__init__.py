"""Host-time ledger: what the simulator itself costs, end to end and by layer.

``spec`` names the workloads and metrics (pure data, no ``repro`` import),
``worker`` runs one workload inside a fresh subprocess, ``layers`` folds a
cProfile run into the layer taxonomy, ``compare`` gates one result file
against another.  ``../run.py`` is the command; ``../README.md`` the manual.
"""
