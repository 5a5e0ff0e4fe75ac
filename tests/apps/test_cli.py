"""``python -m repro.apps``: what the command prints agrees with itself."""

import re

from repro.apps.__main__ import main


def test_crash_baseline_is_the_configured_program(capsys):
    """``--crash FRAC`` places the crash at FRAC of the clean run of the
    *same* program: under ``P`` the baseline issues prefetches too."""
    run = ["SOR", "--config", "P", "--preset", "small", "--nodes", "4"]
    assert main(run) == 0
    (clean_ms,) = re.findall(r"wall time: +([\d.]+) ms", capsys.readouterr().out)
    assert main(run + ["--crash", "0.5"]) == 0
    crashed = capsys.readouterr().out
    (baseline_ms,) = re.findall(r"baseline wall time ([\d.]+) ms", crashed)
    assert baseline_ms == clean_ms
    assert "1 crash(es), 1 detected, 1 recovered" in crashed
