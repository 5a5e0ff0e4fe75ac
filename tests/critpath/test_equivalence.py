"""The tick analyzer against the Fraction analyzer it replaced.

``reference.py`` is the exact-rational analyzer kept verbatim; every
trace here is analyzed by both and the two ``to_dict()`` sections must be
equal — floats bit for bit, since ``==`` on floats is exact.  Two full
``RunReport``s are also held to fixtures recorded on the parent commit,
because no other gate looks at the ``critpath`` section of a report.
"""

import json

import pytest

from repro.apps import APP_ORDER
from repro.critpath import analyze_pag, build_pag
from repro.network import FaultPlan, TransportConfig
from repro.network.faults import NodeCrash
from tests.critpath.fixtures.record import CELLS, fixture_path, full_report_json
from tests.critpath.reference import analyze_pag as reference_analyze_pag
from tests.critpath.test_critpath import LABELS, run_once


def traced_run(app_name, label="O", **overrides):
    """A small 4-node run with the tracer on and the analyzer off."""
    runtime, report = run_once(app_name, label, critpath=False, trace=True, **overrides)
    return runtime.tracer.events, report


def assert_sections_equal(events):
    """Both analyzers on one PAG; returns the section for further checks."""
    pag = build_pag(events)
    new = analyze_pag(pag)
    ref = reference_analyze_pag(pag)
    section = new.to_dict()
    assert section == ref.to_dict()
    # The public exact fields keep their type and their values.
    assert new.blame == ref.blame
    assert new.entities == ref.entities
    assert new.on_path == ref.on_path
    assert new.what_if == ref.what_if
    assert new.path_length == ref.path_length
    return section


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("app_name", APP_ORDER)
def test_every_app_and_scheme_under_lrc(app_name, label):
    section = assert_sections_equal(traced_run(app_name, label)[0])
    assert section["identity_exact"] and section["dp_identity_exact"]
    assert section["epochs_exact"]


@pytest.mark.parametrize("protocol", ["hlrc", "sc"])
@pytest.mark.parametrize("app_name", ["RADIX", "WATER-NSQ"])
def test_home_based_and_sc_backends(app_name, protocol):
    section = assert_sections_equal(traced_run(app_name, protocol=protocol)[0])
    assert section["identity_exact"] and section["dp_identity_exact"]


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
def test_lossy_runs_cover_retransmit_and_timeout_edges(adaptive):
    events, report = traced_run(
        "SOR",
        fault_plan=FaultPlan(drop_prob=0.05),
        transport=TransportConfig(adaptive=adaptive),
    )
    assert report.retransmissions > 0
    pag = build_pag(events)
    assert pag.timeouts, "the loss plan produced no transport timeout"
    assert any(w.category == "retransmit" for w in pag.wires)
    assert_sections_equal(events)


def test_crash_recovery_run():
    _, baseline = traced_run("SOR", seed=11)
    plan = FaultPlan(crashes=(NodeCrash(node=2, at_us=baseline.wall_time_us * 0.5),))
    events, report = traced_run("SOR", seed=11, fault_plan=plan)
    assert report.extra["ft"]["recoveries"] == 1
    section = assert_sections_equal(events)
    assert section["blame_us"].get("ft", 0.0) > 0.0


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "-".join(cell))
def test_full_report_equals_the_parent_commit_fixture(cell):
    """Regenerate with ``fixtures/record.py`` (see its docstring) only
    after a declared re-baseline of the simulated side."""
    with open(fixture_path(*cell), encoding="utf-8") as handle:
        recorded = handle.read().rstrip("\n")
    got = full_report_json(*cell)
    if got != recorded:  # name the section instead of dumping 25 KB
        got_doc, want_doc = json.loads(got), json.loads(recorded)
        moved = sorted(
            key
            for key in got_doc.keys() | want_doc.keys()
            if got_doc.get(key) != want_doc.get(key)
        )
        pytest.fail(f"report sections differ from {fixture_path(*cell)}: {moved}")
