"""The parallel fan-out: spawn-safe workers, deterministic ordering."""

import pytest

from repro.api.runtime import RunConfig
from repro.experiments.runner import ExperimentRunner
from repro.parallel import RunSpec, default_jobs, execute_spec, run_specs


def make_specs(labels=("O", "P")):
    return [
        RunSpec(
            index=i,
            app_name="SOR",
            preset="small",
            label=label,
            config=RunConfig(num_nodes=2, threads_per_node=1, prefetch=(label == "P"), seed=42),
        )
        for i, label in enumerate(labels)
    ]


def test_default_jobs_is_at_least_one():
    assert default_jobs() >= 1


def test_spec_indices_must_be_dense():
    specs = make_specs()
    bad = [RunSpec(index=5, **{f: getattr(specs[0], f) for f in
                               ("app_name", "preset", "label", "config", "verify")})]
    with pytest.raises(ValueError):
        run_specs(bad, jobs=1)


def test_serial_path_reports_in_spec_order():
    specs = make_specs()
    done = []
    reports = run_specs(specs, jobs=1, on_done=lambda spec, _r: done.append(spec.label))
    assert done == ["O", "P"]
    assert [r.config_label for r in reports] == ["O", "P"]
    assert all(r.app_name == "SOR" for r in reports)


def test_parallel_output_is_independent_of_job_count():
    # The acceptance guard: a fanned-out sweep must be byte-identical
    # to the serial one, with results in spec order regardless of
    # completion order.
    specs = make_specs()
    serial = run_specs(specs, jobs=1)
    fanned = run_specs(specs, jobs=2)
    assert [r.to_json() for r in fanned] == [r.to_json() for r in serial]


def test_execute_spec_round_trips_through_json():
    (spec,) = make_specs(labels=("O",))
    report = execute_spec(spec)
    from repro.metrics.report import RunReport

    assert RunReport.from_json(report.to_json()).to_json() == report.to_json()


def test_experiment_runner_grid_prefetch_matches_serial():
    kwargs = dict(num_nodes=2, preset="small", seed=42, verify=True)
    serial = ExperimentRunner(jobs=1, **kwargs)
    fanned = ExperimentRunner(jobs=2, **kwargs)
    for runner in (serial, fanned):
        runner.prefetch_grid(["O", "P"], apps=["SOR"])
    # Serial runs on demand; fanned out, the grid is cached up front.
    assert not serial._cache
    assert list(fanned._cache) == [("SOR", "O"), ("SOR", "P")]
    for label in ("O", "P"):
        assert fanned.run("SOR", label).to_json() == serial.run("SOR", label).to_json()
