"""The chaos-search harness: seeded sampling, the four invariants,
shrinking to minimal reproducers, and replay.

The expensive guarantee lives in ``test_seeded_bug_is_caught_and_shrunk``:
with the split-brain plant applied (``tests/plants.py``), a single long
stall makes the coordinator complete barriers without the fenced node
and commit a checkpoint across the split — the sanitizer must flag it,
the harness must shrink the plan to <= 3 fault entries, and the written
reproducer must replay to the same failure."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosSample,
    SampleResult,
    evaluate_sample,
    fault_entry_count,
    generate_samples,
    load_reproducer,
    sample_plan,
    search,
    shrink,
    write_reproducer,
)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.search import MAX_EVENTS
from repro.errors import ConfigError
from repro.network.faults import FaultPlan
from tests.plants import PLANTS, split_brain

# Plausible small-preset wall clocks (µs); passing them skips the
# baseline calibration runs the CLI would do.
WALLS = {"SOR": 56_000.0, "FFT": 70_000.0, "LU-CONT": 90_000.0}


def make_config(**overrides):
    defaults = dict(seed=5, budget=6, apps=("SOR", "FFT", "LU-CONT"))
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def bug_sample(seed=11):
    """A hand-built 1-entry sample that tickles the split-brain plant: a
    135 ms stall fences node 1 long enough for the planted barrier
    manager to complete episodes without it."""
    return ChaosSample(
        index=0,
        app_name="SOR",
        preset="small",
        num_nodes=4,
        seed=seed,
        plan=PLANTS["split_brain"].plan,
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        ChaosConfig(budget=0)
    with pytest.raises(ConfigError):
        ChaosConfig(apps=("NOT-AN-APP",))
    with pytest.raises(ConfigError):
        ChaosConfig(jobs=0)


def test_sampled_plans_are_valid_and_deterministic():
    config = make_config(budget=12)
    first = generate_samples(config, walls=WALLS)
    second = generate_samples(config, walls=WALLS)
    assert first == second
    assert len(first) == 12
    for sample in first:
        # Every sampled plan must pass FaultPlan's own validation...
        plan = FaultPlan.from_dict(sample.plan)
        assert not plan.is_noop
        # ...and must be JSON round-trippable (reproducer files).
        assert FaultPlan.from_dict(json.loads(json.dumps(sample.plan))) == plan


def test_sampler_never_touches_node_zero():
    rng = np.random.default_rng(42)
    for _ in range(200):
        plan = sample_plan(rng, 60_000.0, 4)
        for crash in plan.get("crashes", ()):
            assert crash["node"] != 0
        for stall in plan.get("stalls", ()):
            assert stall["node"] != 0
        for cut in plan.get("partitions", ()):
            assert 0 not in cut.get("nodes", ())


def test_clean_sample_passes_all_invariants():
    sample = ChaosSample(
        index=0,
        app_name="SOR",
        preset="small",
        num_nodes=4,
        seed=7,
        plan={"drop_prob": 0.02},
    )
    result = evaluate_sample(sample)
    assert result.ok
    assert result.failures == []
    assert result.wall_time_us > 0


def test_seeded_bug_is_caught_and_shrunk(tmp_path, monkeypatch):
    # Without the plant the same sample passes: the stall alone is survivable.
    assert evaluate_sample(bug_sample()).ok

    split_brain(monkeypatch)
    result = evaluate_sample(bug_sample())
    assert result.failures == ["sanitizer"]
    assert "checkpoint cut spans every node" in result.error

    shrunk = shrink(result)
    assert shrunk.failures == ["sanitizer"]
    assert fault_entry_count(shrunk.sample.plan) <= 3

    # The written reproducer replays to the same failure.
    path = write_reproducer(shrunk, tmp_path / "repro.json")
    replayed = evaluate_sample(load_reproducer(path))
    assert replayed.failures == ["sanitizer"]
    assert "checkpoint cut spans every node" in replayed.error


def test_reproducer_round_trip(tmp_path):
    sample = bug_sample()
    result = evaluate_sample(sample)
    path = write_reproducer(result, tmp_path / "out" / "r.json")
    loaded = load_reproducer(path)
    assert replace(loaded, plan=sample.plan) == sample
    assert FaultPlan.from_dict(loaded.plan) == FaultPlan.from_dict(sample.plan)


@pytest.mark.parametrize(
    "field, value",
    [
        ("protocol", "lrcx"),
        ("app", "NOPE"),
        ("num_nodes", 1),
        ("split_brain_bug", True),
        ("max_events", 1_000),
    ],
)
def test_malformed_reproducer_is_rejected_not_graded(tmp_path, capsys, field, value):
    """A file that cannot replay what it names must not be graded: a
    bad app or protocol used to run as a deadlock and grade ``liveness``,
    an unknown bug switch would replay clean and read as fixed, and an
    event bound other than ``MAX_EVENTS`` would be graded against ours."""
    path = write_reproducer(evaluate_sample(bug_sample()), tmp_path / "r.json")
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        load_reproducer(path)
    assert chaos_main(["--replay", str(path)]) == 2
    assert "malformed reproducer" in capsys.readouterr().err


def test_reproducer_carrying_the_event_bound_still_loads(tmp_path):
    """Older builds wrote the liveness bound into every reproducer."""
    path = write_reproducer(SampleResult(bug_sample()), tmp_path / "r.json")
    path.write_text(json.dumps({**json.loads(path.read_text()), "max_events": MAX_EVENTS}))
    assert replace(load_reproducer(path), plan=bug_sample().plan) == bug_sample()


def test_load_reproducer_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(ConfigError):
        load_reproducer(path)


def test_search_is_deterministic_across_jobs():
    """fan_out with jobs=2 must produce the same verdicts as serial."""
    config = make_config(budget=4, apps=("SOR",))

    def run(jobs):
        results = search(ChaosConfig(seed=5, budget=4, apps=("SOR",), jobs=jobs))
        return [(r.sample.index, r.failures, r.error) for r in results]

    assert run(1) == run(2)


# -- coherence-protocol threading --------------------------------------------


def test_config_rejects_unknown_protocol():
    with pytest.raises(ConfigError):
        make_config(protocol="mesi")


def test_samples_inherit_the_config_protocol():
    config = make_config(budget=4, protocol="hlrc")
    for sample in generate_samples(config, walls=WALLS):
        assert sample.protocol == "hlrc"


@pytest.mark.parametrize("protocol", ["hlrc", "sc"])
def test_clean_sample_passes_all_invariants_per_protocol(protocol):
    """The four standing invariants (sanitizer, liveness, determinism,
    verify) are protocol-independent; the sanitizer arm checks the
    selected backend's own invariant set."""
    sample = ChaosSample(
        index=0,
        app_name="SOR",
        preset="small",
        num_nodes=4,
        seed=7,
        plan={"drop_prob": 0.02},
        protocol=protocol,
    )
    result = evaluate_sample(sample)
    assert result.ok
    assert result.failures == []


def test_reproducer_round_trips_the_protocol(tmp_path):
    sample = ChaosSample(
        index=3,
        app_name="SOR",
        preset="small",
        num_nodes=4,
        seed=9,
        plan={"drop_prob": 0.05},
        protocol="sc",
    )
    result = evaluate_sample(sample)
    path = write_reproducer(result, tmp_path / "r.json")
    loaded = load_reproducer(path)
    assert loaded.protocol == "sc"
    # Pre-zoo reproducer files (no protocol key) read back as lrc.
    data = json.loads(path.read_text())
    del data["protocol"]
    path.write_text(json.dumps(data))
    assert load_reproducer(path).protocol == "lrc"


def test_a_crash_that_leaves_no_majority_is_graded_as_expected():
    # One node of two is no majority: the FT layer raises FailureError at
    # once, and that is the right answer, not a liveness failure.
    sample = ChaosSample(
        index=0,
        app_name="SOR",
        preset="small",
        num_nodes=2,
        seed=42,
        plan={"crashes": [{"node": 1, "at_us": 30_000.0}]},
    )
    result = evaluate_sample(sample)
    assert result.ok
    assert "no majority" in result.error
