"""Unit tests for the protocol-invariant sanitizer, plus end-to-end
tests of its fold over the trace: every planted bug caught with a useful
diagnostic, a violation that derails the run, and a trace that does not
depend on the sanitizer."""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.chaos.search import ChaosSample, evaluate_sample
from repro.errors import ProtocolError, SimulationError
from repro.experiments.runner import make_configured_app, parse_label
from repro.ft import ProtocolSanitizer, check_events, sanitizer
from repro.network import FaultPlan
from repro.trace import TraceEvent
from repro.trace.export import jsonl_lines
from tests.dsm.fixtures.record import fault_overrides, traced_run
from tests.plants import PLANTS, unserialized_directory
from tests.profile.test_from_trace import EveryName


@pytest.fixture
def san():
    return ProtocolSanitizer(num_nodes=4)


def test_vector_clock_monotonicity(san):
    san.on_vc_update(1, 2, 5, 6)
    with pytest.raises(ProtocolError, match="vector-clock monotonicity"):
        san.on_vc_update(1, 2, 6, 4)


def test_interval_creation_discipline(san):
    san.on_interval_closed(0, 1)
    san.on_interval_closed(0, 2)
    with pytest.raises(ProtocolError, match="interval creation discipline"):
        san.on_interval_closed(0, 4)  # skipped 3


def test_write_notice_must_name_a_created_interval(san):
    san.on_interval_closed(2, 1)
    san.on_write_notice(0, 2, 1, page_id=7)  # fine: interval 1 exists
    with pytest.raises(ProtocolError, match="dead interval"):
        san.on_write_notice(0, 2, 2, page_id=7)  # interval 2 never closed


def test_no_diff_applied_twice(san):
    san.on_diff_applied(3, page_id=9, proc=1, covers_through=4, lamport=17)
    with pytest.raises(ProtocolError, match="no diff applied twice"):
        san.on_diff_applied(3, page_id=9, proc=1, covers_through=4, lamport=17)
    # A different lamport is a different diff.
    san.on_diff_applied(3, page_id=9, proc=1, covers_through=4, lamport=18)


def test_twin_lifecycle(san):
    san.on_twin_created(0, 5)
    with pytest.raises(ProtocolError, match="twin created over an existing twin"):
        san.on_twin_created(0, 5)


def test_flush_requires_twin(san):
    with pytest.raises(ProtocolError, match="flushed without a twin"):
        san.on_flush(0, 5, had_twin=False)


def test_diagnostic_dump_carries_recent_transitions(san):
    san.on_vc_update(0, 0, 0, 1)
    san.on_interval_closed(0, 1)
    san.on_twin_created(1, 3)
    with pytest.raises(ProtocolError) as excinfo:
        san.on_twin_created(1, 3)
    message = str(excinfo.value)
    assert "recent protocol transitions" in message
    assert "closed own interval 1" in message
    assert "create twin for page 3" in message


def test_rollback_resets_derived_state(san):
    san.on_interval_closed(0, 1)
    san.on_interval_closed(0, 2)
    san.on_diff_applied(1, page_id=2, proc=0, covers_through=2, lamport=3)
    san.on_twin_created(1, 2)
    san.on_rollback(node_vcs=[[1, 0, 0, 0]] + [[0] * 4] * 3)
    # Interval ceiling rewound to the checkpoint: closing 2 again is fine.
    san.on_interval_closed(0, 2)
    # The discarded execution's diff/twin bookkeeping is forgotten.
    san.on_diff_applied(1, page_id=2, proc=0, covers_through=2, lamport=3)
    san.on_twin_created(1, 2)


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_sanitizer_catches_planted_bug(monkeypatch, name):
    """Each planted bug trips the invariant it breaks, end to end, with
    an actionable diagnostic."""
    plant = PLANTS[name]
    plant.apply(monkeypatch)
    plan = FaultPlan.from_dict(plant.plan) if plant.plan else None
    config = RunConfig(
        num_nodes=4, protocol=plant.protocol, sanitizer=True, fault_plan=plan, ft=plan is not None
    )
    with pytest.raises(ProtocolError) as excinfo:
        DsmRuntime(config).execute(make_app(plant.app, "small"), verify=False)
    message = str(excinfo.value)
    assert f"sanitizer: {plant.invariant} violated" in message
    assert "recent protocol transitions" in message
    if name == "diff_applied_twice":
        # The dump names the offending page/writer so the state is findable.
        assert "apply page" in message


# -- the checkpoint cut, on hand-built event streams ---------------------------


def gather(barrier, episode, src):
    args = {"barrier": barrier, "episode": episode, "src": src}
    return TraceEvent(0.0, "i", "protocol", "barrier_gather", 0, args=args)


def checkpoint(barrier, episode):
    args = {"barrier": barrier, "episode": episode, "bytes": 64}
    return TraceEvent(0.0, "i", "ft", "checkpoint", 0, args=args)


RECOVER = TraceEvent(0.0, "i", "ft", "recover", 0, args={"vcs": [[0] * 4] * 4})


def test_checkpoint_cut_needs_every_arrival():
    every = [gather(0, 1, src) for src in range(4)]
    check_events(every + [checkpoint(0, 1)], num_nodes=4)
    with pytest.raises(ProtocolError, match="checkpoint cut spans every node") as excinfo:
        check_events(every[:1] + every[2:] + [checkpoint(0, 1)], num_nodes=4)
    assert "barrier 0 episode 1 arrivals [0, 2, 3]" in str(excinfo.value)


def test_recover_forgets_the_discarded_arrivals():
    every = [gather(0, 2, src) for src in range(4)]
    with pytest.raises(ProtocolError, match=r"arrivals \[\]"):
        check_events(every + [RECOVER, checkpoint(0, 2)], num_nodes=4)
    check_events(every + [RECOVER] + every + [checkpoint(0, 2)], num_nodes=4)


def test_checkpoint_cost_slice_is_not_a_cut():
    """The ``cpu`` slice of a checkpoint's cost shares the instant's name."""
    cost = TraceEvent(0.0, "X", "cpu", "checkpoint", 1, dur=5.0)
    check_events([cost], num_nodes=4)


def recorded_checks(monkeypatch, events, protocol):
    """Every ``on_*`` call ``check_events`` makes over ``events``, in order."""
    calls = []

    class Recording(ProtocolSanitizer):
        pass

    for hook in (name for name in dir(ProtocolSanitizer) if name.startswith("on_")):
        def record(self, *args, _hook=hook, **kwargs):
            calls.append((_hook, args, kwargs))
            return getattr(ProtocolSanitizer, _hook)(self, *args, **kwargs)

        setattr(Recording, hook, record)
    with monkeypatch.context() as patch:
        patch.setattr(sanitizer, "ProtocolSanitizer", Recording)
        check_events(events, 4, protocol)
    return calls


@pytest.mark.parametrize(
    "protocol, fault",
    [("hlrc", "crashloss-static"), ("sc", "crashloss-static"), ("lrc", "partition120-static")],
)
def test_the_fold_drops_only_events_it_never_reads(monkeypatch, protocol, fault):
    """``check_events`` skips every event whose name is not in ``_READS``;
    widening the set to every name makes the same checks in the same order."""
    planes = {"profile": False, "telemetry": False, "critpath": False, "sanitizer": False}
    runtime, _ = traced_run("SOR", "P", protocol, **planes, **fault_overrides(fault))
    events = list(runtime.tracer.events)
    shipped = recorded_checks(monkeypatch, events, protocol)
    monkeypatch.setattr(sanitizer, "_READS", EveryName())
    assert recorded_checks(monkeypatch, events, protocol) == shipped
    # Not vacuous: every run checks its checkpoint cuts, and a crash rolls back.
    hooks = {hook for hook, _, _ in shipped}
    assert {"on_barrier_gather", "on_checkpoint"} <= hooks
    assert ("on_rollback" in hooks) == fault.startswith("crash")


# -- per-protocol gating -----------------------------------------------------


@pytest.fixture
def sc_san():
    return ProtocolSanitizer(num_nodes=4, protocol="sc")


@pytest.fixture
def hlrc_san():
    return ProtocolSanitizer(num_nodes=4, protocol="hlrc")


def test_lrc_machinery_is_a_violation_under_sc(sc_san):
    """Not silently skipped: under sc, an LRC hook firing at all IS the
    bug — the inert clock must never advance, no twin may ever exist."""
    with pytest.raises(ProtocolError, match="protocol isolation"):
        sc_san.on_vc_update(0, 0, 0, 1)
    with pytest.raises(ProtocolError, match="protocol isolation"):
        sc_san.on_interval_closed(0, 1)
    with pytest.raises(ProtocolError, match="protocol isolation"):
        sc_san.on_twin_created(0, 5)
    with pytest.raises(ProtocolError, match="protocol isolation"):
        sc_san.on_diff_applied(0, page_id=1, proc=1, covers_through=1, lamport=1)


def test_sc_machinery_is_a_violation_under_lrc(san):
    with pytest.raises(ProtocolError, match="protocol isolation"):
        san.on_sc_txn_start(0, page_id=3, requester=1, mode="write")
    with pytest.raises(ProtocolError, match="protocol isolation"):
        san.on_sc_install(1, page_id=3, mode="read")


def test_home_machinery_is_a_violation_under_lrc_and_sc(san, sc_san):
    for checker in (san, sc_san):
        with pytest.raises(ProtocolError, match="protocol isolation"):
            checker.on_home_update(0, page_id=3, home=0)


def test_hlrc_keeps_the_lrc_invariants(hlrc_san):
    """HLRC is still an LRC: the whole LRC invariant set stays armed."""
    hlrc_san.on_vc_update(1, 2, 5, 6)
    with pytest.raises(ProtocolError, match="vector-clock monotonicity"):
        hlrc_san.on_vc_update(1, 2, 6, 4)


def test_hlrc_home_routing(hlrc_san):
    hlrc_san.on_home_update(2, page_id=9, home=2)
    with pytest.raises(ProtocolError, match="home routing"):
        hlrc_san.on_home_update(1, page_id=9, home=2)


def test_hlrc_home_coverage_monotonicity(hlrc_san):
    hlrc_san.on_page_served(2, page_id=9, home=2, covers=(1, 2, 0, 0))
    hlrc_san.on_page_served(2, page_id=9, home=2, covers=(1, 2, 1, 0))
    with pytest.raises(ProtocolError, match="home coverage monotonicity"):
        hlrc_san.on_page_served(2, page_id=9, home=2, covers=(1, 1, 1, 0))


def test_sc_transaction_serialization(sc_san):
    sc_san.on_sc_txn_start(0, page_id=3, requester=1, mode="write")
    with pytest.raises(ProtocolError, match="transaction serialization"):
        sc_san.on_sc_txn_start(0, page_id=3, requester=2, mode="read")
    # A different page is a different transaction stream.
    sc_san.on_sc_txn_start(0, page_id=4, requester=2, mode="read")
    # Ending the transaction readmits the page.
    sc_san.on_sc_txn_end(0, page_id=3)
    sc_san.on_sc_txn_start(0, page_id=3, requester=2, mode="read")


def test_sc_single_writer(sc_san):
    # Pages boot SHARED everywhere: write access with three other
    # copies still valid is the canonical violation.
    with pytest.raises(ProtocolError, match="single writer"):
        sc_san.on_sc_install(1, page_id=3, mode="write")
    # After invalidating every other copy the same grant is legal.
    for node in (0, 2, 3):
        sc_san.on_sc_invalidate(node, page_id=5)
    sc_san.on_sc_install(1, page_id=5, mode="write")


def test_sc_invalidation_targeting(sc_san):
    sc_san.on_sc_invalidate(2, page_id=7)
    with pytest.raises(ProtocolError, match="invalidation targeting"):
        sc_san.on_sc_invalidate(2, page_id=7)  # node 2 holds no copy now


def test_sc_restore_rebuilds_the_copy_mirror(sc_san):
    for node in (0, 2, 3):
        sc_san.on_sc_invalidate(node, page_id=5)
    sc_san.on_sc_install(1, page_id=5, mode="write")
    sc_san.on_rollback(node_vcs=[[0] * 4] * 4)
    # The checkpoint had node 1 as sole holder: everyone else reports
    # page 5 invalid, node 1 reports nothing.
    for node in (0, 2, 3):
        sc_san.on_sc_restore(node, [5])
    sc_san.on_sc_restore(1, [])
    sc_san.on_sc_install(1, page_id=5, mode="write")  # still the sole holder


# -- the fold over the trace ---------------------------------------------------


def test_a_violation_that_derails_the_run_is_still_named(monkeypatch):
    """Two transactions on one page trip serialization, then the pumps
    deadlock on a shared completion event: the fold over the partial
    trace names the violation and chains the deadlock, and chaos grades
    the sample ``sanitizer``, not ``liveness``."""
    unserialized_directory(monkeypatch)
    with pytest.raises(ProtocolError, match="transaction serialization") as excinfo:
        DsmRuntime(RunConfig(num_nodes=4, protocol="sc", sanitizer=True)).execute(
            make_app("SOR", "small")
        )
    assert isinstance(excinfo.value.__cause__, SimulationError)
    assert "deadlock" in str(excinfo.value.__cause__)
    sample = ChaosSample(0, "SOR", "small", 4, 42, FaultPlan().to_dict(), protocol="sc")
    result = evaluate_sample(sample)
    assert result.failures == ["sanitizer"]
    assert "transaction serialization" in result.error


@pytest.mark.parametrize(
    "app_name, label, protocol",
    [("SOR", "P", "lrc"), ("WATER-NSQ", "4T", "hlrc"), ("RADIX", "4TP", "sc")],
)
def test_the_trace_does_not_depend_on_the_sanitizer(app_name, label, protocol):
    def jsonl(sanitizer):
        threads_per_node, prefetch = parse_label(label)
        config = RunConfig(
            num_nodes=4,
            threads_per_node=threads_per_node,
            prefetch=prefetch,
            protocol=protocol,
            trace=True,
            sanitizer=sanitizer,
        )
        runtime = DsmRuntime(config)
        runtime.execute(make_configured_app(app_name, "small", label))
        return "\n".join(jsonl_lines(runtime.tracer.events))

    assert jsonl(True) == jsonl(False)
