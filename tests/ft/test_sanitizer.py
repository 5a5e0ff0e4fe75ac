"""The sanitizer's checkpoint-cut check, on hand-built event streams and
end to end: the split-brain plant caught with a useful diagnostic, a
violation that derails the run, and a trace that does not depend on the
sanitizer."""

import pytest

from repro.api.runtime import DsmRuntime, RunConfig
from repro.apps import make_app
from repro.errors import ProtocolError, SimulationError
from repro.experiments.runner import make_configured_app, parse_label
from repro.ft import check_events, sanitizer
from repro.machine.cluster import Cluster
from repro.network import FaultPlan
from repro.trace import TraceEvent
from repro.trace.export import jsonl_lines
from tests.dsm.fixtures.record import fault_overrides, traced_run
from tests.plants import PLANTS, SPLIT_BRAIN_PLAN, split_brain
from tests.profile.test_from_trace import EveryName


def split_brain_config():
    return RunConfig(
        num_nodes=4, sanitizer=True, fault_plan=FaultPlan.from_dict(SPLIT_BRAIN_PLAN), ft=True
    )


@pytest.mark.parametrize("name", ["split_brain"])
def test_sanitizer_catches_planted_bug(monkeypatch, name):
    """The plant commits a cut across the membership split; the
    diagnostic names the episode and the nodes that did arrive."""
    PLANTS[name].apply(monkeypatch)
    with pytest.raises(ProtocolError) as excinfo:
        DsmRuntime(split_brain_config()).execute(make_app("SOR", "small"), verify=False)
    assert "sanitizer: checkpoint cut spans every node violated" in str(excinfo.value)
    assert "episode" in str(excinfo.value) and "arrivals [" in str(excinfo.value)


# -- the checkpoint cut, on hand-built event streams ---------------------------


def gather(barrier, episode, src):
    args = {"barrier": barrier, "episode": episode, "src": src}
    return TraceEvent(0.0, "i", "protocol", "barrier_gather", 0, args=args)


def checkpoint(barrier, episode):
    args = {"barrier": barrier, "episode": episode, "bytes": 64}
    return TraceEvent(0.0, "i", "ft", "checkpoint", 0, args=args)


RECOVER = TraceEvent(0.0, "i", "ft", "recover", 0, args={"nodes": [1]})


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


def verdict(events):
    try:
        check_events(events, 4)
    except ProtocolError as violation:
        return str(violation)
    return None


@pytest.mark.parametrize(
    "protocol, fault",
    [("hlrc", "crashloss-static"), ("sc", "crashloss-static"), ("lrc", "partition120-static")],
)
def test_the_fold_drops_only_events_it_never_reads(monkeypatch, protocol, fault):
    """``check_events`` skips every event whose name is not in ``_READS``;
    widening the set to every name gives the same verdicts, on the run's
    trace and on it without node 1's barrier arrivals."""
    planes = {"profile": False, "telemetry": False, "critpath": False, "sanitizer": False}
    runtime, _ = traced_run("SOR", "P", protocol, **planes, **fault_overrides(fault))
    events = list(runtime.tracer.events)
    cut = [e for e in events if not (e.name == "barrier_gather" and e.args["src"] == 1)]
    shipped = [verdict(events), verdict(cut)]
    monkeypatch.setattr(sanitizer, "_READS", EveryName())
    assert [verdict(events), verdict(cut)] == shipped
    # Not vacuous: the run commits cuts, and a crash rolls back.
    assert shipped[0] is None and "checkpoint cut spans every node" in shipped[1]
    names = {(e.cat, e.name) for e in events}
    assert (("ft", "recover") in names) == fault.startswith("crash")


def test_a_violation_that_derails_the_run_is_still_named(monkeypatch):
    """A run that raises after a cut across the split is folded over its
    partial trace: the error names the violation and chains the failure."""
    split_brain(monkeypatch)
    run = Cluster.run

    def derailed(self, *args, **kwargs):
        run(self, *args, **kwargs)
        raise SimulationError("node 2 never finished — deadlock?")

    monkeypatch.setattr(Cluster, "run", derailed)
    with pytest.raises(ProtocolError, match="checkpoint cut spans every node") as excinfo:
        DsmRuntime(split_brain_config()).execute(make_app("SOR", "small"))
    assert isinstance(excinfo.value.__cause__, SimulationError)
    assert "deadlock" in str(excinfo.value.__cause__)


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
