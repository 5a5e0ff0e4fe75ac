"""Cross-link determinism of fault injection and transport jitter.

One link's traffic (or one endpoint's retry count) must never perturb
the random draws another link sees: fault decisions come from
per-directed-link streams of the experiment's RandomSource, and
retransmit jitter from a hash of the copy's (seed, src, dst, seq,
attempt).
"""

from repro.machine.cluster import Cluster
from repro.network.faults import FaultPlan, FaultyNetwork
from repro.network.message import Message, MessageKind
from repro.network.transport import JITTER_FRAC, TIMEOUT_US, TransportConfig
from repro.sim import RandomSource, Simulator

import numpy as np
import pytest

from repro.errors import FaultConfigError


def _run_traffic(plan: FaultPlan, num_messages: int = 40):
    """Drive identical traffic on links 0->1 and 2->3; return both
    delivery schedules as (time, src, dst, seq-payload) tuples."""
    sim = Simulator()
    net = FaultyNetwork(sim, 4, plan, RandomSource(1234))
    deliveries = {1: [], 3: []}

    def handler_for(node_id):
        def handler(message):
            deliveries[node_id].append(
                (sim.now, message.src, message.dst, message.payload["i"])
            )

        return handler

    for node_id in range(4):
        net.attach(node_id, handler_for(node_id) if node_id in deliveries else lambda m: None)

    def send(src, dst, i):
        net.send(
            Message(
                src=src,
                dst=dst,
                kind=MessageKind.DIFF_REQUEST,
                size_bytes=256,
                payload={"i": i},
            )
        )

    for i in range(num_messages):
        sim.schedule(100.0 * (i + 1), send, 0, 1, i)
        sim.schedule(100.0 * (i + 1), send, 2, 3, i)
    sim.run()
    return deliveries


def test_loss_on_one_link_leaves_other_links_schedule_identical():
    clean = _run_traffic(FaultPlan())
    lossy = _run_traffic(
        FaultPlan(drop_prob=0.4, only_links=frozenset({(0, 1)}))
    )
    # The lossy link really lost something (the fault plan engaged)...
    assert len(lossy[1]) < len(clean[1])
    # ...while the 2->3 schedule is byte-identical with and without it.
    assert lossy[3] == clean[3]


def test_per_link_streams_are_independent():
    # Making ANOTHER link lossy must not change which messages a lossy
    # link drops or delays: each directed link draws its own stream.
    alone = _run_traffic(
        FaultPlan(
            drop_prob=0.3,
            duplicate_prob=0.2,
            reorder_prob=0.2,
            jitter_us=50.0,
            only_links=frozenset({(2, 3)}),
        )
    )
    both = _run_traffic(
        FaultPlan(
            drop_prob=0.3,
            duplicate_prob=0.2,
            reorder_prob=0.2,
            jitter_us=50.0,
            only_links=frozenset({(0, 1), (2, 3)}),
        )
    )
    assert both[3] == alone[3]
    # Sanity: the plan really bites on the newly lossy link too.
    assert len(both[1]) != len(_run_traffic(FaultPlan())[1])


def test_only_links_validation():
    with pytest.raises(FaultConfigError):
        FaultPlan(drop_prob=0.1, only_links=frozenset())
    with pytest.raises(FaultConfigError):
        FaultPlan(drop_prob=0.1, only_links=frozenset({(-1, 2)}))
    with pytest.raises(FaultConfigError, match="self-link"):
        FaultPlan(drop_prob=0.1, only_links={(1, 1)})
    plan = FaultPlan(drop_prob=0.1, only_links={(0, 1)})
    assert plan.only_links == frozenset({(0, 1)})
    assert not plan.is_noop


def test_transport_jitter_draws_are_per_endpoint():
    def jitter_sequence(dst: int, interleave: bool, src: int = 0, seed: int = 7):
        cluster = Cluster(num_nodes=3, transport=TransportConfig(), rng=RandomSource(seed))
        transport = cluster.transports[src]
        draws = []
        for seq in range(400):
            if interleave:
                # Retries against another endpoint must not shift this
                # endpoint's jitter.
                transport._timeout_us(3 - dst, seq, 1)
                transport._timeout_us(3 - dst, seq, 2)
            draws.append(transport._timeout_us(dst, seq, 1) / TIMEOUT_US - 1.0)
        return np.array(draws) / JITTER_FRAC

    toward_1 = jitter_sequence(1, interleave=False)
    assert np.array_equal(toward_1, jitter_sequence(1, interleave=True))
    # Each draw stretches the base by a fraction in [0, JITTER_FRAC),
    # spread over the whole range.
    assert toward_1.min() >= 0.0 and toward_1.max() < 1.0
    assert abs(toward_1.mean() - 0.5) < 0.05
    # Another endpoint pair -- another destination, another sender, or
    # the same pair under another seed -- draws an independent sequence.
    for other in (
        jitter_sequence(2, interleave=False),
        jitter_sequence(1, interleave=False, src=2),
        jitter_sequence(1, interleave=False, seed=8),
    ):
        assert not np.isin(toward_1, other).any()
        assert abs(np.corrcoef(toward_1, other)[0, 1]) < 0.15


def test_partition_of_one_link_leaves_other_links_schedule_identical():
    from repro.network.faults import LinkPartition

    clean = _run_traffic(FaultPlan())
    cut = _run_traffic(
        FaultPlan(
            partitions=(
                LinkPartition(start_us=500.0, end_us=2_500.0, links={(0, 1)}),
            )
        )
    )
    # The cut link lost its in-window traffic (partitions are absolute)...
    assert len(cut[1]) < len(clean[1])
    # ...and, because partitions consume zero random draws, the 2->3
    # schedule is byte-identical — timestamps included.
    assert cut[3] == clean[3]


def test_corruption_on_one_link_leaves_other_links_schedule_identical():
    from repro.network.faults import BitCorruption

    clean = _run_traffic(FaultPlan())
    noisy = _run_traffic(
        FaultPlan(
            corruptions=(
                BitCorruption(start_us=0.0, end_us=1e9, prob=0.4, links={(0, 1)}),
            )
        )
    )
    # Corruption flips payload bits but does not drop or delay: both
    # links deliver the same schedule, and 2->3 is untouched.
    assert noisy[3] == clean[3]
    assert [d[:3] for d in noisy[1]] == [d[:3] for d in clean[1]]
