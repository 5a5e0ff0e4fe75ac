"""Generated data-race-free programs owe SC results on every backend.

``tests/drf.py`` draws the tables and grades each run against its
sequential interpreter.  Every protocol x scheme pair runs its own
batch, and Hypothesis draws the rest of the configuration: node count,
page size (any multiple of 8), transport, seed and, for part of the
examples at every node count, a chaos-sampler fault plan (crashes
included) drawn against the clean run's wall time.  Tier-1 runs a fixed
derandomized batch; ``--hypothesis-profile=deep`` (``tests/conftest.py``)
runs a larger random one.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import DsmRuntime, RunConfig
from repro.chaos.search import sample_plan
from repro.errors import FailureError, ReproError
from repro.experiments.runner import parse_label
from repro.network import FaultPlan, TransportConfig
from tests.drf import Replay, tables
from tests.plants import PLANTS

NODES = (2, 3, 5, 8, 13, 32)
PAIRS = [(protocol, scheme) for protocol in ("lrc", "hlrc", "sc") for scheme in ("O", "P", "4T", "4TP")]
#: Tier-1's fixed batch, unless ``--hypothesis-profile=deep`` is loaded.
BATCH = (
    settings.default
    if settings.default is settings.get_profile("deep")
    else settings(max_examples=8, derandomize=True, database=None, deadline=None)
)


def run_drawn(data, protocol, scheme, nodes):
    """Draw one program and configuration, run it clean, then maybe under a fault plan."""
    threads_per_node, prefetch = parse_label(scheme)
    num_nodes = data.draw(nodes)
    table, cells = data.draw(tables(num_nodes * threads_per_node))
    config = dict(
        num_nodes=num_nodes,
        threads_per_node=threads_per_node,
        prefetch=prefetch,
        protocol=protocol,
        page_size=8 * data.draw(st.integers(1, 512)),
        transport=TransportConfig(adaptive=data.draw(st.booleans())),
        seed=data.draw(st.integers(0, 2**16)),
    )
    clean = DsmRuntime(RunConfig(**config)).execute(Replay(table, cells))
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        plan = sample_plan(rng, clean.wall_time_us, num_nodes)
        config.update(fault_plan=FaultPlan.from_dict(plan), ft=True)
        try:
            DsmRuntime(RunConfig(**config)).execute(Replay(table, cells))
        except FailureError:
            # A crash at 2 nodes leaves no majority, and the FT layer
            # says so at once; nowhere else may it give up.
            assert num_nodes == 2 and "crashes" in plan


@pytest.mark.parametrize("protocol,scheme", PAIRS)
@BATCH
@given(data=st.data())
def test_generated_programs_get_sc_results(protocol, scheme, data):
    # Rotated per pair: the first example of each batch is Hypothesis's
    # simplest, so the twelve batches start on every node count.
    k = PAIRS.index((protocol, scheme)) % len(NODES)
    run_drawn(data, protocol, scheme, st.sampled_from(NODES[k:] + NODES[:k]))


@pytest.mark.parametrize("name", sorted(set(PLANTS) - {"split_brain"}))
def test_the_corpus_catches_each_single_run_plant(name, monkeypatch):
    plant = PLANTS[name]
    plant.apply(monkeypatch)
    # A home update misrouted past its sender lands back on the home at 2 nodes.
    nodes = st.sampled_from(NODES[1:4] if name == "home_misrouted" else NODES[:3])

    @settings(max_examples=6, derandomize=True, database=None, deadline=None, phases=[Phase.generate])
    @given(data=st.data())
    def corpus(data):
        run_drawn(data, plant.protocol, data.draw(st.sampled_from(("O", "2T"))), nodes)

    with pytest.raises((AssertionError, ReproError)):
        corpus()


@pytest.mark.parametrize("scheme", ["O", "P"])
def test_hlrc_keeps_a_write_flushed_while_its_fetch_was_out(scheme):
    """Regression: node 1 flushes its write of cell 1 at a release while
    its fetch of the same page is out.  The home served the fetch before
    it applied that flush, and installing the copy reverted the write:
    thread 1 read 0, not 1001."""
    table = [
        [("read", 0), ("write", 0, 1000)],
        [("write", 1, 1001), ("add", 2, 0, 1), ("read", 1), ("add", 2, 0, 1)],
        [("compute", 300.0), ("add", 3, 1, 1)],
    ]
    config = RunConfig(num_nodes=3, prefetch=scheme == "P", protocol="hlrc", page_size=32)
    DsmRuntime(config).execute(Replay(table, 4))
