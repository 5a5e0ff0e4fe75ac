"""Checkpoint bookkeeping: stable-storage size accounting."""

import numpy as np

from repro.ft.checkpoint import ClusterCheckpoint, NodeCheckpoint


def _dsm_snapshot(page_bytes=4096):
    return {
        "pages": {0: np.zeros(page_bytes, dtype=np.uint8)},
        "coherence": {
            0: {"twin": np.zeros(page_bytes, dtype=np.uint8), "word_lamports": None}
        },
        "diff_store": {"by_page": {}},
        "wn_log": {"by_proc": [[], []], "by_page": {}, "total": 0},
        "vc": [3, 1],
    }


def test_node_checkpoint_measures_pages_twins_and_logs():
    ckpt = NodeCheckpoint(
        node_id=0,
        dsm=_dsm_snapshot(),
        transport={},
        thread_logs=[(0, [1.5, np.zeros(16, dtype=np.uint8)])],
    )
    # page + twin + vc (4 bytes/entry) + scalar log value (8) + array log value
    assert ckpt.size_bytes == 4096 + 4096 + 8 + 8 + 16


def test_cluster_checkpoint_sums_nodes():
    nodes = [
        NodeCheckpoint(node_id=i, dsm=_dsm_snapshot(), transport={}, thread_logs=[])
        for i in range(2)
    ]
    cluster = ClusterCheckpoint(
        kind="barrier",
        barrier_id=0,
        episode=3,
        taken_at=100.0,
        node_vcs=[[1, 0], [0, 1]],
        nodes=nodes,
    )
    assert cluster.size_bytes == sum(n.size_bytes for n in nodes)
