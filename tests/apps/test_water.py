"""WATER-NSQ and WATER-SP: correctness and lock behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DsmRuntime, RunConfig
from repro.apps.water import (
    WaterNsquared,
    WaterSpatial,
    cell_pairs,
    neighbour_cells,
    nsq_pairs,
    nsq_reference,
    pair_forces,
    sp_reference,
    spatial_cells,
)


# The scalar forms the batched kernel replaced, kept as its reference: the
# kernel must reproduce them bit for bit, not within a tolerance.


def pair_force(pos_i, pos_j):
    delta = pos_i - pos_j
    r2 = float(delta @ delta) + 0.05
    return delta / (r2 * r2)


def pair_loop(positions, pairs, out):
    for i, j in pairs:
        f = pair_force(positions[i], positions[j])
        out[i] += f
        out[j] -= f


def splash_pairs(n):
    half = n // 2
    for i in range(n):
        for step in range(1, half + 1):
            j = (i + step) % n
            if step == half and n % 2 == 0 and i >= j:
                continue
            yield i, j


def triple_loop_neighbours(cell, c):
    cx, cy, cz = cell // c**2, (cell // c) % c, cell % c
    return [
        (cx + dx) * c**2 + (cy + dy) * c + cz + dz
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
        if 0 <= cx + dx < c and 0 <= cy + dy < c and 0 <= cz + dz < c
    ]


def test_pair_force_is_antisymmetric():
    positions = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, 0.9]])
    forward, backward = np.zeros((2, 3)), np.zeros((2, 3))
    assert pair_forces(positions, np.array([0]), np.array([1]), forward) == 1
    pair_forces(positions, np.array([1]), np.array([0]), backward)
    assert np.array_equal(forward[0], -forward[1])
    assert np.array_equal(forward, backward)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_forces_equal_the_scalar_loop_bit_for_bit(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 37.5]))
    positions = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random((n, 3))
    positions *= scale
    # Few molecules, many pairs: every molecule repeats, on both sides.
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    )
    expected = np.zeros((n, 3))
    pair_loop(positions, pairs, expected)
    out = np.zeros((n, 3))
    firsts = np.array([i for i, _ in pairs], dtype=np.intp)
    seconds = np.array([j for _, j in pairs], dtype=np.intp)
    assert pair_forces(positions, firsts, seconds, out) == len(pairs)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("n", [16, 17, 48, 192])
def test_nsq_pairs_keep_splash_order(n):
    firsts, seconds = nsq_pairs(n)
    assert list(zip(firsts.tolist(), seconds.tolist())) == list(splash_pairs(n))


def test_nsq_pairs_cover_each_pair_once():
    for n in (8, 9):
        firsts, seconds = nsq_pairs(n)
        unordered = {tuple(sorted(p)) for p in zip(firsts.tolist(), seconds.tolist())}
        assert len(firsts) == len(unordered) == n * (n - 1) // 2


@pytest.mark.parametrize("c", [1, 2, 4, 5])
def test_neighbour_cells_equal_the_triple_loop(c):
    for cell in range(c**3):
        assert neighbour_cells(cell, c) == triple_loop_neighbours(cell, c)


def test_cell_pairs_follow_the_member_lists():
    rng = np.random.default_rng(3)
    c = 3
    members = {}
    for mol in rng.permutation(40).tolist():
        members.setdefault(int(rng.integers(c**3)), []).append(mol)
    for cell in range(c**3):
        firsts, seconds = cell_pairs(members, cell, c)
        expected = [
            (i, j)
            for i in members.get(cell, ())
            for ncell in triple_loop_neighbours(cell, c)
            for j in members.get(ncell, ())
            if j > i
        ]
        assert list(zip(firsts.tolist(), seconds.tolist())) == expected


def test_nsq_reference_equals_the_scalar_loop():
    positions = np.random.default_rng(4).random((33, 3))
    expected = np.zeros((33, 3))
    pair_loop(positions, splash_pairs(33), expected)
    assert np.array_equal(nsq_reference(positions), expected)


def test_nsq_reference_forces_sum_to_zero():
    rng = np.random.default_rng(0)
    forces = nsq_reference(rng.random((16, 3)))
    assert np.abs(forces.sum(axis=0)).max() < 1e-12


def test_spatial_cells_in_range():
    rng = np.random.default_rng(1)
    cells = spatial_cells(rng.random((100, 3)), 4)
    assert cells.min() >= 0 and cells.max() < 64


def test_sp_reference_forces_sum_to_zero():
    rng = np.random.default_rng(2)
    forces = sp_reference(rng.random((64, 3)), 4)
    assert np.abs(forces.sum(axis=0)).max() < 1e-12


def test_water_nsq_verifies_two_nodes():
    DsmRuntime(RunConfig(num_nodes=2)).execute(WaterNsquared(num_molecules=48, steps=1))


def test_water_nsq_verifies_eight_nodes():
    DsmRuntime(RunConfig(num_nodes=8)).execute(WaterNsquared(num_molecules=64, steps=2))


def test_water_nsq_multithreaded():
    DsmRuntime(RunConfig(num_nodes=2, threads_per_node=2)).execute(
        WaterNsquared(num_molecules=48, steps=1)
    )


def test_water_nsq_is_lock_heavy():
    report = DsmRuntime(RunConfig(num_nodes=4)).execute(
        WaterNsquared(num_molecules=64, steps=2)
    )
    assert report.events.remote_lock_misses > 0


def test_water_nsq_with_prefetch():
    app = WaterNsquared(num_molecules=64, steps=1)
    app.use_prefetch = True
    DsmRuntime(RunConfig(num_nodes=4, prefetch=True)).execute(app)


def test_water_nsq_combined():
    app = WaterNsquared(num_molecules=48, steps=1)
    app.use_prefetch = True
    DsmRuntime(RunConfig(num_nodes=2, threads_per_node=2, prefetch=True)).execute(app)


def test_water_sp_verifies_two_nodes():
    DsmRuntime(RunConfig(num_nodes=2)).execute(WaterSpatial(num_molecules=64, steps=1, cells_per_dim=3))


def test_water_sp_verifies_eight_nodes():
    DsmRuntime(RunConfig(num_nodes=8)).execute(WaterSpatial(num_molecules=96, steps=2, cells_per_dim=4))


def test_water_sp_history_prefetch():
    app = WaterSpatial(num_molecules=96, steps=2, cells_per_dim=4)
    app.use_prefetch = True
    report = DsmRuntime(RunConfig(num_nodes=4, prefetch=True)).execute(app)
    # Step 2 prefetches through the recorded traversal of step 1.
    assert report.prefetch_stats.issued > 0


def test_water_sp_multithreaded():
    DsmRuntime(RunConfig(num_nodes=2, threads_per_node=2)).execute(
        WaterSpatial(num_molecules=64, steps=1, cells_per_dim=3)
    )


def test_water_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        WaterNsquared(num_molecules=4)
    with pytest.raises(ValueError):
        WaterSpatial(num_molecules=8)
