"""WATER-NSQ and WATER-SP: molecular dynamics (SPLASH-2).

Both simulate forces among water molecules over a few timesteps; they
differ in how interaction partners are found, which completely changes
the sharing pattern:

- **WATER-NSQ** (O(n^2)): every molecule interacts with the next n/2
  molecules (cyclically), so each thread scatters force contributions
  into every other thread's partition, accumulating under per-partition
  locks — the paper's prototypical lock-bound application ("the major
  misses occur when updating shared locations protected by locks").
- **WATER-SP** (O(n)): molecules live in a uniform grid of cells and
  interact only with neighbouring cells.  Molecule records are chased
  through per-cell linked lists (head/next pointers embedded in the
  records), which defeats address prediction; the prefetch strategy is
  the paper's history scheme — record the traversal order once, then
  prefetch through the recorded list.

Substitution note (DESIGN.md): the intra-molecule potentials of the
original are replaced by a soft pairwise central force on point
molecules; the interaction structure (who reads/writes whom, under
which lock, between which barriers) is preserved and all forces are
verified against a sequential reference.

Paper parameters: NSQ 512 molecules / 9 steps; SP 4096 molecules.
Scaled defaults: NSQ 192 molecules / 2 steps; SP 512 molecules / 2 steps.
"""

from __future__ import annotations

import numpy as np

from repro.api.ops import Acquire, Barrier, Compute, Release
from repro.apps.base import BARRIER_MAIN, AppBase, block_range

__all__ = ["WaterNsquared", "WaterSpatial", "pair_forces"]

#: Lock ids 8.. are partition locks (0..7 reserved for app scalars).
PARTITION_LOCK_BASE = 8

#: Flops charged per pairwise interaction (distance, force, accumulate).
PAIR_FLOPS = 30


def pair_forces(
    positions: np.ndarray, firsts: np.ndarray, seconds: np.ndarray, out: np.ndarray
) -> int:
    """Soft central forces (no singularity) of a batch of molecule pairs.

    Adds ``+f`` to ``out[first]`` and then ``-f`` to ``out[second]``,
    pair by pair, and returns the number of pairs.  Bit-equal to a loop
    of scalar evaluations (DESIGN.md §6.16): the stacked ``matmul``
    takes the ``ddot`` path a scalar ``delta @ delta`` takes, and
    ``np.add.at`` over interleaved targets adds in the loop's order.
    """
    delta = positions[firsts] - positions[seconds]
    r2 = (delta[:, None, :] @ delta[:, :, None])[:, 0, 0] + 0.05
    force = delta / (r2 * r2)[:, None]
    targets = np.column_stack((firsts, seconds)).ravel()
    np.add.at(out, targets, np.hstack((force, -force)).reshape(-1, 3))
    return len(delta)


def nsq_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The SPLASH-2 NSQ pair enumeration, i with the next n//2 molecules,
    as ``(firsts, seconds)`` index arrays in i-major, step-minor order."""
    half = n // 2
    firsts = np.repeat(np.arange(n), half)
    steps = np.tile(np.arange(1, half + 1), n)
    seconds = (firsts + steps) % n
    # Each diametrical pair once.
    keep = ~((steps == half) & (n % 2 == 0) & (firsts >= seconds))
    return firsts[keep], seconds[keep]


def nsq_reference(positions: np.ndarray) -> np.ndarray:
    """Sequential force computation for WATER-NSQ."""
    n = positions.shape[0]
    forces = np.zeros((n, 3))
    firsts, seconds = nsq_pairs(n)
    # One molecule's pairs per batch: all n²/2 at once would hold
    # megabytes of temporaries for no gain.
    bounds = np.searchsorted(firsts, np.arange(n + 1)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        pair_forces(positions, firsts[lo:hi], seconds[lo:hi], forces)
    return forces


class WaterNsquared(AppBase):
    """WATER-NSQ over the software DSM."""

    name = "WATER-NSQ"
    #: Calibrated (DESIGN.md).
    mflops = 7.6

    def __init__(self, num_molecules: int = 192, steps: int = 2, dt: float = 1e-4) -> None:
        super().__init__()
        if num_molecules < 16:
            raise ValueError("need at least 16 molecules")
        self.n = num_molecules
        self.steps = steps
        self.dt = dt
        self._initial: np.ndarray | None = None

    def setup(self, runtime) -> None:
        # positions[i] = (x, y, z); forces likewise.
        self.pos = runtime.alloc_matrix("water.pos", np.float64, self.n, 3)
        self.force = runtime.alloc_matrix("water.force", np.float64, self.n, 3)
        rng = runtime.random.stream("water.init")
        self._initial = rng.random((self.n, 3))
        self._pairs = nsq_pairs(self.n)
        #: per-processor shared accumulation buffers (Section 4.2: the
        #: paper modified WATER-NSQ to keep one shared copy of the data
        #: structure per processor, merging co-located threads' work
        #: before touching remote memory).
        self._node_acc: dict[tuple[int, int], np.ndarray] = {}

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        if tid == 0:
            yield Compute(self.flops_us(self.n * 3))
            yield self.pos.write_rows(0, self._initial)
            yield self.force.write_rows(0, np.zeros((self.n, 3)))
        yield Barrier(BARRIER_MAIN)

        lo, hi = block_range(self.n, threads, tid)
        # The thread's pairs are those whose first molecule it owns.
        firsts, seconds = self._pairs
        start, stop = np.searchsorted(firsts, (lo, hi))
        firsts, seconds = firsts[start:stop], seconds[start:stop]
        inside = (lo <= seconds) & (seconds < hi)
        # Phase A walks (i, j) lexicographically, phase B in SPLASH order.
        order = np.lexsort((seconds[inside], firsts[inside]))
        own_firsts, own_seconds = firsts[inside][order] - lo, seconds[inside][order] - lo
        cross_firsts, cross_seconds = firsts[~inside], seconds[~inside]
        for _step in range(self.steps):
            # Read all positions (the n^2 algorithm touches everyone).
            if self.use_prefetch:
                # Hand-tuned insertion (Section 3.2): the position array
                # is written only at barriers, so its write notices are
                # fully known here and the prefetch covers every miss.
                # The loop below is reordered so locally available pairs
                # compute first — that computation is the lead time.
                yield self.pos.prefetch_rows(0, self.n)
            own = np.asarray(
                (yield self.pos.read_rows(lo, hi - lo))
            ).reshape(hi - lo, 3)
            local = np.zeros((self.n, 3))

            # Phase A: pairs fully inside the thread's own block (the
            # position rows are local — written here last step).
            pair_count = pair_forces(own, own_firsts, own_seconds, local[lo:hi])
            yield Compute(self.flops_us(PAIR_FLOPS * pair_count))

            # Phase B: cross-block pairs; by now the prefetched remote
            # position pages have had phase A as lead time.
            positions = np.asarray(
                (yield self.pos.read_rows(0, self.n))
            ).reshape(self.n, 3)
            pair_count = pair_forces(positions, cross_firsts, cross_seconds, local)
            yield Compute(self.flops_us(PAIR_FLOPS * pair_count))

            # Merge into the per-processor shared buffer (Section 4.2's
            # optimization: co-located threads combine their work before
            # any remote accumulation), then one thread per node scatters
            # into the force partitions under their locks.  Lock
            # operations therefore do not grow with the thread count
            # (the paper's Table 2 shows exactly that for WATER-NSQ).
            tpn = runtime.config.threads_per_node
            node_id = tid // tpn
            acc = self._node_acc.setdefault(
                (node_id, _step), np.zeros((self.n, 3))
            )
            acc += local
            yield Compute(self.flops_us(3 * self.n))
            yield Barrier(BARRIER_MAIN)
            # Re-bind from the authoritative store: a barrier is a
            # potential recovery point, and a rollback replaces the
            # buffers (a stale local reference would see the replay's
            # double-accumulated copy).
            acc = self._node_acc[(node_id, _step)]
            if tid % tpn == 0:
                num_parts = self.force_partitions(runtime)
                part_bounds = [
                    block_range(self.n, num_parts, p) for p in range(num_parts)
                ]
                for step_offset in range(num_parts):
                    target = (node_id + step_offset) % num_parts  # stagger
                    plo, phi = part_bounds[target]
                    if not np.any(acc[plo:phi]):
                        continue
                    yield Acquire(PARTITION_LOCK_BASE + target)
                    current = np.asarray(
                        (yield self.force.read_rows(plo, phi - plo))
                    ).reshape(phi - plo, 3)
                    yield Compute(self.flops_us(3 * (phi - plo)))
                    yield self.force.write_rows(plo, current + acc[plo:phi])
                    yield Release(PARTITION_LOCK_BASE + target)
            yield Barrier(BARRIER_MAIN)

            # Advance own molecules, reset own forces.
            my_forces = np.asarray(
                (yield self.force.read_rows(lo, hi - lo))
            ).reshape(hi - lo, 3)
            yield Compute(self.flops_us(6 * (hi - lo)))
            yield self.pos.write_rows(lo, positions[lo:hi] + self.dt * my_forces)
            yield self.force.write_rows(lo, np.zeros((hi - lo, 3)))
            yield Barrier(BARRIER_MAIN)

    def snapshot_local(self):
        # The per-processor accumulation buffers are node-local memory,
        # not DSM state: without checkpointing them a crash rollback
        # would replay threads' ``acc += local`` on top of the discarded
        # execution's values and double-count every contribution.
        return {key: buf.copy() for key, buf in self._node_acc.items()}

    def restore_local(self, snapshot) -> None:
        self._node_acc = snapshot

    def verify(self, runtime) -> None:
        positions = self._initial.copy()
        for _ in range(self.steps):
            forces = nsq_reference(positions)
            positions = positions + self.dt * forces
        actual = runtime.read_matrix(self.pos)
        if not np.allclose(actual, positions, rtol=1e-8, atol=1e-10):
            worst = np.abs(actual - positions).max()
            raise AssertionError(f"WATER-NSQ position mismatch: {worst}")


# ---------------------------------------------------------------------------


def spatial_cells(positions: np.ndarray, cells_per_dim: int):
    """Assign each molecule to a cell of the unit cube."""
    index = np.minimum((positions * cells_per_dim).astype(int), cells_per_dim - 1)
    return index[:, 0] * cells_per_dim**2 + index[:, 1] * cells_per_dim + index[:, 2]


def neighbour_cells(cell: int, c: int) -> list[int]:
    """``cell`` and its up to 26 neighbours in a ``c``³ grid, in
    ``(dx, dy, dz)`` lexicographic order."""
    cx, cy, cz = cell // (c * c), (cell // c) % c, cell % c
    return [
        (nx * c + ny) * c + nz
        for nx in range(max(cx - 1, 0), min(cx + 2, c))
        for ny in range(max(cy - 1, 0), min(cy + 2, c))
        for nz in range(max(cz - 1, 0), min(cz + 2, c))
    ]


def cell_pairs(
    members: dict[int, list[int]], cell: int, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, j > i)`` with ``i`` in ``cell`` and ``j`` in a
    neighbouring cell: ``i`` in ``members`` order, then ``j`` in
    neighbour order and ``members`` order within a cell."""
    own = np.array(members.get(cell, ()), dtype=np.intp)
    others = np.array(
        [j for ncell in neighbour_cells(cell, c) for j in members.get(ncell, ())],
        dtype=np.intp,
    )
    keep = others > own[:, None]
    firsts = np.broadcast_to(own[:, None], keep.shape)[keep]
    return firsts, np.broadcast_to(others, keep.shape)[keep]


def sp_reference(positions: np.ndarray, cells_per_dim: int) -> np.ndarray:
    """Sequential force computation for WATER-SP (neighbour cells only)."""
    n = positions.shape[0]
    members: dict[int, list[int]] = {}
    for mol, cell in enumerate(spatial_cells(positions, cells_per_dim).tolist()):
        members.setdefault(cell, []).append(mol)
    forces = np.zeros((n, 3))
    # One cell's pairs per batch (see nsq_reference).
    for cell in members:
        pair_forces(positions, *cell_pairs(members, cell, cells_per_dim), forces)
    return forces


class WaterSpatial(AppBase):
    """WATER-SP over the software DSM (cell lists, pointer chasing)."""

    name = "WATER-SP"
    #: Calibrated (DESIGN.md).
    mflops = 3.05

    #: doubles per molecule record: x y z fx fy fz next pad
    RECORD_DOUBLES = 8

    def __init__(self, num_molecules: int = 512, steps: int = 2, cells_per_dim: int = 4) -> None:
        super().__init__()
        if num_molecules < 32:
            raise ValueError("need at least 32 molecules")
        self.n = num_molecules
        self.steps = steps
        self.c = cells_per_dim
        self.num_cells = cells_per_dim**3
        self._initial: np.ndarray | None = None

    def setup(self, runtime) -> None:
        # Molecule records scattered across pages; traversal chases the
        # embedded 'next' field, so addresses are unpredictable.
        self.mol = runtime.alloc_matrix(
            "sp.molecules", np.float64, self.n, self.RECORD_DOUBLES
        )
        self.head = runtime.alloc_vector("sp.head", np.float64, self.num_cells)
        self.force = runtime.alloc_matrix("sp.force", np.float64, self.n, 3)
        rng = runtime.random.stream("watersp.init")
        self._initial = rng.random((self.n, 3))
        # Per-node traversal history for the paper's history-based
        # prefetching of recursive structures (Luk & Mowry).
        self._history: dict[int, list[int]] = {}
        #: per-processor shared accumulation buffers (see WATER-NSQ).
        self._node_acc: dict[tuple[int, int], dict] = {}

    def thread_body(self, runtime, tid: int):
        threads = self.total_threads(runtime)
        c = self.c
        if tid == 0:
            yield Compute(self.flops_us(self.n * 8))
            cell_of = spatial_cells(self._initial, c)
            heads = np.full(self.num_cells, -1.0)
            records = np.zeros((self.n, self.RECORD_DOUBLES))
            records[:, :3] = self._initial
            # Build the linked lists: newest-first per cell.
            for mol in range(self.n):
                cell = int(cell_of[mol])
                records[mol, 6] = heads[cell]
                heads[cell] = mol
            yield self.mol.write_rows(0, records)
            yield self.head.write(0, heads)
            yield self.force.write_rows(0, np.zeros((self.n, 3)))
        yield Barrier(BARRIER_MAIN)

        cell_lo, cell_hi = block_range(self.num_cells, threads, tid)
        for step in range(self.steps):
            heads = np.asarray((yield self.head.read(0, self.num_cells)))
            # Gather the molecules of our cells and their neighbours by
            # chasing the linked lists (pointer-chasing reads).
            history_key = tid
            recorded = self._history.get(history_key)
            if self.use_prefetch and recorded:
                # History-based prefetching: we know the traversal order
                # from the previous step — prefetch straight through it.
                yield self.mol.prefetch_row_list(recorded)
            needed_cells = sorted(
                {ncell for cell in range(cell_lo, cell_hi) for ncell in neighbour_cells(cell, c)}
            )
            # cell -> its molecules in list order, as traversed
            chains: dict[int, list[int]] = {}
            records = np.zeros((self.n, self.RECORD_DOUBLES))
            for cell in needed_cells:
                chain = chains[cell] = []
                mol = int(heads[cell])
                while mol >= 0:
                    row = np.asarray((yield self.mol.read_row(mol)))
                    records[mol] = row
                    chain.append(mol)
                    yield Compute(self.flops_us(4))
                    mol = int(row[6])
            self._history[history_key] = [mol for chain in chains.values() for mol in chain]

            # Compute pair forces: each unordered pair (i, j>i) is
            # handled exactly once, by the thread owning cell(i), and
            # only across neighbouring cells — mirroring sp_reference.
            positions = records[:, :3]
            local = np.zeros((self.n, 3))
            paired = np.zeros(self.n, dtype=bool)
            pair_count = 0
            for cell in range(cell_lo, cell_hi):
                firsts, seconds = cell_pairs(chains, cell, c)
                pair_count += pair_forces(positions, firsts, seconds, local)
                paired[firsts] = True
                paired[seconds] = True
            yield Compute(self.flops_us(PAIR_FLOPS * pair_count))

            # Merge into the per-processor shared buffer, then one
            # thread per node accumulates into the shared force array
            # under partition locks (fixed partition count and
            # per-processor combining — see WATER-NSQ).
            tpn = runtime.config.threads_per_node
            node_id = tid // tpn
            acc = self._node_acc.setdefault((node_id, step), {})
            touched = np.flatnonzero(paired).tolist()
            for mol in touched:
                acc[mol] = acc[mol] + local[mol] if mol in acc else local[mol].copy()
            yield Compute(self.flops_us(3 * len(touched)))
            yield Barrier(BARRIER_MAIN)
            # Re-bind after the barrier (recovery point) — see WATER-NSQ.
            acc = self._node_acc[(node_id, step)]
            if tid % tpn == 0 and acc:
                num_parts = self.force_partitions(runtime)
                by_partition: dict[int, list[int]] = {}
                for mol in acc:
                    part = min(mol * num_parts // self.n, num_parts - 1)
                    by_partition.setdefault(part, []).append(mol)
                for part in sorted(by_partition):
                    yield Acquire(PARTITION_LOCK_BASE + part)
                    for mol in sorted(by_partition[part]):
                        current = np.asarray((yield self.force.read_row(mol)))
                        yield self.force.write_row(mol, current + acc[mol])
                    yield Compute(self.flops_us(3 * len(by_partition[part])))
                    yield Release(PARTITION_LOCK_BASE + part)

            # Per-step update of the owned molecule records (the real
            # application advances predictor/corrector state here).
            # Positions and list links stay fixed — the paper notes the
            # recursive structure does not change — but the records are
            # rewritten, so the next step's traversal refetches them.
            for cell in range(cell_lo, cell_hi):
                for mol in chains[cell]:
                    record = records[mol].copy()
                    record[3] = float(step + 1)
                    record[4] = float(mol)
                    yield Compute(self.flops_us(6))
                    yield self.mol.write_row(mol, record)
            yield Barrier(BARRIER_MAIN)

    def snapshot_local(self):
        # Accumulation buffers and traversal histories are node-local
        # memory (see WaterNsquared.snapshot_local).
        return {
            "acc": {
                key: {mol: vec.copy() for mol, vec in acc.items()}
                for key, acc in self._node_acc.items()
            },
            "history": {key: list(order) for key, order in self._history.items()},
        }

    def restore_local(self, snapshot) -> None:
        self._node_acc = snapshot["acc"]
        self._history = snapshot["history"]

    def verify(self, runtime) -> None:
        expected = sp_reference(self._initial, self.c) * self.steps
        actual = runtime.read_matrix(self.force)
        if not np.allclose(actual, expected, rtol=1e-7, atol=1e-9):
            worst = np.abs(actual - expected).max()
            raise AssertionError(f"WATER-SP force mismatch: {worst}")
        # Newton's third law: forces sum to ~zero.
        drift = np.abs(actual.sum(axis=0)).max()
        if not drift < 1e-6:
            raise AssertionError(f"WATER-SP forces do not sum to zero: {drift}")
