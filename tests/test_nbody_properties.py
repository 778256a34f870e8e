"""Seeded property battery for the particle pipeline.

Every property here is asserted as *equality*, not tolerance: the dyadic
initial conditions and fixed-point deposit make conservation and
decomposition-independence exact, so hypothesis gets to hunt for seeds
that break bit-level invariants rather than epsilon budgets.

The SPMD-driving properties keep ``max_examples`` small -- each example
spins up a full multi-rank run -- while the pure-kernel properties
(deposit order/decomposition independence, FoF partition invariance,
ragged-slice introspection) run at normal hypothesis volume.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import particles
from repro.analysis.particles import friends_of_friends, halo_sizes
from repro.apps.nbody import NBodySimulation
from repro.data import DataArray, ParticleSet, cic_deposit_int
from repro.mpi import run_spmd

seeds = st.integers(min_value=0, max_value=2**16 - 1)


def _global_state(nranks, seed, steps, backend=None, **kw):
    """state_tuple + exact conservation bookkeeping for one seeded run."""

    def prog(comm):
        sim = NBodySimulation(
            comm,
            grid=8,
            n_particles=120,
            seed=seed,
            velocity_scale=0.25,
            **kw,
        )
        mass_before = comm.allreduce(sim.particles.masses.sum())
        count_before = comm.allreduce(sim.n_local)
        sim.run(steps)
        gathered = comm.allgather(
            (sim.particles.ids, sim.particles.positions,
             sim.particles.velocities, sim.particles.masses)
        )
        world = ParticleSet.concatenate([ParticleSet(*p) for p in gathered])
        return {
            "state": world.state_tuple(),
            "mass_before": mass_before,
            "mass_after": world.total_mass(),
            "count_before": count_before,
            "count_after": world.num_particles,
            "migrated": sim.migrated_out,
        }

    return run_spmd(nranks, prog, backend=backend, timeout=90.0)


class TestSeededConservation:
    @given(seed=seeds, steps=st.integers(min_value=1, max_value=4))
    @settings(max_examples=6, deadline=None)
    def test_count_and_mass_exact(self, seed, steps):
        results = _global_state(3, seed, steps)
        for r in results:
            assert r["count_after"] == r["count_before"]
            # Dyadic masses (multiples of 1/16): both sums are exact.
            assert r["mass_after"] == r["mass_before"]

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_momentum_exact_under_pure_drift(self, seed):
        def prog(comm):
            sim = NBodySimulation(
                comm, grid=8, n_particles=100, seed=seed, gravity=0.0,
                velocity_scale=0.25,
            )
            before = comm.allreduce(sim.particles.momentum())
            sim.run(3)
            after = comm.allreduce(sim.particles.momentum())
            return before.tobytes() == after.tobytes()

        assert all(run_spmd(2, prog, timeout=90.0))


class TestSeededEquivalence:
    @given(seed=seeds)
    @settings(max_examples=4, deadline=None)
    def test_thread_vs_process_bit_identical(self, seed):
        thread = _global_state(2, seed, 3, backend="thread")
        process = _global_state(2, seed, 3, backend="process")
        assert thread[0]["state"] == process[0]["state"]
        assert [r["migrated"] for r in thread] == [
            r["migrated"] for r in process
        ]

    @given(seed=seeds, steps=st.integers(min_value=1, max_value=3))
    @settings(max_examples=5, deadline=None)
    def test_rank_count_invariance(self, seed, steps):
        one = _global_state(1, seed, steps)[0]["state"]
        four = _global_state(4, seed, steps)[0]["state"]
        assert one == four

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_migration_restores_ownership(self, seed):
        """Migration runs at the *start* of each step, so after the last
        drift some particles may sit off-rank -- but one more migration
        must hand every one of them to its owning slab."""

        def prog(comm):
            sim = NBodySimulation(
                comm, grid=8, n_particles=100, seed=seed,
                velocity_scale=0.25,
            )
            sim.run(3)
            sim._migrate()
            owners = sim._owner_ranks(sim.particles.positions[:, 0])
            return bool(np.all(owners == comm.rank))

        assert all(run_spmd(3, prog, timeout=90.0))


def _population(seed, n):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 3))
    masses = rng.integers(1, 17, n) / 16.0
    return positions, masses


class TestDepositProperties:
    @given(seed=seeds, n=st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_order_independence(self, seed, n):
        positions, masses = _population(seed, n)
        grid = cic_deposit_int(positions, masses, 8)
        perm = np.random.default_rng(seed + 1).permutation(n)
        permuted = cic_deposit_int(positions[perm], masses[perm], 8)
        assert grid.tobytes() == permuted.tobytes()

    @given(
        seed=seeds,
        n=st.integers(min_value=0, max_value=200),
        split=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_decomposition_independence(self, seed, n, split):
        """Depositing any two-way split of the population and summing the
        int64 grids equals depositing the whole population at once."""
        positions, masses = _population(seed, n)
        split = min(split, n)
        whole = cic_deposit_int(positions, masses, 8)
        parts = cic_deposit_int(
            positions[:split], masses[:split], 8
        ) + cic_deposit_int(positions[split:], masses[split:], 8)
        assert whole.tobytes() == parts.tobytes()

    @given(seed=seeds, n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_quantized_mass_bounded_error(self, seed, n):
        """Each particle spreads over 8 corners; rounding each corner
        contribution costs at most 1/2 ulp of the scale, so the total
        integer mass is within 4*n of the exact scaled sum."""
        from repro.data import DEPOSIT_SCALE

        positions, masses = _population(seed, n)
        grid = cic_deposit_int(positions, masses, 8)
        exact = round(masses.sum() * DEPOSIT_SCALE)
        assert abs(int(grid.sum()) - exact) <= 4 * n


class TestFoFProperties:
    @given(seed=seeds, n=st.integers(min_value=2, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_partition_invariant_under_permutation(self, seed, n):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 3))
        labels = friends_of_friends(pos, 0.15)
        perm = rng.permutation(n)
        permuted = friends_of_friends(pos[perm], 0.15)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        same = labels[:, None] == labels[None, :]
        same_p = permuted[inverse][:, None] == permuted[inverse][None, :]
        assert bool(np.all(same == same_p))

    @given(seed=seeds, n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_halo_sizes_partition_the_population(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = friends_of_friends(rng.random((n, 3)), 0.2)
        assert sum(halo_sizes(labels, min_members=1)) == n
        assert all(s >= 2 for s in halo_sizes(labels))


def _brute_force_fof(positions, linking_length):
    """O(N^2) reference: every pair through the minimum-image test, then a
    union-find whose roots are the smallest index of their component."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d = pos[:, None, :] - pos[None, :, :]
    d -= np.rint(d)
    close = (d * d).sum(axis=-1) <= float(linking_length) ** 2
    for i, j in zip(*np.nonzero(np.triu(close, k=1))):
        ri, rj = find(int(i)), find(int(j))
        parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)], dtype=np.int64)


#: Dyadic lattice: coordinates are multiples of 1/UNITS, so every
#: difference and squared distance below is exact in float64.
UNITS = 64


@st.composite
def dyadic_fof_inputs(draw):
    """Positions with pairs planted on and just past the linking length.

    ``ll = 2*step/UNITS`` runs up to 0.375, past the 1/3 at which the
    search falls back to a single cell.  Planted partners sit exactly
    ``ll`` away (along an axis, or along (1, 2, 2)/3 when ``step`` allows)
    or one lattice unit further, and wrap across the periodic boundary;
    anchors favour the coordinates 0 and UNITS-1.  Chains of exactly-``ll``
    links need many label-propagation rounds once the indices are shuffled.
    """
    step = draw(st.integers(min_value=1, max_value=12))
    link = 2 * step
    coord = st.one_of(st.sampled_from([0, UNITS - 1]),
                      st.integers(min_value=0, max_value=UNITS - 1))
    point = st.tuples(coord, coord, coord)
    points = draw(st.lists(point, max_size=20))
    directions = [(link, 0, 0), (0, -link, 0), (0, 0, link)]
    if step % 3 == 0:
        k = link // 3
        directions += [(k, 2 * k, -2 * k), (-2 * k, k, 2 * k)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        anchor = np.array(draw(point))
        offset = np.array(draw(st.sampled_from(directions)))
        beyond = draw(st.booleans())
        offset += np.sign(offset) * beyond
        points += [tuple(anchor), tuple((anchor + offset) % UNITS)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        anchor = np.array(draw(point))
        offset = np.array(draw(st.sampled_from(directions)))
        length = draw(st.integers(min_value=2, max_value=30))
        points += [tuple((anchor + k * offset) % UNITS) for k in range(length)]
    pos = np.array(points, dtype=np.float64).reshape(-1, 3) / UNITS
    perm = draw(st.permutations(range(len(pos))))
    return pos[list(perm)], link / UNITS


class TestFoFMatchesBruteForce:
    @given(case=dyadic_fof_inputs())
    @settings(max_examples=200, deadline=None)
    def test_dyadic_boundary_wrap_and_chain_labels(self, case):
        pos, ll = case
        labels = friends_of_friends(pos, ll)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, _brute_force_fof(pos, ll))

    @given(
        seed=seeds,
        n=st.integers(min_value=0, max_value=120),
        ll=st.one_of(
            st.floats(min_value=0.01, max_value=0.7),
            st.sampled_from([1 / 3, 0.25, 0.2, 0.1, 0.05, 1 / 30, -0.1, 0.0, float("nan")]),
        ),
        batch=st.sampled_from([particles._PAIR_BATCH, 1, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unwrapped_float_positions(self, seed, n, ll, batch):
        """Positions outside the unit box, tiny negatives among them, and
        linking lengths whose inverse is an integer, or that are negative,
        zero or NaN (the test squares ll); small pair batches make labels
        carry across many batches."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-1.0, 2.0, (n, 3))
        pos[: n // 4] = -1e-18 * rng.random((n // 4, 3))
        with mock.patch.object(particles, "_PAIR_BATCH", batch):
            labels = friends_of_friends(pos, ll)
        assert np.array_equal(labels, _brute_force_fof(pos, ll))

    def test_empty_and_single_particle(self):
        for n in (0, 1):
            labels = friends_of_friends(np.zeros((n, 3)), 0.1)
            assert labels.dtype == np.int64
            assert labels.tolist() == list(range(n))


class TestRaggedSliceProperties:
    @given(
        seed=seeds,
        n=st.integers(min_value=0, max_value=50),
        lo=st.integers(min_value=0, max_value=50),
        span=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_slice_tuples_zero_copy_and_fingerprint(self, seed, n, lo, span):
        """Any per-rank slice of a ragged population stays zero-copy and
        fingerprints identically to a fresh copy of the same tuples."""
        rng = np.random.default_rng(seed)
        base = DataArray.from_aos("position", rng.random((n, 3)))
        lo = min(lo, n)
        hi = min(lo + span, n)
        view = base.slice_tuples(lo, hi)
        assert view.is_zero_copy
        assert view.num_tuples == hi - lo
        fresh = DataArray.from_aos("position", base.as_aos()[lo:hi].copy())
        assert view.fingerprint() == fresh.fingerprint()
