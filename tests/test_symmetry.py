import itertools
import tracemalloc
from math import comb, factorial, prod

import numpy as np
import pytest

from portclone import symmetry
from portclone.states import mpbt_signal, pbt_layout, pbtc_signal
from portclone.symmetry import (
    cycle_count,
    enumerate_ordered,
    enumerate_unordered,
    mean_row_gathers,
    permutation_unitary,
    permuted_positions,
    port_label,
    slot_gathers,
    stirling_first,
    subgroup_fixing_complement,
    sym_dim,
    symmetric_projector,
    symmetrize_slots,
)
from portclone.tensor_core import BlockGroup, DimensionCapError, SubsystemLayout, weight_sectors


class TestPortSets:
    def test_enumeration_count_and_order(self):
        outcomes = enumerate_unordered(4, 2)
        assert len(outcomes) == comb(4, 2)
        assert outcomes == sorted(outcomes)
        assert all(I == tuple(sorted(I)) for I in outcomes)

    def test_ordered_count(self):
        assert len(enumerate_ordered(4, 2)) == factorial(4) // factorial(2)

    @pytest.mark.parametrize("N,M", [(3, 0), (3, 4)])
    def test_enumeration_rejects_m_outside_1_to_n(self, N, M):
        for enumerate_outcomes in (enumerate_unordered, enumerate_ordered):
            with pytest.raises(ValueError, match="1 <= M <= N"):
                enumerate_outcomes(N, M)

    @pytest.mark.parametrize("ports", [(1, 1), (0, 2), (1, 4), ()])
    def test_bad_ports_rejected(self, ports):
        # a repeated port, port 0, a port above N = 3 and no port at all, in
        # every builder that takes ports
        builders = [
            lambda: pbtc_signal(ports, 3, 2),
            lambda: mpbt_signal(ports, 3, 2),
            lambda: symmetric_projector(ports, pbt_layout(3, 2)),
            lambda: subgroup_fixing_complement(ports, 3),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="distinct and in 1..3"):
                build()


def image_set(s, I):
    """sigma(I) for the permutation with 0-based images s."""
    return tuple(sorted(int(s[i - 1]) + 1 for i in I))


def ports_projector(d, M):
    """Symmetric projector on every slot of an M-port layout."""
    layout = SubsystemLayout([port_label(i) for i in range(1, M + 1)], [d] * M)
    return symmetric_projector(tuple(range(1, M + 1)), layout)


class TestPermutation:
    def test_homomorphism_on_unitaries(self):
        # V_sigma V_tau must equal V_{sigma tau} for every pair in S_3;
        # sigma after tau has the images s[t]
        slots = [port_label(i) for i in range(1, 4)]
        d = 2
        for s in map(np.array, itertools.permutations(range(3))):
            for t in map(np.array, itertools.permutations(range(3))):
                lhs = permutation_unitary(s, d, slots) @ permutation_unitary(t, d, slots)
                rhs = permutation_unitary(s[t], d, slots)
                assert np.abs(lhs.entries - rhs.entries).max() < 1e-14

    def test_action_on_basis_state(self):
        # sigma = (1 2 3) sends |k1 k2 k3> to |k3 k1 k2>
        v = permutation_unitary(np.array([1, 2, 0]), 2, ["a", "b", "c"])
        src = np.zeros(8)
        src[0b011] = 1.0  # |0 1 1>
        dst = v.entries @ src
        assert dst[0b101] == 1.0  # |1 0 1>

    def test_inverse(self):
        # the inverse of s is np.argsort(s), and V of the inverse is V^dagger
        rng = np.random.default_rng(2)
        slots = [port_label(i) for i in range(1, 6)]
        for _ in range(20):
            s = rng.permutation(5)
            v = permutation_unitary(s, 2, slots).entries
            v_inv = permutation_unitary(np.argsort(s), 2, slots).entries
            assert np.array_equal(v_inv, v.conj().T)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            permutation_unitary(np.array([0, 0, 2]), 2, ["a", "b", "c"])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="acts on 3 slots but 2 labels"):
            permutation_unitary(np.array([1, 2, 0]), 2, ["a", "b"])

    def test_cycle_count(self):
        assert cycle_count((0, 1, 2)) == 3
        assert cycle_count((1, 0, 2)) == 2
        assert cycle_count((1, 2, 0)) == 1

    def test_subgroup_size(self):
        I, N = (1, 3), 4
        members = subgroup_fixing_complement(I, N)
        assert members.shape == (factorial(len(I)), N)
        assert len(set(map(tuple, members.tolist()))) == factorial(len(I))
        for s in members:
            assert image_set(s, I) == I
            for j in (2, 4):
                assert s[j - 1] == j - 1


def whole_basis_maps(s, dims):
    """The maps of every basis index, built at once: the (slots, perms, D)
    table of the digits each slot takes, folded by `ravel_multi_index`."""
    digits = np.array(np.unravel_index(np.arange(prod(dims)), dims))
    return np.ravel_multi_index(tuple(digits[np.asarray(s).T]), dims)


def full_rows(sets, perms, n_slots):
    """The (P, n, n_slots) images of every slot under each permutation p of
    `perms` applied to each slot set S of `sets`: S[k] goes to S[p[k]], and
    every other slot is fixed."""
    rows = np.tile(np.arange(n_slots), (len(perms), len(sets), 1))
    for k in range(sets.shape[1]):
        rows[:, np.arange(len(sets)), sets[:, k]] = sets[:, perms[:, k]].T
    return rows


def sector_group(dims, n_conj):
    return BlockGroup(weight_sectors(dims, n_conj)[1], dims)


def all_perms(M):
    return np.array(list(itertools.permutations(range(M))))


class TestPermutedPositions:
    @pytest.mark.parametrize(
        "dims,n_conj,M",
        [((2,) * 5, 1, 2), ((3,) * 4, 1, 2), ((2,) * 7, 1, 4), ((2, 3, 2, 3, 3), 0, 3)],
    )
    def test_maps_are_whole_basis_maps_read_in_the_sectors(self, dims, n_conj, M):
        # every permutation of every set of M equal-dimension slots, after the
        # conjugated ones, on the weight sectors: the map of each index of the
        # group is the whole-basis map read at it, placed in its sector
        group = sector_group(dims, n_conj)
        assert len(group.widths) > 1
        slots = [j for j in range(n_conj, len(dims)) if dims[j] == dims[-1]]
        sets = np.array(list(itertools.combinations(slots, M)))
        perms = all_perms(M)
        positions = permuted_positions(group, sets, perms)
        assert positions.shape == (len(perms), len(sets), len(group.idx))
        rows = full_rows(sets, perms, len(dims)).reshape(-1, len(dims))
        expected = group.basis_pos[whole_basis_maps(rows, dims)[:, group.idx]]
        assert np.array_equal(positions.reshape(len(rows), -1), expected)
        # one set and one permutation read the same maps out of the stack
        one = permuted_positions(group, sets[-1:], perms[-1:])
        assert np.array_equal(one, positions[-1:, -1:])

    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (3, 3, 2), (2, 6, 4)])
    def test_maps_are_those_of_the_subgroup_members(self, d, N, M):
        # the Pi_I gathers of checks c and c3 map the indices by the members
        # of the subgroup that check a certifies, in its order
        group = sector_group((d,) * (N + 1), 1)
        outcomes = enumerate_unordered(N, M)
        positions = permuted_positions(group, np.array(outcomes), all_perms(M))
        for k, I in enumerate(outcomes):
            members = np.insert(subgroup_fixing_complement(I, N) + 1, 0, 0, axis=1)
            expected = group.basis_pos[whole_basis_maps(members, group.dims)[:, group.idx]]
            assert np.array_equal(positions[:, k], expected)

    def test_empty_stack_skips_the_block_lookup(self, monkeypatch):
        # every M = 1 caller passes no permutation; the result is an empty
        # stack of positions, with no lookup of an empty image array
        group = sector_group((2,) * 5, 1)

        def refuse(*args):
            raise AssertionError("positions looked up for an empty stack")

        monkeypatch.setattr(group, "positions", refuse)
        sets = np.array([[1], [2], [3]])
        positions = permuted_positions(group, sets, np.empty((0, 1), dtype=int))
        assert positions.shape == (0, 3, len(group.idx)) and positions.dtype == np.intp

    def test_image_leaving_its_block_raises(self):
        # swapping X with a port changes an index's weight, so its sector
        group = sector_group((2,) * 4, 1)
        with pytest.raises(ValueError, match="not closed"):
            permuted_positions(group, np.array([[0, 1]]), all_perms(2))

    def test_one_outcome_maps_peak_at_a_few_tables(self):
        # at (2, 8, 6) one outcome's 720 maps of 512 indices take 2.8 MiB; the
        # digit table of every slot at once peaked at about 10 times that
        d, N, M = 2, 8, 6
        group = sector_group((d,) * (N + 1), 1)
        sets = np.array(enumerate_unordered(N, M)[:1])
        perms = all_perms(M)
        tracemalloc.start()
        try:
            maps = permuted_positions(group, sets, perms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert maps.shape == (factorial(M), 1, d ** (N + 1))
        assert peak < 4 * maps.nbytes


class TestSymmetricProjector:
    def test_idempotent_hermitian(self):
        pi = ports_projector(2, 3)
        assert np.abs((pi @ pi).entries - pi.entries).max() < 1e-13
        assert np.abs(pi.entries - pi.entries.conj().T).max() < 1e-13

    @pytest.mark.parametrize("d,M", [(2, 2), (2, 3), (3, 2)])
    def test_rank_is_sym_dim(self, d, M):
        pi = ports_projector(d, M)
        assert round(pi.trace().real) == sym_dim(d, M) == comb(d + M - 1, M)

    def test_embedded_acts_as_identity_elsewhere(self):
        layout = SubsystemLayout(["A1", "A2", "A3"], [2, 2, 2])
        pi = symmetric_projector((1, 3), layout)
        # trace factorizes: sym_dim on the two symmetrized slots, d on the rest
        assert round(pi.trace().real) == sym_dim(2, 2) * 2

    def test_conjugation_identity(self):
        # V_sigma Pi_I V_sigma^dag = Pi_sigma(I) for every sigma and I, with the
        # dense product as the reference for the index gather the suite uses
        assert image_set(np.array([1, 2, 0]), (1, 2)) == (2, 3)
        for d, N, M in [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2)]:
            labels = [port_label(i) for i in range(1, N + 1)]
            layout = SubsystemLayout(labels, [d] * N)
            D = layout.dim
            projectors = {
                I: symmetric_projector(I, layout).entries for I in enumerate_unordered(N, M)
            }
            for s in map(np.array, itertools.permutations(range(N))):
                v = permutation_unitary(s, d, labels).entries
                g = whole_basis_maps(s, layout.dims)
                flat = (g[:, None] * D + g).ravel()
                for I, pi in projectors.items():
                    dense = v @ pi @ v.conj().T
                    assert np.array_equal(dense, pi.ravel().take(flat).reshape(D, D))
                    assert np.array_equal(dense, projectors[image_set(s, I)])


def reference_symmetrize_slots(a, layout, slots):
    """Pi A Pi as a row pass over the permutations of `slots`, then a column
    pass of the same gathers in the same order."""
    members = []
    for images in itertools.permutations(slots):
        row = list(range(len(layout.dims)))
        for j, i in zip(slots, images):
            row[j] = i
        members.append(row)
    gathers = whole_basis_maps(np.array(members), layout.dims)
    rows = sum(a[g] for g in gathers) / len(gathers)
    return sum(rows[:, g] for g in gathers) / len(gathers)


class TestSymmetrizeSlots:
    @pytest.mark.parametrize("d,M", [(2, 2), (2, 3), (3, 2)])
    def test_projector_is_average_of_permutation_unitaries(self, d, M):
        slots = [port_label(i) for i in range(1, M + 1)]
        dense = sum(
            permutation_unitary(np.array(s), d, slots).entries
            for s in itertools.permutations(range(M))
        ) / factorial(M)
        pi = ports_projector(d, M)
        assert np.abs(pi.entries - dense).max() < 1e-15

    def test_matches_dense_sandwich(self):
        rng = np.random.default_rng(21)
        layout = SubsystemLayout(["X", "A1", "A2", "A3"], [2] * 4)
        a = rng.normal(size=(16, 16))
        pi = symmetric_projector((1, 3), layout).entries
        assert np.abs(symmetrize_slots(a, layout, [1, 3]) - pi @ a @ pi).max() < 1e-14

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_equals_row_then_column_reference(self, kind):
        # mixed local dimensions, and the symmetrized slots 1, 3 and 4 are
        # not all adjacent
        rng = np.random.default_rng(8)
        layout = SubsystemLayout(["X", "A1", "Y", "A2", "A3"], [2, 3, 2, 3, 3])
        a = rng.normal(size=(layout.dim, layout.dim))
        if kind == "complex":
            a = a + 1j * rng.normal(size=a.shape)  # neither Hermitian nor real
        slots = [1, 3, 4]
        assert np.array_equal(
            symmetrize_slots(a, layout, slots), reference_symmetrize_slots(a, layout, slots)
        )
        pi = symmetric_projector((1, 2, 3), layout).entries
        [(_, [gathers])] = slot_gathers(BlockGroup([np.arange(layout.dim)], layout.dims), [slots])
        rows = mean_row_gathers(a[None], gathers)[0]
        assert np.abs(rows - pi @ a).max() < 1e-14

    def test_table_refused_before_permutations_are_listed(self, monkeypatch):
        # 8 slots of 2 levels: a table of 8! * 8 * 256 entries, above the cap
        def refuse(*args):
            raise AssertionError("permutations listed before the table was sized")

        monkeypatch.setattr(symmetry, "permuted_positions", refuse)
        layout = SubsystemLayout([f"c{k}" for k in range(8)], [2] * 8)
        with pytest.raises(DimensionCapError, match="basis-map table"):
            symmetrize_slots(np.zeros((layout.dim, layout.dim)), layout, range(8))


class TestStirling:
    def test_small_table(self):
        # rows n = 0..4 of the unsigned triangle
        assert stirling_first(0, 0) == 1
        assert stirling_first(3, 1) == 2
        assert stirling_first(3, 2) == 3
        assert stirling_first(4, 2) == 11
        assert stirling_first(5, 3) == 35

    def test_row_sum_is_factorial(self):
        for n in range(1, 9):
            assert sum(stirling_first(n, k) for k in range(n + 1)) == factorial(n)

    def test_generating_function(self):
        # sum_k s(n,k) d^k = d (d+1) ... (d+n-1)
        for n in range(1, 8):
            for d in range(2, 6):
                row = sum(stirling_first(n, k) * d**k for k in range(n + 1))
                assert row == factorial(n + d - 1) // factorial(d - 1)

    def test_cycle_census_matches(self):
        # the triangle counts permutations by cycle number
        for n in range(1, 7):
            census = {}
            for s in itertools.permutations(range(n)):
                c = cycle_count(s)
                census[c] = census.get(c, 0) + 1
            for k, count in census.items():
                assert count == stirling_first(n, k)

    @pytest.mark.parametrize("d,M", [(1, 2), (0, 0), (2, -1)])
    def test_sym_dim_rejects_invalid_arguments(self, d, M):
        with pytest.raises(ValueError, match="need d >= 2 and M >= 0"):
            sym_dim(d, M)

    def test_large_arguments_exact(self):
        # Python integers keep this exact far beyond float range
        val = stirling_first(60, 3)
        assert val > 10**80
        assert sum(stirling_first(60, k) for k in range(61)) == factorial(60)
