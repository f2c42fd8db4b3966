import itertools
from math import comb, factorial

import numpy as np
import pytest

from portclone.symmetry import (
    OrderedPorts,
    PortSet,
    cycle_count,
    enumerate_ordered,
    enumerate_unordered,
    permutation_unitary,
    permuted_basis_indices,
    port_label,
    stirling_first,
    subgroup_fixing_complement,
    sym_dim,
    symmetric_projector,
    symmetrize_slots,
)
from portclone.tensor_core import SubsystemLayout, weight_sectors


class TestPortSets:
    def test_enumeration_count_and_order(self):
        outcomes = enumerate_unordered(4, 2)
        assert len(outcomes) == comb(4, 2)
        assert [o.elements for o in outcomes] == sorted(o.elements for o in outcomes)

    def test_ordered_count(self):
        assert len(enumerate_ordered(4, 2)) == factorial(4) // factorial(2)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            PortSet((2, 1), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PortSet((1, 4), 3)

    def test_ordered_to_set(self):
        J = OrderedPorts((3, 1), 4)
        assert J.as_set() == PortSet((1, 3), 4)


def image_set(s, I):
    """sigma(I) for the permutation with 0-based images s."""
    return PortSet(tuple(sorted(int(s[i - 1]) + 1 for i in I)), I.N)


def ports_projector(d, M):
    """Symmetric projector on every slot of an M-port layout."""
    layout = SubsystemLayout([port_label(i) for i in range(1, M + 1)], [d] * M)
    return symmetric_projector(PortSet(tuple(range(1, M + 1)), M), d, layout)


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

    def test_cycle_count(self):
        assert cycle_count((0, 1, 2)) == 3
        assert cycle_count((1, 0, 2)) == 2
        assert cycle_count((1, 2, 0)) == 1

    def test_subgroup_size(self):
        I = PortSet((1, 3), 4)
        members = subgroup_fixing_complement(I)
        assert members.shape == (factorial(I.M), I.N)
        assert len(set(map(tuple, members.tolist()))) == factorial(I.M)
        for s in members:
            assert image_set(s, I) == I
            for j in (2, 4):
                assert s[j - 1] == j - 1


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
        pi = symmetric_projector(PortSet((1, 3), 3), 2, layout)
        # trace factorizes: sym_dim on the two symmetrized slots, d on the rest
        assert round(pi.trace().real) == sym_dim(2, 2) * 2

    def test_conjugation_identity(self):
        # V_sigma Pi_I V_sigma^dag = Pi_sigma(I) for every sigma and I, with the
        # dense product as the reference for the index gather the suite uses
        assert image_set(np.array([1, 2, 0]), PortSet((1, 2), 3)) == PortSet((2, 3), 3)
        for d, N, M in [(2, 3, 2), (2, 4, 2), (2, 4, 3), (3, 3, 2)]:
            labels = [port_label(i) for i in range(1, N + 1)]
            layout = SubsystemLayout(labels, [d] * N)
            D = layout.dim
            projectors = {
                I: symmetric_projector(I, d, layout).entries for I in enumerate_unordered(N, M)
            }
            for s in map(np.array, itertools.permutations(range(N))):
                v = permutation_unitary(s, d, labels).entries
                g = permuted_basis_indices(np.argsort(s), d)
                flat = (g[:, None] * D + g).ravel()
                for I, pi in projectors.items():
                    dense = v @ pi @ v.conj().T
                    assert np.array_equal(dense, pi.ravel().take(flat).reshape(D, D))
                    assert np.array_equal(dense, projectors[image_set(s, I)])


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

    def test_matches_dense_sandwich_on_every_sector(self):
        rng = np.random.default_rng(21)
        layout = SubsystemLayout(["X", "A1", "A2", "A3"], [2] * 4)
        a = rng.normal(size=(16, 16))
        pi = symmetric_projector(PortSet((1, 3), 3), 2, layout).entries
        full = symmetrize_slots(a, layout, [1, 3], np.arange(16))
        assert np.abs(full - pi @ a @ pi).max() < 1e-14
        # Pi is block-diagonal, so a diagonal block of Pi A Pi needs only that block of A
        for idx in weight_sectors(layout, ["X"]):
            block = symmetrize_slots(a[np.ix_(idx, idx)], layout, [1, 3], idx)
            assert np.abs(block - full[np.ix_(idx, idx)]).max() < 1e-14

    def test_rejects_index_set_not_closed(self):
        layout = SubsystemLayout(["A1", "A2"], [2, 2])
        with pytest.raises(ValueError, match="closed"):
            symmetrize_slots(np.eye(1), layout, [0, 1], np.array([1]))


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

    def test_large_arguments_exact(self):
        # Python integers keep this exact far beyond float range
        val = stirling_first(60, 3)
        assert val > 10**80
        assert sum(stirling_first(60, k) for k in range(61)) == factorial(60)
