import tracemalloc
from math import comb

import numpy as np
import pytest

from portclone import tensor_core
from portclone.measurements import Povm, clone_mpbt_povm, std_pbtc_povm
from portclone.states import (
    ensemble_average,
    max_entangled,
    maximally_mixed,
    mpbt_ensemble,
    mpbt_layout,
    pbt_layout,
    pbtc_ensemble,
    pbtc_signal,
)
from portclone.symmetry import enumerate_unordered, symmetric_projector
from portclone.tensor_core import (
    PINV_CUTOFF,
    BlockGroup,
    DimensionCapError,
    LabeledOperator,
    SubsystemLayout,
    hermitian_eig,
    identity,
    kron_compose,
    partial_trace,
    psd_inv_sqrt,
    psd_inv_sqrt_blocks,
    sector_sizes,
    support_projector,
    support_spectra,
    weight_sectors,
)


def op(labels, entries, d=2):
    return LabeledOperator(SubsystemLayout(labels, [d] * len(labels)), entries)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemLayout(["A", "A"], [2, 2])

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            SubsystemLayout([f"q{i}" for i in range(20)], [2] * 20)

    def test_label_and_dimension_counts_must_agree(self):
        with pytest.raises(ValueError, match="2 labels but 3 dimensions"):
            SubsystemLayout(["a", "b"], [2, 2, 2])

    def test_unknown_label_named(self):
        with pytest.raises(KeyError, match="unknown subsystem label 'c'"):
            SubsystemLayout(["a", "b"], [2, 2]).index("c")

    def test_entries_of_another_shape_refused(self):
        with pytest.raises(ValueError, match=r"entries shape \(2, 2\) does not match .* 4"):
            LabeledOperator(SubsystemLayout(["a", "b"], [2, 2]), np.eye(2))

    def test_lowered_cap_refuses_layout(self, monkeypatch):
        monkeypatch.setattr(tensor_core, "DIM_CAP", 4)
        with pytest.raises(DimensionCapError):
            SubsystemLayout(["a", "b", "c"], [2, 2, 2])
        SubsystemLayout(["a", "b"], [2, 2])  # within the lowered cap


class TestLayoutCompatibility:
    """Operators combine only on equal layouts: equal labels in the same
    order with equal dimensions."""

    def swapped_dims(self):
        rng = np.random.default_rng(5)
        a = LabeledOperator(SubsystemLayout(["x", "y"], [2, 3]), random_hermitian(6, rng))
        b = LabeledOperator(SubsystemLayout(["x", "y"], [3, 2]), random_hermitian(6, rng))
        return a, b

    def test_product_and_sum_refused(self):
        a, b = self.swapped_dims()
        with pytest.raises(ValueError, match="layout mismatch"):
            a @ b
        with pytest.raises(ValueError, match="layout mismatch"):
            a + b

    def test_ensemble_average_refused(self):
        a, b = self.swapped_dims()
        with pytest.raises(ValueError, match="share one layout"):
            ensemble_average({0: a, 1: b})


class TestKronCompose:
    def test_identity_case(self):
        out = kron_compose([op(["a"], np.eye(2)), op(["b"], np.eye(2))])
        assert np.allclose(out.entries, np.eye(4))
        assert out.layout.labels == ("a", "b")

    def test_basis_projector(self):
        p0 = op(["a"], np.diag([1.0, 0.0]))
        p1 = op(["b"], np.diag([0.0, 1.0]))
        out = kron_compose([p0, p1])
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out.entries, expected)

    def test_entangled_times_mixed_trace(self):
        phi = max_entangled(2, "X", "A")
        out = kron_compose([phi, maximally_mixed(["B"], 2)])
        assert abs(out.trace() - 1) < 1e-10

    def test_duplicate_label_named(self):
        with pytest.raises(ValueError, match="'a'"):
            kron_compose([op(["a"], np.eye(2)), op(["a"], np.eye(2))])

    def test_no_operator_refused(self):
        with pytest.raises(ValueError, match="at least one operator"):
            kron_compose([])

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(7)
        a = op(["a"], random_hermitian(2, rng))
        b = op(["b", "c"], random_hermitian(4, rng))
        out = kron_compose([a, b])
        assert abs(out.trace() - a.trace() * b.trace()) < 1e-10


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        phi = max_entangled(2, "A", "B")
        red = partial_trace(phi, ["B"])
        assert red.layout.labels == ("A",)
        assert np.allclose(red.entries, np.eye(2) / 2)

    def test_trace_all(self):
        rng = np.random.default_rng(3)
        a = op(["a", "b"], random_hermitian(4, rng))
        out = partial_trace(a, ["a", "b"])
        assert out.entries.shape == (1, 1)
        assert abs(out.entries[0, 0] - a.trace()) < 1e-12

    def test_pbt_signal_marginal(self):
        rho = pbtc_signal((1,), 2, 2)
        red = partial_trace(rho, ["X"])
        assert np.allclose(red.entries, np.eye(4) / 4)

    def test_unknown_label_rejected(self):
        phi = max_entangled(2, "A", "B")
        with pytest.raises(KeyError):
            partial_trace(phi, ["C"])

    def test_linear_and_trace_preserving(self):
        rng = np.random.default_rng(11)
        layout = SubsystemLayout(["a", "b", "c"], [2, 2, 2])
        for _ in range(100):
            h1 = LabeledOperator(layout, random_hermitian(8, rng))
            h2 = LabeledOperator(layout, random_hermitian(8, rng))
            c = rng.normal()
            lhs = partial_trace(
                LabeledOperator(layout, h1.entries + c * h2.entries), ["b"]
            )
            rhs = partial_trace(h1, ["b"]).entries + c * partial_trace(h2, ["b"]).entries
            assert np.abs(lhs.entries - rhs).max() < 1e-10
            assert abs(lhs.trace() - (h1.trace() + c * h2.trace())) < 1e-10


class TestPermuteSubsystems:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        a = op(["x", "y", "z"], random_hermitian(8, rng))
        back = a.permute_subsystems(["z", "x", "y"]).permute_subsystems(["x", "y", "z"])
        assert np.abs(back.entries - a.entries).max() < 1e-14

    def test_kron_order_swap(self):
        rng = np.random.default_rng(6)
        a = op(["a"], random_hermitian(2, rng))
        b = op(["b"], random_hermitian(2, rng))
        ab = kron_compose([a, b])
        ba = kron_compose([b, a]).permute_subsystems(["a", "b"])
        assert np.abs(ab.entries - ba.entries).max() < 1e-14

    @pytest.mark.parametrize("labels", [["a", "c"], ["a"], ["a", "b", "b"]])
    def test_labels_not_of_the_layout_refused(self, labels):
        with pytest.raises(ValueError, match="is not over labels"):
            op(["a", "b"], np.eye(4)).permute_subsystems(labels)


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(op(["a", "b"], np.diag([0.0, 3.0, 1.0, 2.0])))
        assert np.allclose(spec.eigenvalues, [3, 2, 1, 0])

    def test_pure_state(self):
        spec = hermitian_eig(max_entangled(2, "A", "B"))
        assert np.allclose(spec.eigenvalues, [1, 0, 0, 0], atol=1e-12)

    def test_symmetric_projector_rank(self):
        pi = symmetric_projector((1, 2), SubsystemLayout(["A1", "A2"], [2, 2]))
        spec = hermitian_eig(pi)
        assert np.allclose(sorted(spec.eigenvalues), [0, 1, 1, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(op(["a"], np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_support_spectra_refuses_no_positive_part(self):
        # the zero operator, and a negative block beside a zero block
        for blocks in ([np.zeros((2, 2))], [-np.eye(2), np.zeros((1, 1))]):
            with pytest.raises(ValueError, match="no positive part"):
                support_spectra(blocks)

    # 600 rows are two slabs of the checks; the fault sits in the second
    def test_asymmetry_in_a_later_slab_rejected(self):
        a = np.eye(600)
        a[599, 0] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(op(["q"], a, d=600))

    def test_bad_decomposition_in_a_later_slab_rejected(self, monkeypatch):
        eigh = np.linalg.eigh

        def broken(a):
            vals, vecs = eigh(a)
            vecs[-1] *= 1 + 1e-6
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(ArithmeticError, match="reconstruction"):
            hermitian_eig(op(["q"], np.diag(np.arange(600.0)), d=600))

    def test_checks_hold_no_block_sized_temporary(self):
        # eigh's eigenvectors take one block; each check adds a slab of 2**18
        # entries at a time, where a whole-block check held three more blocks
        rng = np.random.default_rng(3)
        g = rng.normal(size=(1024, 512))
        a = g @ g.T
        tracemalloc.start()
        try:
            tensor_core._checked_eigh(a, np.abs(a).max())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes + 4 * 2**18 * 8

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = op(["a", "b"], random_hermitian(4, rng))
            spec = hermitian_eig(h)
            assert abs(spec.eigenvalues.sum() - h.trace().real) < 1e-10


class TestPsdInvSqrt:
    def test_identity(self):
        layout = SubsystemLayout(["a"], [2])
        out = psd_inv_sqrt(identity(layout))
        assert np.allclose(out.entries, np.eye(2))

    def test_pseudo_inverse_on_support(self):
        out = psd_inv_sqrt(op(["a"], np.diag([4.0, 0.0])))
        assert np.allclose(out.entries, np.diag([0.5, 0.0]))

    def test_reconstructs_support_projector(self):
        from portclone.states import pbtc_ensemble, ensemble_average

        eta_bar = ensemble_average(pbtc_ensemble(2, 2, 2))
        b = psd_inv_sqrt(eta_bar)
        recon = b @ eta_bar @ b
        proj = support_projector(eta_bar)
        assert np.abs(recon.entries - proj.entries).max() < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="-1"):
            psd_inv_sqrt(op(["a"], np.diag([1.0, -1.0])))

    def test_commutes_with_input(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            h = random_hermitian(4, rng)
            h = h @ h.conj().T  # PSD
            hop = op(["a", "b"], h)
            b = psd_inv_sqrt(hop)
            comm = b.entries @ h - h @ b.entries
            assert np.abs(comm).max() < 1e-9 * np.abs(h).max()


def off_sector_mask(layout, n_conj):
    sector = np.empty(layout.dim, dtype=int)
    for k, idx in enumerate(weight_sectors(layout.dims, n_conj)[1]):
        sector[idx] = k
    return sector[:, None] != sector[None, :]


def unique_weight_sectors(dims, n_conj):
    """`weight_sectors` by np.unique over the weight rows: the reference."""
    basis = np.arange(np.prod(dims))
    weights = np.zeros((len(basis), max(dims)), dtype=np.min_scalar_type(-len(dims)))
    for s, digit in enumerate(np.unravel_index(basis, dims)):
        weights[basis, digit] += -1 if s < n_conj else 1
    vectors, sector = np.unique(weights, axis=0, return_inverse=True)
    order = np.argsort(sector, kind="stable")
    return vectors.astype(int), np.split(order, np.cumsum(np.bincount(sector))[:-1])


class TestWeightSectors:
    @pytest.mark.parametrize("d,n_slots", [(2, 9), (3, 6), (5, 5)])
    @pytest.mark.parametrize("n_conj", [1, 4])
    def test_lexsort_groups_equal_unique_reference(self, d, n_slots, n_conj):
        vectors, sectors = weight_sectors((d,) * n_slots, n_conj)
        ref_vectors, ref_sectors = unique_weight_sectors((d,) * n_slots, n_conj)
        assert vectors.dtype == ref_vectors.dtype and np.array_equal(vectors, ref_vectors)
        assert len(sectors) == len(ref_sectors)
        for idx, ref in zip(sectors, ref_sectors):
            assert idx.dtype == ref.dtype and np.array_equal(idx, ref)

    @pytest.mark.parametrize("N", range(1, 8))
    def test_qubit_block_sizes_are_binomial(self, N):
        layout = pbt_layout(N, 2)
        _, sectors = weight_sectors(layout.dims, 1)
        sizes = sorted(len(idx) for idx in sectors)
        assert sum(sizes) == layout.dim
        assert sizes == sorted(comb(N + 1, k) for k in range(N + 2))
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(layout.dim))
        assert all(np.all(np.diff(idx) > 0) for idx in sectors)

    @pytest.mark.parametrize("N,M,d", [(3, 2, 2), (2, 2, 3), (4, 3, 2)])
    def test_multi_slot_layout_is_partitioned(self, N, M, d):
        layout = mpbt_layout(N, M, d)
        _, sectors = weight_sectors(layout.dims, M)
        assert sum(len(idx) for idx in sectors) == layout.dim
        assert len(np.unique(np.concatenate(sectors))) == layout.dim

    @pytest.mark.parametrize("dims,n_conj", [
        ((2,) * 4, 1), ((2,) * 7, 1), ((2,) * 6, 2), ((2,) * 7, 3), ((3,) * 4, 1),
        ((3,) * 6, 2), ((4,) * 4, 1), ((2,) * 5, 0), ((2, 3, 3), 1), ((3, 2, 2, 3), 2),
    ])
    def test_counted_sizes_match_the_sectors(self, dims, n_conj):
        _, sectors = weight_sectors(dims, n_conj)
        assert sector_sizes(dims, n_conj) == [len(idx) for idx in sectors]

    @pytest.mark.parametrize("N,M,d", [(3, 2, 2), (4, 2, 2), (3, 2, 3)])
    def test_pipeline_operators_vanish_off_the_sectors(self, N, M, d):
        layout = pbt_layout(N, d)
        off = off_sector_mask(layout, 1)
        exact = [pbtc_signal((i,), N, d) for i in range(1, N + 1)]
        exact += [symmetric_projector(I, layout) for I in enumerate_unordered(N, M)]
        exact += list(pbtc_ensemble(N, M, d).values())
        exact.append(ensemble_average(pbtc_ensemble(N, M, d)))
        for op in exact:
            assert np.all(op.entries[off] == 0)
        # dense PGM and completion elements come from one eigh of the whole
        # average state, which mixes degenerate eigenvectors of different
        # sectors, so they carry rounding (not structure) off the sectors
        for povm in (std_pbtc_povm(N, M, d), clone_mpbt_povm(N, M, d)):
            for el in list(povm.outcomes.values()) + [povm.completion_element]:
                assert np.abs(el.entries[off]).max() <= 1e-14 * np.abs(el.entries).max()

    def test_multi_slot_signals_vanish_off_the_sectors(self):
        N, M, d = 3, 2, 2
        layout = mpbt_layout(N, M, d)
        off = off_sector_mask(layout, M)
        ensemble = mpbt_ensemble(N, M, d)
        for state in ensemble.values():
            assert np.all(state.entries[off] == 0)
        assert np.all(ensemble_average(ensemble).entries[off] == 0)


class TestBlockGroup:
    def test_tables_follow_the_dims(self):
        # three blocks over slots of mixed dimensions: the group's place
        # values and digits are those of numpy's index maps, and its position
        # tables are those of its docstring
        dims = (2, 3, 2)
        blocks = [np.array([0, 5, 7]), np.array([2, 3]), np.array([4, 9, 10, 11])]
        group = BlockGroup(blocks, dims)
        idx = np.concatenate(blocks)
        assert group.dims == dims and group.widths == [3, 2, 4]
        assert np.array_equal(group.idx, idx)
        assert np.array_equal(group.strides, np.ravel_multi_index(np.eye(3, dtype=int), dims))
        assert np.array_equal(group.digits, np.unravel_index(idx, dims))
        assert np.array_equal(group.starts, [0, 3, 5, 9])
        assert np.array_equal(group.entry_block, [0, 0, 0, 1, 1, 2, 2, 2, 2])
        for b, block in enumerate(blocks):
            assert np.all(group.basis_block[block] == b)
            assert np.array_equal(group.basis_pos[block], np.arange(len(block)))
        assert np.all(group.basis_block[np.setdiff1d(np.arange(12), idx)] == -1)
        assert np.array_equal(group.positions(np.array([2, 0]), np.array([9, 5])), [1, 1])
        for source, target in ((0, 1), (1, 0)):  # outside the group, in another block
            with pytest.raises(ValueError, match="closed"):
                group.positions(source, np.array([target]))


class TestBlockedInvSqrt:
    def test_single_block_is_dense_routine(self):
        eta_bar = ensemble_average(pbtc_ensemble(3, 2, 2))
        roots, projectors = psd_inv_sqrt_blocks([eta_bar.entries])
        assert np.abs(roots[0] - psd_inv_sqrt(eta_bar).entries).max() < 1e-14
        assert np.abs(projectors[0] - support_projector(eta_bar).entries).max() < 1e-14

    def test_blocks_match_dense_on_average_state(self):
        N, M, d = 4, 2, 2
        eta_bar = ensemble_average(pbtc_ensemble(N, M, d)).entries
        _, sectors = weight_sectors((d,) * (N + 1), 1)
        roots, projectors = psd_inv_sqrt_blocks([eta_bar[np.ix_(i, i)] for i in sectors])
        dense_root, dense_proj = psd_inv_sqrt_blocks([eta_bar])
        for idx, root, proj in zip(sectors, roots, projectors):
            assert np.abs(root - dense_root[0][np.ix_(idx, idx)]).max() < 1e-12
            assert np.abs(proj - dense_proj[0][np.ix_(idx, idx)]).max() < 1e-12

    def test_block_below_global_cutoff_is_dropped(self):
        big = np.diag([1.0, 0.5])
        small = 0.1 * PINV_CUTOFF * np.array([[2.0, 1.0], [1.0, 2.0]])
        roots, projectors = psd_inv_sqrt_blocks([big, small])
        assert np.allclose(roots[0], np.diag([1.0, 2**0.5]))
        assert np.all(roots[1] == 0)
        assert np.abs(projectors[1]).max() < 1e-15
        # on its own the small block is well above its own cutoff and is kept
        alone, _ = psd_inv_sqrt_blocks([small])
        assert np.abs(alone).max() > 0

    def test_psd_check_uses_global_maximum(self):
        # -1e-3 is far below -1e-10 times the largest eigenvalue of all blocks
        with pytest.raises(ValueError, match="not PSD"):
            psd_inv_sqrt_blocks([np.diag([1.0]), np.diag([-1e-3])])

    def test_every_block_is_checked_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_inv_sqrt_blocks([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])


def derived_operators(a):
    """`a` on labels (x, y) through every operation that returns an operator."""
    b = a.relabel({"x": "u", "y": "v"})
    return {
        "matmul": a @ a,
        "add": a + a,
        "scalar": 0.5 * a,
        "relabel": b,
        "permute": a.permute_subsystems(["y", "x"]),
        "kron": kron_compose([a, b]),
        "partial_trace": partial_trace(a, ["y"]),
    }


class TestDtypeRule:
    """Real entries are stored as float64 and complex ones as complex128, so
    real operators stay real through every operation."""

    @pytest.mark.parametrize("entries", [np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4, dtype=int)],
                             ids=["float", "int"])
    def test_real_input_stays_float64(self, entries):
        a = op(["x", "y"], entries)
        assert a.entries.dtype == np.float64
        for name, out in derived_operators(a).items():
            assert out.entries.dtype == np.float64, name
        spectrum = hermitian_eig(a)
        assert spectrum.eigenvalues.dtype == spectrum.eigenvectors.dtype == np.float64

    def test_complex_input_stays_complex(self):
        a = op(["x", "y"], random_hermitian(4, np.random.default_rng(1)))
        assert a.entries.dtype == np.complex128
        for name, out in derived_operators(a).items():
            assert out.entries.dtype == np.complex128, name
        assert hermitian_eig(a).eigenvectors.dtype == np.complex128

    @pytest.mark.parametrize("entries,dtype", [([[1, 0], [0, 1]], np.float64),
                                               ([[1, 1j], [-1j, 1]], np.complex128)],
                             ids=["real", "complex"])
    def test_nested_list_input(self, entries, dtype):
        # a list is read as entries, not as a dtype spec for np.result_type
        a = LabeledOperator(SubsystemLayout(["A"], [2]), entries)
        assert a.entries.dtype == dtype
        assert np.array_equal(a.entries, np.array(entries))

    def test_entries_are_a_read_only_copy(self):
        entries = np.eye(4)
        a = op(["x", "y"], entries)
        entries[0, 0] = 7.0
        assert a.entries[0, 0] == 1.0
        assert not a.entries.flags.writeable

    def test_one_complex_operator_makes_the_result_complex(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(4, rng)
        real = [op(["x", "y"], np.diag(rng.random(4))) for _ in range(2)]
        ops = real + [op(["x", "y"], h)]
        as_complex = [o.entries.astype(complex) for o in ops]

        out = kron_compose([real[0], op(["u", "v"], h)])
        assert out.entries.dtype == np.complex128
        assert np.array_equal(out.entries, np.kron(as_complex[0], h))

        average = ensemble_average(dict(enumerate(ops)))
        assert average.entries.dtype == np.complex128
        assert np.array_equal(average.entries, sum(e * (1 / 3) for e in as_complex))

        total = Povm(outcomes=dict(enumerate(ops)), layout=ops[0].layout).element_sum()
        assert total.entries.dtype == np.complex128
        assert np.array_equal(total.entries, sum(as_complex))

    def test_protocol_operators_are_float64(self):
        for povm in (std_pbtc_povm(4, 2, 2), clone_mpbt_povm(3, 2, 2)):
            elements = list(povm.outcomes.values()) + [povm.completion_element]
            assert all(el.entries.dtype == np.float64 for el in elements)
        layout = pbt_layout(3, 2)
        assert symmetric_projector((1, 2), layout).entries.dtype == np.float64
