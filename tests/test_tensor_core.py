from math import comb

import numpy as np
import pytest

from portclone.measurements import clone_mpbt_povm, std_pbtc_povm
from portclone.states import (
    ensemble_average,
    input_label,
    max_entangled,
    maximally_mixed,
    mpbt_ensemble,
    mpbt_layout,
    pbt_layout,
    pbt_signal,
    pbtc_ensemble,
)
from portclone.symmetry import PortSet, enumerate_unordered, symmetric_projector
from portclone.tensor_core import (
    PINV_CUTOFF,
    DimensionCapError,
    LabeledOperator,
    SubsystemLayout,
    hermitian_eig,
    identity,
    kron_compose,
    partial_trace,
    psd_inv_sqrt,
    psd_inv_sqrt_blocks,
    support_projector,
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

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("PORTCLONE_DIM_CAP", "4")
        with pytest.raises(DimensionCapError):
            SubsystemLayout(["a", "b", "c"], [2, 2, 2])
        SubsystemLayout(["a", "b"], [2, 2])  # within the lowered cap


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
        from portclone.states import pbt_signal

        rho = pbt_signal(1, 2, 2)
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


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(op(["a", "b"], np.diag([0.0, 3.0, 1.0, 2.0])))
        assert np.allclose(spec.eigenvalues, [3, 2, 1, 0])

    def test_pure_state(self):
        spec = hermitian_eig(max_entangled(2, "A", "B"))
        assert np.allclose(spec.eigenvalues, [1, 0, 0, 0], atol=1e-12)

    def test_symmetric_projector_rank(self):
        pi = symmetric_projector(PortSet((1, 2), 2), 2, SubsystemLayout(["A1", "A2"], [2, 2]))
        spec = hermitian_eig(pi)
        assert np.allclose(sorted(spec.eigenvalues), [0, 1, 1, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(op(["a"], np.array([[0, 1], [0, 0]], dtype=complex)))

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


def off_sector_mask(layout, conj_labels):
    sector = np.empty(layout.dim, dtype=int)
    for k, idx in enumerate(weight_sectors(layout, conj_labels)):
        sector[idx] = k
    return sector[:, None] != sector[None, :]


class TestWeightSectors:
    @pytest.mark.parametrize("N", range(1, 8))
    def test_qubit_block_sizes_are_binomial(self, N):
        layout = pbt_layout(N, 2)
        sectors = weight_sectors(layout, ["X"])
        sizes = sorted(len(idx) for idx in sectors)
        assert sum(sizes) == layout.dim
        assert sizes == sorted(comb(N + 1, k) for k in range(N + 2))
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(layout.dim))
        assert all(np.all(np.diff(idx) > 0) for idx in sectors)

    @pytest.mark.parametrize("N,M,d", [(3, 2, 2), (2, 2, 3), (4, 3, 2)])
    def test_multi_slot_layout_is_partitioned(self, N, M, d):
        layout = mpbt_layout(N, M, d)
        sectors = weight_sectors(layout, [input_label(k) for k in range(1, M + 1)])
        assert sum(len(idx) for idx in sectors) == layout.dim
        assert len(np.unique(np.concatenate(sectors))) == layout.dim

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            weight_sectors(pbt_layout(2, 2), ["Y"])

    @pytest.mark.parametrize("N,M,d", [(3, 2, 2), (4, 2, 2), (3, 2, 3)])
    def test_pipeline_operators_vanish_off_the_sectors(self, N, M, d):
        layout = pbt_layout(N, d)
        off = off_sector_mask(layout, [input_label()])
        exact = [pbt_signal(i, N, d) for i in range(1, N + 1)]
        exact += [symmetric_projector(I, d, layout) for I in enumerate_unordered(N, M)]
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
        off = off_sector_mask(layout, [input_label(1), input_label(2)])
        ensemble = mpbt_ensemble(N, M, d)
        for state in ensemble.values():
            assert np.all(state.entries[off] == 0)
        assert np.all(ensemble_average(ensemble).entries[off] == 0)


class TestBlockedInvSqrt:
    def test_single_block_is_dense_routine(self):
        eta_bar = ensemble_average(pbtc_ensemble(3, 2, 2))
        roots, projectors = psd_inv_sqrt_blocks([eta_bar.entries])
        assert np.abs(roots[0] - psd_inv_sqrt(eta_bar).entries).max() < 1e-14
        assert np.abs(projectors[0] - support_projector(eta_bar).entries).max() < 1e-14

    def test_blocks_match_dense_on_average_state(self):
        N, M, d = 4, 2, 2
        eta_bar = ensemble_average(pbtc_ensemble(N, M, d)).entries
        sectors = weight_sectors(pbt_layout(N, d), [input_label()])
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
