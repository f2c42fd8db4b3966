import tracemalloc

import numpy as np
import pytest

from portclone import tensor_core
from portclone.measurements import clone_mpbt_povm
from portclone.states import (
    counted_entries,
    ensemble_average,
    max_entangled,
    maximally_mixed,
    mpbt_ensemble,
    mpbt_layout,
    mpbt_signal,
    pbt_layout,
    pbtc_ensemble,
    pbtc_signal,
    pbtc_signal_nonzeros,
)
from portclone.symmetry import (
    enumerate_ordered,
    enumerate_unordered,
    sym_dim,
    symmetric_projector,
    symmetrize_slots,
)
from portclone.tensor_core import (
    BlockGroup,
    DimensionCapError,
    hermitian_eig,
    kron_compose,
    partial_trace,
    support_spectra,
)


def paired_state(pairs, layout, d):
    """Reference signal built by tensor products: Phi+ on every (label, label)
    pair, maximally mixed on the other labels, reordered to `layout`."""
    factors = [max_entangled(d, a, b) for a, b in pairs]
    paired = {label for pair in pairs for label in pair}
    rest = [label for label in layout.labels if label not in paired]
    if rest:
        factors.append(maximally_mixed(rest, d))
    return kron_compose(factors).permute_subsystems(layout.labels).entries


class TestMaxEntangled:
    def test_pure_unit_trace(self):
        phi = max_entangled(3, "a", "b")
        assert abs(phi.trace() - 1) < 1e-14
        assert np.abs((phi @ phi).entries - phi.entries).max() < 1e-14

    def test_marginals_maximally_mixed(self):
        phi = max_entangled(3, "a", "b")
        for drop in ("a", "b"):
            red = partial_trace(phi, [drop])
            assert np.allclose(red.entries, np.eye(3) / 3)


class TestPbtSignal:
    @pytest.mark.parametrize("d,N", [(2, 4), (3, 3)])
    def test_matches_tensor_product(self, d, N):
        layout = pbt_layout(N, d)
        for i in range(1, N + 1):
            reference = paired_state([("X", f"A{i}")], layout, d)
            assert np.abs(pbtc_signal((i,), N, d).entries - reference).max() <= 1e-14

    def test_unit_trace_psd(self):
        for i in (1, 2, 3):
            rho = pbtc_signal((i,), 3, 2)
            assert abs(rho.trace() - 1) < 1e-12
            assert hermitian_eig(rho).eigenvalues.min() > -1e-12

    def test_correlated_pair_marginal(self):
        # tracing out everything but (X, A_2) must recover Phi+
        rho = pbtc_signal((2,), 3, 2)
        red = partial_trace(rho, ["A1", "A3"])
        phi = max_entangled(2, "X", "A2")
        assert np.abs(red.entries - phi.entries).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="distinct and in 1..3"):
            pbtc_signal((4,), 3, 2)


class TestMpbtSignal:
    @pytest.mark.parametrize("d,N,M", [(2, 3, 2), (3, 3, 2)])
    def test_matches_tensor_product(self, d, N, M):
        layout = mpbt_layout(N, M, d)
        for J in enumerate_ordered(N, M):
            pairs = [(f"X{k}", f"A{j}") for k, j in enumerate(J, start=1)]
            reference = paired_state(pairs, layout, d)
            assert np.abs(mpbt_signal(J, N, d).entries - reference).max() <= 1e-14

    def test_unit_trace(self):
        rho = mpbt_signal((3, 1), 3, 2)
        assert abs(rho.trace() - 1) < 1e-12

    def test_slot_port_pairing(self):
        # J = (3, 1): X1 pairs with A3, X2 pairs with A1
        rho = mpbt_signal((3, 1), 3, 2)
        red = partial_trace(rho, ["X2", "A1", "A2"])
        phi = max_entangled(2, "X1", "A3")
        assert np.abs(red.entries - phi.entries).max() < 1e-12

    def test_order_matters(self):
        a = mpbt_signal((1, 2), 2, 2)
        b = mpbt_signal((2, 1), 2, 2)
        assert np.abs(a.entries - b.entries).max() > 0.1


class TestPbtcSignal:
    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (2, 5, 3), (3, 3, 2)])
    def test_matches_projector_sandwich(self, d, N, M):
        # (d^M / d[M]) Pi_I rho^{i1} Pi_I from the dense projector and a
        # tensor-product rho, independently of the scatter
        layout = pbt_layout(N, d)
        for I in enumerate_unordered(N, M):
            pi = symmetric_projector(I, layout).entries
            rho = paired_state([("X", f"A{I[0]}")], layout, d)
            reference = d**M / sym_dim(d, M) * pi @ rho @ pi
            assert np.abs(pbtc_signal(I, N, d).entries - reference).max() <= 1e-14

    def test_unit_trace_psd(self):
        for I in enumerate_unordered(3, 2):
            eta = pbtc_signal(I, 3, 2)
            assert abs(eta.trace() - 1) < 1e-10
            assert hermitian_eig(eta).eigenvalues.min() > -1e-12

    def test_representative_independence(self):
        # (d^M / d[M]) Pi_I rho^j Pi_I is the same state for every j in I
        I, N, d = (1, 3), 3, 2
        eta = pbtc_signal(I, N, d).entries
        for j in I:
            rho = pbtc_signal((j,), N, d).entries
            sym = symmetrize_slots(rho, pbt_layout(N, d), I)
            assert np.abs(d**len(I) / sym_dim(d, len(I)) * sym - eta).max() < 1e-12

    def test_rejects_index_set_not_closed(self):
        group = BlockGroup([np.array([1])], (2,) * 3)
        with pytest.raises(ValueError, match="closed"):
            counted_entries(pbtc_signal_nonzeros([(1, 2)], group), group.widths)

    def test_m1_reduces_to_plain_signal(self):
        # with one port nothing is symmetrized: the pbtc scatter gives the
        # one-pair signal of the mpbt scatter ([X1, A1..AN] is [X, A1..AN])
        eta = pbtc_signal((2,), 3, 2)
        rho = mpbt_signal((2,), 3, 2)
        assert np.abs(eta.entries - rho.entries).max() == 0.0

    def test_supported_on_symmetric_subspace(self):
        I = (1, 2)
        eta = pbtc_signal(I, 3, 2)
        pi = symmetric_projector(I, eta.layout)
        assert np.abs((pi @ eta @ pi).entries - eta.entries).max() < 1e-12

    def test_support_rank(self):
        # rank d[M-1] * d^(N-M): here 2 * 2 = 4
        [(_, _, keep)] = support_spectra([pbtc_signal((1, 2), 3, 2).entries])
        assert np.count_nonzero(keep) == 4


class TestEnsemble:
    def test_mixed_layouts_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            ensemble_average({1: pbtc_signal((1,), 2, 2), 2: max_entangled(2, "X", "A1")})

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ensemble_average({})

    def test_validate_states(self):
        # every member of the ensemble is PSD with unit trace
        for state in pbtc_ensemble(3, 2, 2).values():
            assert abs(state.trace() - 1) < 1e-10
            assert hermitian_eig(state).eigenvalues.min() > -1e-10

    def test_average_trace_one(self):
        for e in (pbtc_ensemble(3, 1, 2), pbtc_ensemble(3, 2, 2), mpbt_ensemble(3, 2, 2)):
            assert abs(ensemble_average(e).trace() - 1) < 1e-10

    def test_keys_align_with_outcomes(self):
        e = pbtc_ensemble(4, 2, 2)
        assert tuple(e) == tuple(enumerate_unordered(4, 2))
        assert len(e) == 6

    # every member fits the cap, but the family holds 55 x 4096^2,
    # 72 x 2048^2 or 36 x 2048^2 entries, more than one 8192-wide matrix; the
    # clone-and-teleport POVM holds one member per port set
    @pytest.mark.parametrize("build,N,count,dim", [
        (pbtc_ensemble, 11, 55, 4096), (mpbt_ensemble, 9, 72, 2048),
        (clone_mpbt_povm, 9, 36, 2048),
    ])
    def test_family_refused_before_any_member(self, build, N, count, dim):
        assert dim <= tensor_core.DIM_CAP < count**0.5 * dim
        tracemalloc.start()
        try:
            refusal = f"family of {count} operators of dimension {dim} exceeds cap"
            with pytest.raises(DimensionCapError, match=refusal):
                build(N, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_family_at_the_cap_is_built(self, monkeypatch):
        # 6 members of 32 x 32: refused only below 6 * 32^2 entries
        monkeypatch.setattr(tensor_core, "DIM_CAP", 78)
        with pytest.raises(DimensionCapError, match="family of 6 operators"):
            pbtc_ensemble(4, 2, 2)
        monkeypatch.setattr(tensor_core, "DIM_CAP", 79)
        assert len(pbtc_ensemble(4, 2, 2)) == 6
