import numpy as np
import pytest

from portclone.states import (
    ensemble_average,
    max_entangled,
    mpbt_ensemble,
    mpbt_signal,
    pbt_layout,
    pbt_signal,
    pbt_signal_entries,
    pbtc_ensemble,
    pbtc_signal,
)
from portclone.symmetry import (
    OrderedPorts,
    PortSet,
    enumerate_unordered,
    sym_dim,
    symmetric_projector,
    symmetrize_slots,
)
from portclone.tensor_core import hermitian_eig, partial_trace, support_rank_blocks


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
    def test_unit_trace_psd(self):
        for i in (1, 2, 3):
            rho = pbt_signal(i, 3, 2)
            assert abs(rho.trace() - 1) < 1e-12
            assert hermitian_eig(rho).eigenvalues.min() > -1e-12

    def test_correlated_pair_marginal(self):
        # tracing out everything but (X, A_2) must recover Phi+
        rho = pbt_signal(2, 3, 2)
        red = partial_trace(rho, ["A1", "A3"])
        phi = max_entangled(2, "X", "A2")
        assert np.abs(red.entries - phi.entries).max() < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pbt_signal(4, 3, 2)


class TestMpbtSignal:
    def test_unit_trace(self):
        rho = mpbt_signal(OrderedPorts((3, 1), 3), 3, 2)
        assert abs(rho.trace() - 1) < 1e-12

    def test_slot_port_pairing(self):
        # J = (3, 1): X1 pairs with A3, X2 pairs with A1
        rho = mpbt_signal(OrderedPorts((3, 1), 3), 3, 2)
        red = partial_trace(rho, ["X2", "A1", "A2"])
        phi = max_entangled(2, "X1", "A3")
        assert np.abs(red.entries - phi.entries).max() < 1e-12

    def test_order_matters(self):
        a = mpbt_signal(OrderedPorts((1, 2), 2), 2, 2)
        b = mpbt_signal(OrderedPorts((2, 1), 2), 2, 2)
        assert np.abs(a.entries - b.entries).max() > 0.1


class TestPbtcSignal:
    def test_unit_trace_psd(self):
        for I in enumerate_unordered(3, 2):
            eta = pbtc_signal(I, 3, 2)
            assert abs(eta.trace() - 1) < 1e-10
            assert hermitian_eig(eta).eigenvalues.min() > -1e-12

    def test_representative_independence(self):
        # (d^M / d[M]) Pi_I rho^j Pi_I is the same state for every j in I
        I, N, d = PortSet((1, 3), 3), 3, 2
        eta = pbtc_signal(I, N, d).entries
        for j in I:
            rho = pbt_signal_entries(j, N, d)
            sym = symmetrize_slots(rho, pbt_layout(N, d), I.elements, None)
            assert np.abs(d**I.M / sym_dim(d, I.M) * sym - eta).max() < 1e-12

    def test_m1_reduces_to_plain_signal(self):
        eta = pbtc_signal(PortSet((2,), 3), 3, 2)
        rho = pbt_signal(2, 3, 2)
        assert np.abs(eta.entries - rho.entries).max() == 0.0

    def test_supported_on_symmetric_subspace(self):
        I = PortSet((1, 2), 3)
        eta = pbtc_signal(I, 3, 2)
        pi = symmetric_projector(I, 2, eta.layout)
        assert np.abs((pi @ eta @ pi).entries - eta.entries).max() < 1e-12

    def test_support_rank(self):
        # rank d[M-1] * d^(N-M): here 2 * 2 = 4
        assert support_rank_blocks([pbtc_signal(PortSet((1, 2), 3), 3, 2).entries]) == 4


class TestEnsemble:
    def test_mixed_layouts_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            ensemble_average({1: pbt_signal(1, 2, 2), 2: max_entangled(2, "X", "A1")})

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
