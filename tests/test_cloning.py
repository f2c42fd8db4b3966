import numpy as np
import pytest

from portclone.cloning import (
    clone_adjoint_on_input,
    clone_map,
    cloned_signal_entries,
    optimal_clone_fidelity,
)
from portclone.states import input_label, maximally_mixed, mpbt_layout, pbt_signal
from portclone.tensor_core import (
    LabeledOperator,
    SubsystemLayout,
    kron_compose,
    partial_trace,
)


def pure_state(vec, label="X"):
    vec = np.asarray(vec, dtype=complex)
    vec /= np.linalg.norm(vec)
    return LabeledOperator(
        SubsystemLayout([label], [len(vec)]), np.outer(vec, vec.conj())
    )


class TestCloneMap:
    @pytest.mark.parametrize("d,M", [(2, 2), (2, 3), (3, 2)])
    def test_trace_preserving(self, d, M):
        rng = np.random.default_rng(17)
        for _ in range(5):
            vec = rng.normal(size=d) + 1j * rng.normal(size=d)
            out = clone_map(pure_state(vec), M, d)
            assert abs(out.trace() - 1) < 1e-10

    def test_m_equals_one_is_identity(self):
        psi = pure_state([1, 2j], "X")
        out = clone_map(psi, 1, 2)
        assert np.abs(out.entries - psi.entries).max() < 1e-12

    def test_marginal_is_shrunk_input(self):
        # each clone is gamma * rho + (1 - gamma) * I/d
        d, M = 2, 3
        psi = pure_state([1, 1j], "X")
        out_labels = [f"c{k}" for k in range(M)]
        out = clone_map(psi, M, d, out_labels)
        gamma = (1 / M) * (M + d) / (1 + d)
        expected = gamma * psi.entries + (1 - gamma) * np.eye(d) / d
        for k in range(M):
            keep = out_labels[k]
            marg = partial_trace(out, [l for l in out_labels if l != keep])
            assert np.abs(marg.entries - expected).max() < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_single_clone_fidelity_formula(self, d, M):
        rng = np.random.default_rng(23)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = pure_state(vec, "X")
        out_labels = [f"c{k}" for k in range(M)]
        out = clone_map(psi, M, d, out_labels)
        marg = partial_trace(out, out_labels[1:])
        fid = float(np.real(np.trace(marg.entries @ psi.entries)))
        assert abs(fid - optimal_clone_fidelity(M, d)) < 1e-10

    def test_too_many_inputs_rejected(self):
        two = kron_compose([pure_state([1, 0], "a"), pure_state([1, 0], "b")])
        with pytest.raises(ValueError, match="fewer"):
            clone_map(two, 1, 2)


class TestCloneAdjoint:
    def test_trace_pairing(self):
        # Tr[C(rho) Y] = Tr[rho C^dag(Y)] for random rho and Hermitian Y
        d, M = 2, 2
        rng = np.random.default_rng(31)
        out_labels = [f"c{k}" for k in range(M)]
        for _ in range(10):
            vec = rng.normal(size=d) + 1j * rng.normal(size=d)
            rho = pure_state(vec, "X")
            y = rng.normal(size=(d**M, d**M)) + 1j * rng.normal(size=(d**M, d**M))
            y = LabeledOperator(
                SubsystemLayout(out_labels, [d] * M), (y + y.conj().T) / 2
            )
            lhs = np.trace(clone_map(rho, M, d, out_labels).entries @ y.entries)
            pulled = clone_adjoint_on_input(y, out_labels, d, "X")
            rhs = np.trace(rho.entries @ pulled.entries)
            assert abs(lhs - rhs) < 1e-10

    def test_unital_on_identity_scaled(self):
        # C^dag(1) = 1 because C is trace preserving
        d, M = 2, 3
        out_labels = [f"c{k}" for k in range(M)]
        ident = (d**M) * maximally_mixed(out_labels, d)
        pulled = clone_adjoint_on_input(ident, out_labels, d, "X")
        assert np.abs(pulled.entries - np.eye(d)).max() < 1e-10

    def test_spectator_subsystems_untouched(self):
        d, M = 2, 2
        out_labels = ["c1", "c2"]
        rng = np.random.default_rng(37)
        a = rng.normal(size=(4, 4))
        y = LabeledOperator(SubsystemLayout(out_labels, [d, d]), (a + a.T) / 2)
        spec = pure_state([1, 1], "S")
        joint = kron_compose([y, spec])
        pulled = clone_adjoint_on_input(joint, out_labels, d, "X")
        factored = kron_compose(
            [clone_adjoint_on_input(y, out_labels, d, "X"), spec]
        )
        assert np.abs(pulled.entries - factored.entries).max() < 1e-10


class TestFormulas:
    def test_fidelity_limits(self):
        assert optimal_clone_fidelity(1, 2) == 1.0
        # M -> infinity limit is 2/(d+1), the measure-and-prepare value
        assert abs(optimal_clone_fidelity(10**6, 2) - 2 / 3) < 1e-5


class TestClonedSignal:
    @pytest.mark.parametrize("N,M,d", [(2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 2, 3)])
    def test_adjoint_identity(self, N, M, d):
        # Tr[E C(rho^i)] = Tr[C^dag(E) rho^i], the dense pullback on the right
        rng = np.random.default_rng(29)
        layout = mpbt_layout(N, M, d)
        a = rng.normal(size=(layout.dim, layout.dim))
        e = LabeledOperator(layout, a + a.T)
        x_labels = [input_label(k) for k in range(1, M + 1)]
        pulled = clone_adjoint_on_input(e, x_labels, d, input_label())
        pulled = pulled.permute_subsystems(pbt_signal(1, N, d).layout.labels)
        for i in range(1, N + 1):
            tau = cloned_signal_entries(i, N, M, d)
            lhs = np.sum(e.entries * tau.T)
            rhs = np.sum(pulled.entries * pbt_signal(i, N, d).entries.T)
            assert abs(lhs - rhs) < 1e-12
            assert abs(np.trace(tau) - 1) < 1e-12
