import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from portclone.channels import (
    FidelityReport,
    avg_fidelity,
    entanglement_fidelity_choi,
    entanglement_fidelity_formula,
    haar_average_check,
    protocol_fidelity,
    single_clone_output,
    slot_signals,
)
from portclone.cloning import optimal_clone_fidelity
from portclone.measurements import Povm, clone_mpbt_povm, complete, pgm, std_pbtc_povm
from portclone.states import input_label, mpbt_ensemble, mpbt_signal, pbt_layout
from portclone.symmetry import enumerate_unordered
from portclone.tensor_core import DimensionCapError, LabeledOperator, SubsystemLayout


class TestAvgFidelity:
    def test_endpoints(self):
        assert avg_fidelity(1.0, 2) == 1.0
        assert avg_fidelity(0.25, 2) == 0.5  # random guessing for a qubit

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            avg_fidelity(1.5, 2)


class TestFidelityReport:
    def test_conversion_enforced(self):
        with pytest.raises(ValueError, match="conversion"):
            FidelityReport(
                protocol="std-pbt", d=2, N=2, M=1, F=0.5, f=0.9,
                per_clone_f=(0.9,), delta_contribution=0.0, runtime_ms=1.0,
            )

    def test_json_fields(self):
        r = protocol_fidelity("std-pbt", 2, 2, 1)
        doc = r.to_json_dict()
        for key in ("protocol", "d", "N", "M", "F", "f",
                    "per_clone_f", "delta_contribution", "runtime_ms"):
            assert key in doc


class TestRouteEquivalence:
    @pytest.mark.parametrize("builder", [std_pbtc_povm, clone_mpbt_povm])
    @pytest.mark.parametrize("N", [2, 3])
    def test_formula_matches_choi(self, builder, N):
        d, M = 2, 2
        povm = builder(N, M, d)
        for slot in range(1, M + 1):
            formula = entanglement_fidelity_formula(povm, slot_signals(povm, N, d, slot))
            choi = entanglement_fidelity_choi(povm, slot, N, M, d)
            assert abs(formula - choi) < 1e-10

    def test_choi_matches_state_output(self):
        # the channel applied to |0><0| must agree with what the formula predicts
        # for the diagonal matrix element
        d, N, M = 2, 3, 2
        povm = std_pbtc_povm(N, M, d)
        basis0 = np.zeros((d, d), dtype=complex)
        basis0[0, 0] = 1.0
        state = LabeledOperator(SubsystemLayout([input_label()], [d]), basis0)
        out = single_clone_output(povm, state, N, d)
        assert abs(out.trace() - 1) < 1e-10
        assert out.entries[0, 0].real < 1.0  # cloning is never perfect here


class TestProtocolDispatch:
    def test_symmetric_slots(self):
        # both retained clones see the same fidelity by permutation symmetry
        r = protocol_fidelity("std-pbtc", 2, 4, 2)
        assert len(r.per_clone_f) == 2
        assert abs(r.per_clone_f[0] - r.per_clone_f[1]) < 1e-10

    def test_m1_pbtc_equals_std_pbt(self):
        a = protocol_fidelity("std-pbtc", 2, 3, 1)
        b = protocol_fidelity("std-pbt", 2, 3, 1)
        assert abs(a.F - b.F) < 1e-12

    def test_std_pbt_requires_m1(self):
        with pytest.raises(ValueError, match="M=1"):
            protocol_fidelity("std-pbt", 2, 3, 2)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_fidelity("bogus", 2, 3, 1)

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            protocol_fidelity("std-pbtc", 2, 2, 3)

    def test_clone_matches_closed_form(self):
        for d in (2, 3):
            for m in (1, 2, 3):
                r = protocol_fidelity("clone", d, 0, m)
                assert abs(r.f - optimal_clone_fidelity(m, d)) < 1e-10

    def test_mpbt_m1_equals_std_pbt(self):
        a = protocol_fidelity("mpbt", 2, 3, 1)
        b = protocol_fidelity("std-pbt", 2, 3, 1)
        assert abs(a.F - b.F) < 1e-10

    def test_delta_contribution_nonnegative(self):
        for proto in ("std-pbtc", "clone-mpbt"):
            r = protocol_fidelity(proto, 2, 3, 2)
            assert 0.0 <= r.delta_contribution <= r.F + 1e-12


def dense_formula_route(protocol, N, M, d):
    """Per-slot F and the completion part of F_1 from the dense POVMs."""
    if protocol == "mpbt":
        povm = complete(pgm(mpbt_ensemble(N, M, d)))
        signals = [{J: mpbt_signal(J, N, d) for J in povm.outcomes}]
        rescale = d**2 / d ** (2 * M)  # the formula divides by d^2, mpbt by d^(2M)
    else:
        builder = clone_mpbt_povm if protocol == "clone-mpbt" else std_pbtc_povm
        povm = builder(N, M, d)
        signals = [slot_signals(povm, N, d, k) for k in range(1, M + 1)]
        rescale = 1.0
    per_slot = [rescale * entanglement_fidelity_formula(povm, s) for s in signals]
    # the completion part is the same formula with every element replaced by Delta
    delta = Povm({key: povm.completion_element for key in povm.outcomes}, povm.layout)
    return per_slot, rescale * entanglement_fidelity_formula(delta, signals[0])


def assert_blocked_matches_dense(protocol, d, N, M):
    report = protocol_fidelity(protocol, d, N, M)
    per_slot, delta = dense_formula_route(protocol, N, M, d)
    d_in = d**M if protocol == "mpbt" else d
    assert abs(report.F - per_slot[0]) <= 1e-12
    assert abs(report.delta_contribution - delta) <= 1e-12
    assert len(report.per_clone_f) == len(per_slot)
    for f, F in zip(report.per_clone_f, per_slot):
        assert abs(f - avg_fidelity(F, d_in)) <= 1e-12


BLOCKED_POINTS = (
    [("std-pbt", 2, N, 1) for N in range(1, 7)]
    + [(p, 2, N, 1) for p in ("std-pbtc", "clone-mpbt") for N in range(1, 7)]
    + [(p, 2, N, 2) for p in ("std-pbtc", "clone-mpbt") for N in range(2, 7)]
    + [(p, 2, N, 3) for p in ("std-pbtc", "clone-mpbt") for N in range(3, 6)]
    + [(p, 3, N, 2) for p in ("std-pbtc", "clone-mpbt") for N in (3, 4)]
    + [("mpbt", 2, N, 2) for N in range(2, 6)]
)


@st.composite
def small_points(draw):
    protocol = draw(st.sampled_from(["std-pbtc", "clone-mpbt", "mpbt"]))
    d = draw(st.integers(2, 3))
    N = draw(st.integers(1, 5))
    M = draw(st.integers(1, N))
    # keep the dense reference cheap
    assume(d ** (N + (1 if protocol == "std-pbtc" else M)) <= 256)
    return protocol, d, N, M


class TestBlockedEngine:
    @pytest.mark.parametrize(
        "protocol,d,N,M", BLOCKED_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in BLOCKED_POINTS],
    )
    def test_matches_dense_formula_route(self, protocol, d, N, M):
        assert_blocked_matches_dense(protocol, d, N, M)

    @settings(max_examples=10, deadline=None, database=None)
    @given(small_points())
    def test_matches_dense_formula_route_property(self, point):
        assert_blocked_matches_dense(*point)

    def test_reports_its_blocks(self):
        # [X, A1..A4] at d=2 splits into blocks of size C(5, k)
        r = protocol_fidelity("std-pbtc", 2, 4, 2)
        assert (r.n_blocks, r.max_block_dim) == (6, 10)

    @pytest.mark.parametrize("protocol,N,M,layout_dim", [
        ("std-pbt", 3, 1, 16), ("std-pbtc", 3, 2, 16),
        ("clone-mpbt", 3, 2, 32), ("mpbt", 3, 2, 32),
    ])
    def test_dimension_cap_refuses_at_layout_dimension(
        self, monkeypatch, protocol, N, M, layout_dim
    ):
        monkeypatch.setenv("PORTCLONE_DIM_CAP", str(layout_dim - 1))
        with pytest.raises(DimensionCapError):
            protocol_fidelity(protocol, 2, N, M)
        monkeypatch.setenv("PORTCLONE_DIM_CAP", str(layout_dim))
        protocol_fidelity(protocol, 2, N, M)


class TestCovariancePremise:
    """The blocked engine evaluates one representative outcome and counts it
    n_c times. Independently of it, every outcome I and slot k of the dense
    POVM must contribute the same Tr[E_I rho_{I,k}]."""

    @pytest.mark.parametrize("builder", [std_pbtc_povm, clone_mpbt_povm])
    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (2, 5, 3), (3, 4, 2)])
    def test_every_outcome_and_slot_contributes_equally(self, builder, d, N, M):
        povm = builder(N, M, d)
        signals = [slot_signals(povm, N, d, k) for k in range(1, M + 1)]
        terms = [
            np.real(np.sum(element.entries * s[I].entries.T))
            for I, element in povm.outcomes.items() for s in signals
        ]
        assert len(terms) == len(enumerate_unordered(N, M)) * M
        assert min(terms) > 0
        assert max(terms) - min(terms) <= 1e-12


class TestHaarCheck:
    def test_reproducible(self):
        povm = std_pbtc_povm(3, 2, 2)
        a = haar_average_check(povm, 1, samples=20, seed=5, N=3, d=2)
        b = haar_average_check(povm, 1, samples=20, seed=5, N=3, d=2)
        assert a == b

    def test_matches_exact_value(self):
        d, N, M = 2, 3, 2
        povm = std_pbtc_povm(N, M, d)
        est, se = haar_average_check(povm, 1, samples=50, seed=11, N=N, d=d)
        exact = protocol_fidelity("std-pbtc", d, N, M).f
        # the channel is covariant, so every pure input gives the same
        # fidelity and the spread collapses; allow a small absolute floor
        assert abs(est - exact) <= 3 * se + 1e-10

    @staticmethod
    def _per_sample(povm, clone_slot, samples, seed, N, d):
        """Reference: the channel applied to every sample's state, same draws."""
        rng = np.random.default_rng(seed)
        vals = np.empty(samples)
        x_layout = SubsystemLayout([input_label()], [d])
        for s in range(samples):
            vec = rng.normal(size=d) + 1j * rng.normal(size=d)
            vec /= np.linalg.norm(vec)
            state = LabeledOperator(x_layout, np.outer(vec, vec.conj()))
            out = single_clone_output(povm, state, N, d, clone_slot=clone_slot)
            vals[s] = np.real(vec.conj() @ out.entries @ vec)
        return vals.mean(), vals.std(ddof=1) / np.sqrt(samples)

    @pytest.mark.parametrize("build", [std_pbtc_povm, clone_mpbt_povm])
    def test_matrix_units_match_per_sample_channel(self, build):
        povm = build(3, 2, 2)
        for seed in range(8):
            est, se = haar_average_check(povm, 1, samples=40, seed=seed, N=3, d=2)
            ref_est, ref_se = self._per_sample(povm, 1, 40, seed, 3, 2)
            assert abs(est - ref_est) <= 1e-12
            assert abs(se - ref_se) <= 1e-12

    def test_matrix_units_match_on_non_covariant_family(self):
        # a covariant channel gives every input the same fidelity, so only a
        # family without that symmetry shows a wrong mix of matrix units
        rng = np.random.default_rng(17)
        layout = pbt_layout(3, 2)
        outcomes = {}
        for I in enumerate_unordered(3, 2):
            g = rng.normal(size=(layout.dim,) * 2) + 1j * rng.normal(size=(layout.dim,) * 2)
            outcomes[I] = LabeledOperator(layout, g @ g.conj().T / layout.dim**2)
        povm = Povm(outcomes=outcomes, layout=layout)
        for clone_slot in (1, 2):
            est, se = haar_average_check(povm, clone_slot, samples=200, seed=3, N=3, d=2)
            ref_est, ref_se = self._per_sample(povm, clone_slot, 200, 3, 3, 2)
            assert se > 1e-4
            assert abs(est - ref_est) <= 1e-12
            assert abs(se - ref_se) <= 1e-12
