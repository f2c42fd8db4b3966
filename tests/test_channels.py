import itertools
import time
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from math import comb, prod, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from portclone import channels, states, tensor_core
from portclone.channels import (
    OUTPUT_LABEL,
    REFERENCE_LABEL,
    FidelityReport,
    _block_terms,
    _engine_inputs,
    avg_fidelity,
    entanglement_fidelity_choi,
    entanglement_fidelity_formula,
    haar_average_check,
    protocol_fidelity,
    single_clone_output,
    slot_signals,
)
from portclone.cloning import clone_map, optimal_clone_fidelity
from portclone.measurements import Povm, clone_mpbt_povm, complete, pgm, std_pbtc_povm
from portclone.states import (
    cloned_signal_factor,
    counted_entries,
    ensemble_average,
    input_label,
    max_entangled,
    maximally_mixed,
    mpbt_ensemble,
    mpbt_signal,
    mpbt_signal_entries,
    mpbt_signal_factor,
    pbt_layout,
    pbtc_ensemble,
    pbtc_signal_entries,
    pbtc_signal_factor,
)
from portclone.symmetry import enumerate_ordered, enumerate_unordered
from portclone.tensor_core import (
    PINV_CUTOFF,
    DimensionCapError,
    BlockGroup,
    LabeledOperator,
    SubsystemLayout,
    identity,
    kron_compose,
    partial_trace,
    psd_inv_sqrt_blocks,
    sector_sizes,
    support_spectra,
    trace_product,
    weight_sectors,
)


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

    def test_fidelity_out_of_range_refused(self):
        with pytest.raises(ValueError, match=r"entanglement fidelity 1.5 out of \[0, 1\]"):
            FidelityReport(
                protocol="std-pbt", d=2, N=2, M=1, F=1.5, f=avg_fidelity(1.0, 2),
                per_clone_f=(1.0,), delta_contribution=0.0, runtime_ms=1.0,
            )

    def test_json_fields(self):
        r = protocol_fidelity("std-pbt", 2, 2, 1)
        doc = r.to_json_dict()
        for key in ("protocol", "d", "N", "M", "F", "f",
                    "per_clone_f", "delta_contribution", "runtime_ms"):
            assert key in doc

    @pytest.mark.parametrize("protocol, d, N, M", [
        ("std-pbtc", 2, 4, 2), ("clone-mpbt", 2, 4, 3), ("std-pbt", 2, 3, 1),
        ("mpbt", 2, 3, 2), ("clone", 3, 5, 2),
    ])
    def test_one_report_path(self, protocol, d, N, M):
        # every route's report is built by protocol_fidelity: the JSON keys
        # follow the declaration, mpbt reports one f and the others M, and
        # clone uses no ports whatever N it is passed
        r = protocol_fidelity(protocol, d, N, M)
        assert list(r.to_json_dict()) == [
            field.name for field in fields(FidelityReport) if field.name != "input_dim"
        ]
        assert r.per_clone_f == (r.f,) * (1 if protocol == "mpbt" else M)
        assert r.runtime_ms > 0
        assert (r.protocol, r.d, r.N, r.M) == (protocol, d, 0 if protocol == "clone" else N, M)


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

    def test_formula_refuses_a_missing_signal(self):
        povm = std_pbtc_povm(3, 2, 2)
        signals = slot_signals(povm, 3, 2)
        del signals[(2, 3)]
        with pytest.raises(KeyError, match=r"no signal state supplied for outcome \(2, 3\)"):
            entanglement_fidelity_formula(povm, signals)

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


def teleport_resource(b, N, d):
    """Reduced resource after discarding all receiver ports except the one
    paired with sender port b: Phi+ on (A_b, B), maximally mixed elsewhere."""
    factors = [max_entangled(d, f"A{b}", OUTPUT_LABEL)]
    rest = [f"A{j}" for j in range(1, N + 1) if j != b]
    if rest:
        factors.append(maximally_mixed(rest, d))
    order = [f"A{i}" for i in range(1, N + 1)] + [OUTPUT_LABEL]
    return kron_compose(factors).permute_subsystems(order)


def dense_clone_channel(povm, state, N, d, clone_slot):
    """The single-clone channel as full-width products: for every outcome I,
    Tr_{X,A} of (E_I (x) 1) times state (x) the resource of I's receiving
    port, the d^(N+3)-wide operator the channel's marginals never form."""
    expected = pbt_layout(N, d).labels
    passed = [l for l in state.layout.labels if l != input_label()] + [OUTPUT_LABEL]
    pass_identity = identity(SubsystemLayout(passed, [d] * len(passed)))
    out = 0
    for I, element in povm.outcomes.items():
        resource = teleport_resource(I[clone_slot - 1], N, d)
        omega = kron_compose([state, resource]).permute_subsystems(list(expected) + passed)
        big_e = kron_compose([element, pass_identity])
        out = out + partial_trace(big_e @ omega, expected).entries
    return out


class TestContractedChannel:
    """The channel sums the elements per receiving port and contracts once
    per port; the dense partial trace over every outcome is the reference."""

    @pytest.mark.parametrize("builder", [std_pbtc_povm, clone_mpbt_povm])
    def test_non_hermitian_input(self, builder):
        d, N, M = 2, 4, 2
        povm = builder(N, M, d)
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 1] = np.exp(0.7j)
        state = LabeledOperator(SubsystemLayout([input_label()], [d]), rho)
        for slot in (1, 2):
            out = single_clone_output(povm, state, N, d, slot)
            assert out.layout.labels == (OUTPUT_LABEL,)
            reference = dense_clone_channel(povm, state, N, d, slot)
            assert np.abs(out.entries - reference).max() <= 1e-14

    @pytest.mark.parametrize(
        "builder,d,N,M,slot",
        [
            (std_pbtc_povm, 2, 4, 2, 1),
            (clone_mpbt_povm, 2, 4, 2, 2),
            (std_pbtc_povm, 3, 3, 2, 1),
            (clone_mpbt_povm, 3, 3, 2, 2),
        ],
    )
    def test_choi_fidelity(self, builder, d, N, M, slot):
        povm = builder(N, M, d)
        phi_in = max_entangled(d, input_label(), REFERENCE_LABEL)
        reference = trace_product(
            dense_clone_channel(povm, phi_in, N, d, slot),
            max_entangled(d, REFERENCE_LABEL, OUTPUT_LABEL).entries,
        )
        assert abs(entanglement_fidelity_choi(povm, slot, N, M, d) - reference) <= 1e-14

    def test_routes_read_no_signal(self, monkeypatch):
        # the Choi route and the Haar check read the POVM, its marginals and
        # an explicit Phi+ only, so they stay independent of the formula route
        d, N, M = 2, 4, 2
        povm = std_pbtc_povm(N, M, d)
        choi = entanglement_fidelity_choi(povm, 2, N, M, d)
        haar = haar_average_check(povm, 2, 30, 7, N, d)

        def refuse(*args, **kwargs):
            raise AssertionError("a signal builder was read")

        for module, name in [(channels, "pbtc_signal"), (channels, "counted_entries"),
                             (states, "counted_entries"), (states, "pbtc_signal_entries")]:
            monkeypatch.setattr(module, name, refuse)
        assert entanglement_fidelity_choi(povm, 2, N, M, d) == choi
        assert haar_average_check(povm, 2, 30, 7, N, d) == haar

    @pytest.mark.parametrize("d,N", [(2, 6), (3, 4)])
    def test_choi_peak_memory_of_a_few_elements(self, d, N):
        # the channel holds one summed element per receiving port and
        # d^2 x d^2 marginals, never the d^(N+3)-wide state and resource
        povm = std_pbtc_povm(N, 2, d)
        tracemalloc.start()
        entanglement_fidelity_choi(povm, 1, N, 2, d)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 8 * povm.layout.dim**2 * 8

    def test_choi_holds_one_summed_element_at_a_time(self):
        # at std-pbtc (2, 6, 2) five receiving ports share the 15 outcomes:
        # summing one port's elements at a time peaks at about 3 elements,
        # where keeping every port's sum until the contraction took about 5.4
        d, N, M = 2, 6, 2
        povm = std_pbtc_povm(N, M, d)
        tracemalloc.start()
        try:
            entanglement_fidelity_choi(povm, 1, N, M, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * povm.layout.dim**2 * 8


class TestCloneSlotRange:
    @pytest.mark.parametrize("clone_slot", [0, -1, 3])
    def test_slot_outside_one_to_m_rejected(self, clone_slot):
        d, N, M = 2, 3, 2
        povm = std_pbtc_povm(N, M, d)
        state = LabeledOperator(SubsystemLayout([input_label()], [d]), np.eye(d) / d)
        with pytest.raises(ValueError, match="clone slot"):
            entanglement_fidelity_choi(povm, clone_slot, N, M, d)
        with pytest.raises(ValueError, match="clone slot"):
            single_clone_output(povm, state, N, d, clone_slot)
        with pytest.raises(ValueError, match="clone slot"):
            haar_average_check(povm, clone_slot, 2, 0, N, d)
        with pytest.raises(ValueError, match="clone slot"):
            slot_signals(povm, N, d, clone_slot)


class TestPointMatchesPovm:
    # the labels of [X, A1..AN] do not depend on d, so only the dimensions
    # tell a wrong d; a wrong M leaves every layout alone
    @pytest.mark.parametrize("N,d", [(3, 3), (4, 2), (2, 2)])
    def test_other_layout_refused(self, N, d):
        povm = std_pbtc_povm(3, 2, 2)
        state = LabeledOperator(SubsystemLayout([input_label()], [d]), np.eye(d) / d)
        with pytest.raises(ValueError, match="does not match canonical"):
            entanglement_fidelity_choi(povm, 1, N, 2, d)
        with pytest.raises(ValueError, match="does not match canonical"):
            single_clone_output(povm, state, N, d)
        with pytest.raises(ValueError, match="does not match canonical"):
            haar_average_check(povm, 1, 10, 0, N, d)
        with pytest.raises(ValueError, match="does not match canonical"):
            slot_signals(povm, N, d)

    @pytest.mark.parametrize(
        "labels,dims", [(["X"], [3]), (["X", "Y"], [2, 3]), (["X", "Y"], [3, 2])]
    )
    def test_input_on_another_layout_refused(self, labels, dims):
        povm = std_pbtc_povm(3, 2, 2)
        layout = SubsystemLayout(labels, dims)
        state = LabeledOperator(layout, np.eye(layout.dim) / layout.dim)
        with pytest.raises(ValueError, match="single slot X"):
            single_clone_output(povm, state, 3, 2)

    @pytest.mark.parametrize("M", [1, 3, 7])
    def test_other_clone_count_refused(self, M):
        with pytest.raises(ValueError, match=f"sets of 2 ports, not M={M}"):
            entanglement_fidelity_choi(std_pbtc_povm(3, 2, 2), 1, 3, M, 2)


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
        # Werner's closed form itself, with nothing formed: the dense cloning
        # map took 83 s at (4, 6) and refused d=2, M >= 8 by its basis-map table
        for d, m in [*itertools.product((2, 3), (1, 2, 3)), (4, 6), (2, 13), (5, 5)]:
            start = time.perf_counter()
            r = protocol_fidelity("clone", d, 0, m)
            assert time.perf_counter() - start < 0.01
            assert r.f == optimal_clone_fidelity(m, d)
            assert r.F == (r.f * (d + 1) - 1) / d and r.per_clone_f == (r.f,) * m
            sizes = (r.n_blocks, r.max_block_dim, r.n_orbits, r.kept_rank, r.n_pieces,
                     r.max_piece_dim)
            assert sizes == (0,) * 6 and r.delta_contribution == 0.0

    @pytest.mark.parametrize("d,M,message", [
        (2, 0, "need M >= 1, got M=0"),
        (2, -1, "need M >= 1, got M=-1"),
        (1, 2, r"local dimensions must be >= 2, got \(1,\)"),
    ])
    def test_clone_refuses_invalid_parameters(self, d, M, message):
        with pytest.raises(ValueError, match=message):
            protocol_fidelity("clone", d, 0, M)

    @pytest.mark.parametrize("M", [8, 9, 12, 13])
    def test_clone_refused_by_its_permutation_table(self, M):
        # the dense reference map: the symmetrizer's table of M! basis maps is
        # counted before any permutation is listed; at M = 8 it holds
        # 8! * 8 * 2^8 = 82.6 M entries, above the DIM_CAP**2 = 67.1 M of one
        # cap-wide matrix. The count also comes before clone_map forms the
        # 2^M-wide input (x) identity, which peaked at 317 MB at M = 12
        qubit = LabeledOperator(SubsystemLayout([input_label()], [2]), np.eye(2) / 2)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(DimensionCapError, match="basis-map table"):
                clone_map(qubit, M, 2)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.05 and peak < 2**20

    def test_mpbt_m1_equals_std_pbt(self):
        a = protocol_fidelity("mpbt", 2, 3, 1)
        b = protocol_fidelity("std-pbt", 2, 3, 1)
        assert abs(a.F - b.F) < 1e-10

    def test_delta_contribution_nonnegative(self):
        # no slack below 0: the completion weight is a sum of squares, and the
        # points at N >= 8 once read slightly negative
        points = [("std-pbtc", 3, 2), ("clone-mpbt", 3, 2), ("std-pbt", 8, 1),
                  ("std-pbt", 9, 1), ("std-pbt", 10, 1), ("std-pbtc", 8, 2)]
        for proto, N, M in points:
            r = protocol_fidelity(proto, 2, N, M)
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
    + [("std-pbtc", 2, N, 4) for N in (5, 6)]
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
        # [X, A1..A4] at d=2 splits into blocks of size C(5, k); the level swap
        # pairs weight (w0, w1) with (w1, w0), and no sector maps to itself
        r = protocol_fidelity("std-pbtc", 2, 4, 2)
        assert (r.n_blocks, r.max_block_dim, r.n_orbits) == (6, 10, 3)
        assert r.to_json_dict()["n_orbits"] == 3
        # the rank of the dense average state, counted over every block
        [(_, _, keep)] = support_spectra([ensemble_average(pbtc_ensemble(4, 2, 2)).entries])
        dense_rank = np.count_nonzero(keep)
        assert r.kept_rank == r.to_json_dict()["kept_rank"] == dense_rank
        # at N=3 the sector of weight (1, 1) is its own orbit
        assert protocol_fidelity("std-pbtc", 2, 3, 2).n_orbits == 3
        assert protocol_fidelity("clone", 2, 0, 2).n_orbits == 0  # nothing decomposed
        # no block is wider than SPLIT_MIN, so every block is one piece
        assert (r.n_pieces, r.max_piece_dim) == (r.n_orbits, r.max_block_dim)
        assert r.to_json_dict()["n_pieces"] == 3
        assert r.to_json_dict()["max_piece_dim"] == 10

    def test_cutoff_sits_in_a_wide_gap(self, monkeypatch):
        # at clone-mpbt (2, 8, 4) the smallest kept eigenvalue of the average
        # is 7.9e-3 of lambda_max and the largest dropped one 1.6e-16. The
        # kept rank must be the orbit-weighted count above 1e-12 lambda_max,
        # which the engine weighs when the wrapper keeps exactly those, and
        # the cutoff must split the spectrum across a gap wider than 1e10: a
        # PINV_CUTOFF moved into the kept spectrum fails both
        point = ("clone-mpbt", 2, 8, 4)
        reference = protocol_fidelity(*point)
        spectra_of, margins = channels.support_spectra, []

        def kept_above_1e_12(blocks):
            spectra = spectra_of(blocks)
            lam_max = max(vals.max() for vals, _, _ in spectra)
            kept = min(vals[keep].min(initial=np.inf) for vals, _, keep in spectra)
            dropped = max(np.abs(vals[~keep]).max(initial=0.0) for vals, _, keep in spectra)
            margins.append((kept, dropped))
            return [(vals, vecs, vals > 1e-12 * lam_max) for vals, vecs, _ in spectra]

        monkeypatch.setattr(channels, "support_spectra", kept_above_1e_12)
        weighted = protocol_fidelity(*point)
        [(kept, dropped)] = margins
        assert weighted.kept_rank == reference.kept_rank and weighted.F == reference.F
        assert kept > 1e10 * dropped > 0

    def test_reports_its_pieces(self):
        # blocks of 462, 330 and 165 split into 5, 5 and 4 pieces, the 462
        # one into pieces of 131, 48, 18, 7 and 3; three blocks stay whole
        r = protocol_fidelity("std-pbt", 2, 10, 1)
        assert (r.max_block_dim, r.n_orbits, r.max_piece_dim, r.n_pieces) == (462, 6, 131, 17)
        doc = r.to_json_dict()
        assert (doc["max_piece_dim"], doc["n_pieces"]) == (131, 17)

    # points whose largest block, not their basis table, is the larger array
    # at cap max_block_dim - 1
    @pytest.mark.parametrize("protocol,N,M", [
        ("std-pbt", 6, 1), ("std-pbtc", 6, 2), ("clone-mpbt", 5, 2), ("mpbt", 5, 2),
    ])
    def test_dimension_cap_refuses_at_largest_block(self, monkeypatch, protocol, N, M):
        widest = protocol_fidelity(protocol, 2, N, M).max_block_dim
        monkeypatch.setattr(tensor_core, "DIM_CAP", widest - 1)
        with pytest.raises(DimensionCapError, match=f"largest block {widest} exceeds cap"):
            protocol_fidelity(protocol, 2, N, M)
        monkeypatch.setattr(tensor_core, "DIM_CAP", widest)
        assert protocol_fidelity(protocol, 2, N, M).max_block_dim == widest

    @pytest.mark.parametrize("protocol,d,N,M,refusal", [
        ("std-pbt", 2, 20, 1, f"largest block {comb(21, 10)} "),
        ("std-pbt", 2, 40, 1, f"basis table {2**41}x41 "),
        ("std-pbt", 1000, 1, 1, f"basis table {1000**2}x1000 "),
        ("mpbt", 2, 12, 6, f"largest block {comb(18, 9)} "),
        ("clone-mpbt", 2, 12, 6, f"largest block {comb(18, 9)} "),
        ("clone-mpbt", 2, 9, 9, f"largest block {comb(18, 9)} "),
        ("std-pbtc", 2, 18, 9, f"largest block {comb(19, 9)} "),
    ])
    def test_far_point_refused_before_any_table(self, protocol, d, N, M, refusal):
        # every refusal is decided from counts: at d=2 the sector count
        # takes no d^(N+1) array, the basis table is sized, not built, and
        # no outcome is enumerated before both are
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError, match=refusal):
                protocol_fidelity(protocol, d, N, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("protocol,M", [
        ("std-pbt", 1), ("std-pbtc", 2), ("clone-mpbt", 2), ("mpbt", 2),
    ])
    def test_local_dimension_below_two_refused(self, protocol, M):
        with pytest.raises(ValueError, match="local dimensions must be >= 2"):
            protocol_fidelity(protocol, 1, 3, M)


COVARIANCE_POINTS = [
    (builder, d, N, M)
    for d, N, M in [(2, 4, 2), (2, 5, 3), (3, 4, 2)]
    for builder in (std_pbtc_povm, clone_mpbt_povm)
] + [(std_pbtc_povm, 2, 6, 4)]  # the dense clone-mpbt POVM at M=4 is too slow for tier-1


class TestCovariancePremise:
    """The blocked engine evaluates one representative outcome and counts it
    n_c times, and reads every clone's fidelity off slot 1. Independently of
    it, every outcome I and slot k of the dense POVM must contribute the same
    Tr[E_I rho_{I,k}]."""

    @pytest.mark.parametrize(
        "builder,d,N,M", COVARIANCE_POINTS,
        ids=[f"{d}-{n}-{m}-{b.__name__}" for b, d, n, m in COVARIANCE_POINTS],
    )
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


def largest_block(protocol, d, N, M):
    dims, n_conj, *_ = _engine_inputs(protocol, N, M, d)
    return max(sector_sizes(dims, n_conj))


# the unsplit reference at the wider blocks of N <= 12 takes 1 to 10 s a point
SPLIT_POINTS = [
    (p, 2, N, M)
    for p in ("std-pbt", "std-pbtc", "clone-mpbt", "mpbt")
    for M in range(1, 5) if p != "std-pbt" or M == 1
    for N in range(M, 13) if largest_block(p, 2, N, M) <= 462
] + [(p, 3, N, 2) for p in ("std-pbtc", "clone-mpbt", "mpbt") for N in (4, 5)]


def unsplit_and_split(monkeypatch, point):
    """Reports with every block whole, and with every block that has a pair
    of ports outside c0 split."""
    monkeypatch.setattr(channels, "SPLIT_MIN", largest_block(*point))
    whole = protocol_fidelity(*point)
    monkeypatch.setattr(channels, "SPLIT_MIN", 0)
    return whole, protocol_fidelity(*point)


class TestCharacterSplit:
    """The engine decomposes wide blocks in the characters of the swaps of
    ports outside c0; the whole blocks are the reference."""

    @pytest.mark.parametrize(
        "protocol,d,N,M", SPLIT_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in SPLIT_POINTS],
    )
    def test_split_matches_whole_blocks(self, monkeypatch, protocol, d, N, M):
        whole, split = unsplit_and_split(monkeypatch, (protocol, d, N, M))
        assert abs(split.F - whole.F) <= 1e-12
        assert abs(split.delta_contribution - whole.delta_contribution) <= 1e-12
        assert split.kept_rank == whole.kept_rank
        assert whole.n_pieces == whole.n_orbits
        if N - M >= 2:
            assert split.n_pieces > split.n_orbits

    def test_no_pair_leaves_blocks_whole(self, monkeypatch):
        # one port outside c0 makes no pair, so the 126-wide block of
        # (2, 5, 4) stays one piece and the report is bit-identical
        whole, split = unsplit_and_split(monkeypatch, ("clone-mpbt", 2, 5, 4))
        assert split.max_block_dim == 126
        assert replace(split, runtime_ms=0) == replace(whole, runtime_ms=0)
        assert (split.n_pieces, split.max_piece_dim) == (split.n_orbits, 126)

    def test_wide_block_without_pair_is_counted_whole(self, monkeypatch):
        # std-pbtc (2, 8, 7) leaves one port outside c0; its 126-wide block
        # is built by the counted nonzeros, never by the splitter, and the
        # report is the one with every block at most SPLIT_MIN wide
        point = ("std-pbtc", 2, 8, 7)

        def refuse(*args):
            raise AssertionError("a block with no pair reached the splitter")

        monkeypatch.setattr(channels, "_character_pieces", refuse)
        report = protocol_fidelity(*point)
        assert report.max_block_dim == 126 > channels.SPLIT_MIN
        assert (report.n_pieces, report.max_piece_dim) == (report.n_orbits, report.max_block_dim)
        monkeypatch.setattr(channels, "SPLIT_MIN", report.max_block_dim)
        assert replace(protocol_fidelity(*point), runtime_ms=0) == replace(report, runtime_ms=0)


def dense_character_pieces(block, idx, dims, n_free):
    """The split of `channels._character_pieces` from the dense block: one
    row gather at the orbits' states and the representatives' columns, summed
    per orbit with `np.add.reduceat`. Returns (C(r, s), piece, lift), where
    lift(V) is the piece's eigenvectors V in the block basis: row b is
    eps_S(b) / w(b) times the row of b's orbit, and zero outside the piece."""
    n_pairs = n_free // 2
    if not n_pairs:
        return [(1, block, lambda vecs: vecs)]
    paired = slice(len(dims) - n_free, len(dims) - n_free + 2 * n_pairs)
    strides = np.array([prod(dims[s + 1:]) for s in range(len(dims))])[paired, None]
    digits = idx // strides % np.array(dims[paired])[:, None]
    low, high = digits[0::2], digits[1::2]
    descends = low > high
    step = (high - low) * descends * (strides[0::2] - strides[1::2])
    orbit_reps, orbit = np.unique(np.searchsorted(idx, idx + step.sum(axis=0)), return_inverse=True)
    zero = np.zeros((1, len(idx)), dtype=int)
    differ = np.concatenate([zero, np.cumsum(low != high, axis=0)])
    flips = np.concatenate([zero, np.cumsum(descends, axis=0)])
    root_size = 2.0 ** (differ[-1] / 2)
    pieces = []
    for s in range(n_pairs + 1):
        member = differ[s] == s
        reps = orbit_reps[member[orbit_reps]]
        if not len(reps):
            continue
        rows = np.flatnonzero(member)
        rows = rows[np.argsort(orbit[rows], kind="stable")]
        counts = 2 ** differ[-1][reps]
        sign = 1 - 2 * (flips[s, rows] % 2)
        piece = np.add.reduceat(block[np.ix_(rows, reps)] * sign[:, None], np.cumsum(counts) - counts)
        piece *= root_size[reps] / root_size[reps, None]

        def lift(vecs, rows=rows, weights=sign / root_size[rows],
                 local=np.repeat(np.arange(len(reps)), counts)):
            out = np.zeros((len(idx), vecs.shape[1]))
            out[rows] = weights[:, None] * vecs[local]
            return out

        pieces.append((comb(n_pairs, s), piece, lift))
    return pieces


def one_block(idx, dims):
    """The group of the one block `idx` over slots of dimensions `dims`."""
    return BlockGroup([idx], dims)


def block_factor(build, idx, dims):
    """The factor (c, F) of the factor builder `build` on the one block `idx`."""
    c, [f] = build(one_block(idx, dims))
    return c, f


def counted_average(average, idx, dims):
    """The matrix of the nonzeros builder `average` on the one block `idx`."""
    group = one_block(idx, dims)
    [block] = counted_entries(average(group), group.widths)
    return block


def orbit_blocks(protocol, d, N, M):
    """Engine inputs and the basis indices of every block the engine decomposes."""
    inputs = _engine_inputs(protocol, N, M, d)
    weights, sectors = weight_sectors(*inputs[:2])
    return inputs, [idx for w, idx in zip(weights, sectors) if np.all(np.diff(w) <= 0)]


PIECE_POINTS = SPLIT_POINTS + [("std-pbt", 2, 12, 1), ("std-pbt", 2, 13, 1), ("std-pbtc", 3, 7, 2)]


class TestSparsePieces:
    """The engine builds every piece from the average's nonzeros without
    forming the block; the split of the dense block is the reference."""

    @pytest.mark.parametrize(
        "protocol,d,N,M", PIECE_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in PIECE_POINTS],
    )
    def test_pieces_match_dense_split(self, protocol, d, N, M):
        # every block, decomposed as with SPLIT_MIN = 0: split where a pair
        # of ports lies outside c0, and whole, with no row map, where none
        # does; the row map must give the same terms as the lifted
        # eigenvectors, to the last bit
        (dims, _, signal, average, target, _), blocks = orbit_blocks(protocol, d, N, M)
        rng = np.random.default_rng(N)
        for idx in blocks:
            group = one_block(idx, dims)
            [block] = counted_entries(average(group), group.widths)
            if N - M >= 2:
                sparse = channels._character_pieces(average(group), group, N - M)
            else:
                sparse = [(1, block, None)]
            dense = dense_character_pieces(block, idx, dims, N - M)
            eta, tau = block_factor(signal, idx, dims), block_factor(target, idx, dims)
            for (count, piece, rows), (ref_count, ref, lift) in zip(sparse, dense, strict=True):
                assert count == ref_count and piece.shape == ref.shape
                assert np.abs(piece - ref).max() <= 1e-15 * np.abs(ref).max()
                w = len(piece)
                vals, vecs = rng.uniform(0.5, 1.0, w), rng.standard_normal((w, w))
                keep = rng.random(w) < 0.8
                terms = _block_terms(vals, vecs, keep, eta, tau, rows)
                assert terms == _block_terms(vals, lift(vecs), keep, eta, tau, None)

    @pytest.mark.parametrize("protocol,d,N,M", [
        ("std-pbt", 2, 8, 1), ("std-pbtc", 2, 7, 2), ("std-pbtc", 2, 8, 3), ("std-pbtc", 3, 5, 2),
        ("clone-mpbt", 2, 7, 2), ("clone-mpbt", 2, 5, 4), ("mpbt", 2, 6, 2), ("mpbt", 3, 4, 2),
    ])
    def test_narrow_block_is_the_dense_builder(self, protocol, d, N, M):
        # a block at most SPLIT_MIN wide, or with no pair, is decomposed
        # whole: its counted nonzeros are bit-identical to the block of the
        # scatter builder's matrix on the whole basis
        (dims, _, _, average, _, _), blocks = orbit_blocks(protocol, d, N, M)
        if protocol.startswith("std"):
            full = pbtc_signal_entries(enumerate_unordered(N, M), N, d)
        else:
            full = mpbt_signal_entries(enumerate_ordered(N, M), N, d)
        whole = [idx for idx in blocks if len(idx) <= channels.SPLIT_MIN or N - M < 2]
        assert whole
        for idx in whole:
            assert np.array_equal(counted_average(average, idx, dims), full[np.ix_(idx, idx)])

    def test_peak_memory_below_one_block(self):
        # std-pbt N=13 splits its 3432-wide block and never forms it: the
        # traced peak stays below the block's float entries alone
        tracemalloc.start()
        try:
            r = protocol_fidelity("std-pbt", 2, 13, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.max_block_dim == 3432
        assert peak < 3432**2 * 8


# every dense-grid and large-port benchmark point, and points with M = 3, 4 or d = 3
GROUP_POINTS = (
    [(p, 2, N, 2) for N in range(2, 8) for p in ("std-pbtc", "clone-mpbt")]
    + [("mpbt", 2, N, 2) for N in range(2, 7)]
    + [("std-pbtc", 2, 8, 2), ("std-pbtc", 3, 4, 2), ("std-pbtc", 3, 5, 2)]
    + [("std-pbt", 2, 9, 1), ("std-pbt", 2, 10, 1)]
    + [("std-pbtc", 2, 9, 3), ("std-pbtc", 2, 10, 4), ("clone-mpbt", 2, 8, 4)]
    + [("clone-mpbt", 3, 5, 2), ("mpbt", 3, 4, 2)]
)


class TestGroupedBuild:
    """The engine builds every block at most SPLIT_MIN wide in one group;
    each block built alone is the reference, to the last bit."""

    @pytest.mark.parametrize(
        "protocol,d,N,M", GROUP_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in GROUP_POINTS],
    )
    def test_group_matches_blocks_alone(self, protocol, d, N, M):
        # the average blocks, and the factors of the signal and target with
        # their columns in order
        (dims, _, signal, average, target, _), blocks = orbit_blocks(protocol, d, N, M)
        narrow = [idx for idx in blocks if len(idx) <= channels.SPLIT_MIN]
        assert narrow
        group = BlockGroup(narrow, dims)
        averages = counted_entries(average(group), group.widths)
        factors = [(build, build(group)) for build in (signal, target)]
        for b, idx in enumerate(narrow):
            assert np.array_equal(averages[b], counted_average(average, idx, dims))
            for build, (c, parts) in factors:
                ref_c, ref_f = block_factor(build, idx, dims)
                assert c == ref_c and np.array_equal(parts[b], ref_f)

    @pytest.mark.parametrize("d,N,M", [(2, 5, 3), (2, 6, 2), (3, 4, 2)])
    def test_factor_columns_member_by_member(self, d, N, M):
        # clone-mpbt's signal is its M! orderings' factors side by side in
        # every block, so the engine's traces sum in one order
        (dims, _, signal, *_), blocks = orbit_blocks("clone-mpbt", d, N, M)
        _, parts = signal(BlockGroup(blocks, dims))
        for idx, part in zip(blocks, parts, strict=True):
            alone = [block_factor(partial(mpbt_signal_factor, [J]), idx, dims)[1]
                     for J in enumerate_ordered(M, M)]
            assert np.array_equal(part, np.hstack(alone))

    @pytest.mark.parametrize("every_sector", [False, True])
    def test_pair_of_two_ports_refused(self, every_sector):
        # raising two ports by one level leaves the weight sector: the target
        # lies outside the group, or in another block of it
        dims = (2,) * 4
        _, sectors = weight_sectors(dims, 1)
        group = BlockGroup(sectors if every_sector else [s for s in sectors if 0 in s], dims)
        states._pattern_columns(np.array([[[0, 1]]]), group)  # input to port: closed
        with pytest.raises(ValueError, match="closed"):
            states._pattern_columns(np.array([[[1, 2]]]), group)

    def test_peak_memory_with_wide_blocks_apart(self):
        # std-pbtc (2, 10, 4) has blocks up to 462 wide; each is built alone,
        # so no list of the average's nonzeros holds two wide blocks
        tracemalloc.start()
        try:
            r = protocol_fidelity("std-pbtc", 2, 10, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.max_block_dim > channels.SPLIT_MIN
        assert peak < 40 * 2**20


def pbt_qubit_closed_form(N):
    """Entanglement fidelity of standard qubit port-based teleportation with
    N ports (Ishizaka and Hiroshima, PRA 79, 042306, 2009)."""
    return sum(
        comb(N, k)
        * ((N - 2 * k - 1) / sqrt(k + 1) + (N - 2 * k + 1) / sqrt(N - k + 1)) ** 2
        for k in range(N + 1)
    ) / 2 ** (N + 3)


class TestClosedForm:
    @pytest.mark.parametrize("N", range(1, 15))
    def test_std_pbt_matches_ishizaka_hiroshima(self, N):
        assert abs(protocol_fidelity("std-pbt", 2, N, 1).F - pbt_qubit_closed_form(N)) <= 1e-12


def factor_entries(factor, k):
    """Dense c F F^T of a factor (c, positions) on a k-dimensional block."""
    c, positions = factor
    f = np.zeros((k, positions.shape[1]))
    for pos in positions:
        np.add.at(f, (pos, np.arange(positions.shape[1])), 1.0)
    return c * f @ f.T


FACTOR_POINTS = [
    ("std-pbt", 2, 5, 1), ("std-pbtc", 2, 5, 2), ("std-pbtc", 2, 5, 3), ("std-pbtc", 3, 3, 2),
    ("mpbt", 2, 4, 2), ("mpbt", 3, 3, 2), ("clone-mpbt", 2, 4, 2), ("clone-mpbt", 2, 5, 3),
    ("clone-mpbt", 3, 3, 2),
]


def slot_targets(protocol, N, M, d):
    """Factor builders of c0's target at every slot 1..M; `mpbt` has one."""
    if protocol == "mpbt":
        return [_engine_inputs(protocol, N, M, d)[4]]
    if protocol == "clone-mpbt":
        return [partial(cloned_signal_factor, i, M) for i in range(1, M + 1)]
    return [partial(pbtc_signal_factor, (i,)) for i in range(1, M + 1)]


class TestEngineFactors:
    """The engine reads every signal and target as c F F^T. The scatter
    builders' matrices on the whole basis, checked against dense references
    elsewhere, are the reference here, sliced block by block; `clone-mpbt`
    targets are checked against the dense sandwich in test_cloning."""

    @pytest.mark.parametrize(
        "protocol,d,N,M", FACTOR_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in FACTOR_POINTS],
    )
    def test_signal_and_targets_match_scatter(self, protocol, d, N, M):
        dims, n_conj, signal, _, target, _ = _engine_inputs(protocol, N, M, d)
        first = tuple(range(1, M + 1))
        if protocol.startswith("std"):
            # the engine's target is slot 1's; the other slots' are checked too
            factors = [signal, target] + slot_targets(protocol, N, M, d)[1:]
            scatter = [pbtc_signal_entries([first], N, d)]
            scatter += [pbtc_signal_entries([(i,)], N, d) for i in first]
        elif protocol == "mpbt":
            factors = [signal, target]
            scatter = [mpbt_signal_entries([first], N, d)] * 2
        else:
            factors = [signal]
            scatter = [mpbt_signal_entries(list(itertools.permutations(first)), N, d)]
        _, sectors = weight_sectors(dims, n_conj)
        for idx in sectors:
            for factor, full in zip(factors, scatter, strict=True):
                entries = factor_entries(block_factor(factor, idx, dims), len(idx))
                assert np.abs(entries - full[np.ix_(idx, idx)]).max() <= 1e-15


BLOCK_POINTS = [
    ("std-pbt", 2, 5, 1), ("std-pbtc", 2, 5, 2), ("std-pbtc", 3, 3, 2),
    ("mpbt", 2, 4, 2), ("clone-mpbt", 2, 4, 2), ("clone-mpbt", 2, 5, 3),
]


class TestBlockTerms:
    @pytest.mark.parametrize(
        "protocol,d,N,M", BLOCK_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in BLOCK_POINTS],
    )
    def test_factored_terms_match_dense_traces(self, protocol, d, N, M):
        # per block and for the target of every slot, against Tr(R eta R tau)
        # and Tr((1 - P) tau) with R and P from psd_inv_sqrt_blocks; a copy of
        # the largest block, scaled below the global cutoff, keeps no eigenvalue
        dims, n_conj, signal, average, *_ = _engine_inputs(protocol, N, M, d)
        _, sectors = weight_sectors(dims, n_conj)
        largest = max(range(len(sectors)), key=lambda i: len(sectors[i]))
        sectors.append(sectors[largest])
        blocks = [counted_average(average, idx, dims) for idx in sectors]
        blocks[-1] *= 1e-3 * PINV_CUTOFF
        spectra = support_spectra(blocks)
        roots, projectors = psd_inv_sqrt_blocks(blocks)
        assert spectra[largest][2].any() and not spectra[-1][2].any()
        for idx, (vals, vecs, keep), root, proj in zip(sectors, spectra, roots, projectors):
            signal_factor = block_factor(signal, idx, dims)
            eta = factor_entries(signal_factor, len(idx))
            for target in slot_targets(protocol, N, M, d):
                target_factor = block_factor(target, idx, dims)
                main, completion = _block_terms(
                    vals, vecs, keep, signal_factor, target_factor, None
                )
                tau = factor_entries(target_factor, len(idx))
                assert abs(main - np.trace(root @ eta @ root @ tau)) <= 1e-14
                assert abs(completion - np.trace((np.eye(len(idx)) - proj) @ tau)) <= 1e-14
                assert completion >= 0.0


AVERAGE_POINTS = (
    [("std-pbt", d, N, 1) for d, N in ((2, 5), (3, 3))]
    + [
        (p, d, N, M)
        for p in ("std-pbtc", "clone-mpbt", "mpbt")
        for d, N in ((2, 5), (3, 3))
        for M in (1, 2, 3)
    ]
)


class TestScatterAverage:
    """The engine builds each sector's average state in one scatter; the dense
    member-by-member average, restricted to the sector, is the reference."""

    @pytest.mark.parametrize(
        "protocol,d,N,M", AVERAGE_POINTS,
        ids=[f"{p}-d{d}-N{n}-M{m}" for p, d, n, m in AVERAGE_POINTS],
    )
    def test_matches_dense_average_in_every_sector(self, protocol, d, N, M):
        dims, n_conj, _, average, *_ = _engine_inputs(protocol, N, M, d)
        ensemble = pbtc_ensemble if protocol.startswith("std") else mpbt_ensemble
        dense = ensemble_average(ensemble(N, M, d)).entries
        _, sectors = weight_sectors(dims, n_conj)
        for idx in sectors:
            block = counted_average(average, idx, dims)
            assert np.abs(block - dense[np.ix_(idx, idx)]).max() <= 1e-14


def level_permutation(pi, layout):
    """Permutation matrix taking level l to level pi[l] on every slot of `layout`."""
    digits = np.array(np.unravel_index(np.arange(layout.dim), layout.dims))
    target = np.ravel_multi_index(tuple(np.asarray(pi)[digits]), layout.dims)
    u = np.zeros((layout.dim, layout.dim))
    u[target, np.arange(layout.dim)] = 1.0
    return u


class TestLevelPermutationPremise:
    """The blocked engine evaluates one weight sector per S_d orbit and counts
    it once per sector of that orbit. Independently of it, a level
    permutation on every slot must commute with the dense POVMs, and average
    blocks of one orbit must have one spectrum."""

    @pytest.mark.parametrize("builder", [std_pbtc_povm, clone_mpbt_povm])
    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (3, 3, 2)])
    def test_commutes_with_every_element(self, builder, d, N, M):
        povm = builder(N, M, d)
        elements = [e.entries for e in povm.outcomes.values()]
        elements.append(povm.completion_element.entries)
        for pi in itertools.permutations(range(d)):
            u = level_permutation(pi, povm.layout)
            for e in elements:
                assert np.abs(u @ e - e @ u).max() <= 1e-12

    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (3, 3, 2)])
    def test_orbit_mates_have_equal_spectra(self, d, N, M):
        cases = [
            (ensemble_average(pbtc_ensemble(N, M, d)).entries, (d,) * (N + 1), 1),
            (ensemble_average(mpbt_ensemble(N, M, d)).entries, (d,) * (M + N), M),
        ]
        for avg, dims, n_conj in cases:
            weights, sectors = weight_sectors(dims, n_conj)
            orbits: dict[tuple, list[np.ndarray]] = {}
            for w, idx in zip(weights, sectors):
                spectrum = np.linalg.eigvalsh(avg[np.ix_(idx, idx)])
                orbits.setdefault(tuple(sorted(w)), []).append(spectrum)
            assert len(orbits) < len(sectors)
            for spectra in orbits.values():
                assert all(np.abs(s - spectra[0]).max() <= 1e-12 for s in spectra)


class TestHaarCheck:
    def test_no_sample_refused(self):
        with pytest.raises(ValueError, match="at least one sample"):
            haar_average_check(std_pbtc_povm(3, 2, 2), 1, samples=0, seed=0, N=3, d=2)

    def test_sample_count_refused_before_any_draw(self):
        # one sample over the cap: its draws, states and outputs would each
        # hold more than DIM_CAP**2 entries, gigabytes at the default cap
        d, povm = 2, std_pbtc_povm(3, 2, 2)
        samples = tensor_core.DIM_CAP**2 // (d * d) + 1
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError, match=f"{samples} Haar samples"):
                haar_average_check(povm, 1, samples=samples, seed=0, N=3, d=d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @staticmethod
    def _non_covariant_family():
        """Random PSD elements keyed by the outcomes of (d, N, M) = (2, 3, 2). A
        covariant channel gives every input the same fidelity, so only a family
        without that symmetry shows a wrong mix of matrix units or of draws."""
        rng = np.random.default_rng(17)
        layout = pbt_layout(3, 2)
        outcomes = {}
        for I in enumerate_unordered(3, 2):
            g = rng.normal(size=(layout.dim,) * 2) + 1j * rng.normal(size=(layout.dim,) * 2)
            outcomes[I] = LabeledOperator(layout, g @ g.conj().T / layout.dim**2)
        return Povm(outcomes=outcomes, layout=layout)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_draw_reads_the_per_sample_stream(self, seed):
        # all samples come from one generator call; each sample must still get
        # the d real and then the d imaginary parts a per-sample loop draws
        povm = self._non_covariant_family()
        est, se = haar_average_check(povm, 1, samples=40, seed=seed, N=3, d=2)
        ref_est, ref_se = self._per_sample(povm, 1, 40, seed, 3, 2)
        assert se > 1e-4
        assert abs(est - ref_est) <= 1e-14
        assert abs(se - ref_se) <= 1e-14

    def test_matrix_units_match_on_non_covariant_family(self):
        povm = self._non_covariant_family()
        for clone_slot in (1, 2):
            est, se = haar_average_check(povm, clone_slot, samples=200, seed=3, N=3, d=2)
            ref_est, ref_se = self._per_sample(povm, clone_slot, 200, 3, 3, 2)
            assert se > 1e-4
            assert abs(est - ref_est) <= 1e-12
            assert abs(se - ref_se) <= 1e-12
