from fractions import Fraction

import pytest

from portclone import verification
from portclone.states import input_label, pbt_layout, pbtc_signal, pbtc_signal_entries
from portclone.symmetry import enumerate_unordered
from portclone.tensor_core import (
    LabeledOperator,
    support_rank_blocks,
    weight_sectors,
)
from portclone.verification import (
    combinatorial_disjoint_overlap,
    cycle_sum_by_enumeration,
    cycle_sum_by_stirling,
    dense_overlap,
    eta_bar_purity,
    purity_upper_bound,
    run_suite,
    suite_passed,
)
from portclone.symmetry import PortSet


class TestCycleSums:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_routes_agree(self, d, M):
        assert cycle_sum_by_enumeration(d, M) == cycle_sum_by_stirling(d, M)

    def test_known_value(self):
        # S_2 with d=2: d^2 + d = 6 per factor, squared
        assert cycle_sum_by_enumeration(2, 2) == 36


class TestDisjointOverlap:
    @pytest.mark.parametrize("d,M,N", [(2, 1, 2), (2, 2, 4), (2, 2, 5), (3, 2, 4)])
    def test_equals_inverse_power(self, d, M, N):
        val = combinatorial_disjoint_overlap(d, M, N)
        assert val == float(Fraction(1, d ** (N + 1)))

    def test_dense_agrees(self):
        d, M, N = 2, 2, 4
        dense = dense_overlap(
            PortSet((1, 2), N), PortSet((3, 4), N), N, d
        )
        assert abs(dense - combinatorial_disjoint_overlap(d, M, N)) < 1e-12

    def test_no_disjoint_pair_rejected(self):
        with pytest.raises(ValueError):
            combinatorial_disjoint_overlap(2, 2, 3)


class TestPurity:
    def test_self_overlap_below_bound(self):
        d, N, M = 2, 4, 2
        bound = purity_upper_bound(N, M, d)
        for elems in ((1, 2), (2, 4)):
            assert dense_overlap(PortSet(elems, N), PortSet(elems, N), N, d) <= bound + 1e-12

    def test_average_purity_approaches_mixed(self):
        # d^(N+1) Tr[eta_bar^2] -> 1 from above as N grows
        d, M = 2, 2
        excesses = [
            abs(d ** (N + 1) * eta_bar_purity(N, M, d) - 1.0) for N in (2, 3, 4)
        ]
        assert excesses == sorted(excesses, reverse=True)
        assert excesses[-1] > 0


class TestRankCheck:
    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (2, 5, 3), (3, 3, 2)])
    def test_sector_rank_equals_dense_rank(self, d, N, M):
        # check d ranks each signal block by block; the dense rank must agree
        sectors = weight_sectors(pbt_layout(N, d), [input_label()])
        for I in enumerate_unordered(N, M):
            blocks = [pbtc_signal_entries(I, N, d, idx) for idx in sectors]
            dense = support_rank_blocks([pbtc_signal(I, N, d).entries])
            assert support_rank_blocks(blocks) == dense


class TestSuite:
    def test_all_pass_at_reference_point(self):
        results = run_suite(2, 3, 2)
        assert suite_passed(results, include_trends=True)

    def test_deterministic_ordering(self):
        a = [r.name for r in run_suite(2, 3, 2)]
        b = [r.name for r in run_suite(2, 3, 2)]
        assert a == b == sorted(a)

    def test_expected_check_names(self):
        names = {r.name for r in run_suite(2, 3, 2)}
        assert {
            "a-subgroup-conjugation",
            "b-projector-conjugation",
            "c-pgm-support-invariance",
            "c2-pgm-completeness",
            "d-rank-formula",
            "h-disjoint-overlap-value",
            "k-stirling-row-identity",
        } <= names

    def test_injected_fault_detected(self):
        results = run_suite(2, 3, 2, inject_fault=True)
        failing = {r.name for r in results if not r.passed}
        assert failing == {"c-pgm-support-invariance", "c2-pgm-completeness"}
        assert not suite_passed(results)

    def test_disjoint_check_skipped_when_impossible(self):
        results = run_suite(2, 3, 2)
        h = next(r for r in results if r.name == "h-disjoint-overlap-value")
        assert h.passed and h.notes.startswith("skipped")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            run_suite(2, 2, 3)

    def test_json_shape(self):
        doc = run_suite(2, 3, 2)[0].to_json_dict()
        for key in ("name", "params", "deviation", "threshold", "pass", "notes"):
            assert key in doc


class TestConjugationChecksDetectFaults:
    """Checks a and b at a point where S_N is not tiny: a corrupted input
    must fail them, so neither can be comparing an array with itself."""

    d, N, M = 2, 4, 2
    target = PortSet((1, 3), 4)

    def _results(self):
        return {r.name: r for r in run_suite(self.d, self.N, self.M)}

    def test_clean_point_passes(self):
        results = self._results()
        assert results["a-subgroup-conjugation"].deviation == 0
        assert results["b-projector-conjugation"].deviation == 0

    def test_moved_projector_entry_fails_check_b(self, monkeypatch):
        original = verification.symmetric_projector

        def moved(I, d, layout):
            pi = original(I, d, layout)
            if I != self.target:
                return pi
            entries = pi.entries.copy()
            entries[1, 2] += 1e-8
            return LabeledOperator(layout, entries)

        monkeypatch.setattr(verification, "symmetric_projector", moved)
        b = self._results()["b-projector-conjugation"]
        assert not b.passed
        assert b.deviation == pytest.approx(1e-8, rel=1e-6)

    def test_dropped_subgroup_member_fails_check_a(self, monkeypatch):
        original = verification.subgroup_fixing_complement

        def dropped(I):
            members = original(I)
            return members[1:] if I == self.target else members

        monkeypatch.setattr(verification, "subgroup_fixing_complement", dropped)
        a = self._results()["a-subgroup-conjugation"]
        assert not a.passed
        assert a.deviation >= 1
