import itertools
import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest

from portclone import cloning, symmetry, tensor_core, verification
from portclone.measurements import complete, pgm
from portclone.states import (
    ensemble_average,
    max_entangled,
    maximally_mixed,
    pbt_layout,
    pbtc_ensemble,
    pbtc_signal,
    pbtc_signal_entries,
)
from portclone.symmetry import (
    enumerate_unordered,
    port_label,
    port_type_classes,
    slot_gathers,
    subgroup_fixing_complement,
    sym_dim,
    symmetric_projector,
)
from portclone.tensor_core import (
    BlockGroup,
    SubsystemLayout,
    kron_compose,
    sector_sizes,
    support_spectra,
    trace_product,
    weight_sectors,
)
from portclone.verification import (
    combinatorial_disjoint_overlap,
    cycle_sum_by_enumeration,
    cycle_sum_by_stirling,
    eta_bar_purity,
    purity_upper_bound,
    run_suite,
    suite_passed,
)


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
        dense = trace_product(
            pbtc_signal((1, 2), N, d).entries,
            pbtc_signal((3, 4), N, d).entries,
        )
        assert abs(dense - combinatorial_disjoint_overlap(d, M, N)) < 1e-12

    def test_no_disjoint_pair_rejected(self):
        with pytest.raises(ValueError):
            combinatorial_disjoint_overlap(2, 2, 3)

    def test_routes_that_disagree_are_refused(self, monkeypatch):
        # the Stirling route off by one count: no overlap is returned
        stirling = verification.cycle_sum_by_stirling
        monkeypatch.setattr(verification, "cycle_sum_by_stirling", lambda d, M: stirling(d, M) + 1)
        with pytest.raises(ArithmeticError, match="cycle-sum mismatch"):
            combinatorial_disjoint_overlap(2, 2, 4)


class TestPurity:
    def test_self_overlap_below_bound(self):
        d, N, M = 2, 4, 2
        bound = purity_upper_bound(N, M, d)
        for elems in ((1, 2), (2, 4)):
            signal = pbtc_signal(elems, N, d).entries
            assert trace_product(signal, signal) <= bound + 1e-12

    def test_average_purity_approaches_mixed(self):
        # d^(N+1) Tr[eta_bar^2] -> 1 from above as N grows
        d, M = 2, 2
        excesses = [
            abs(d ** (N + 1) * eta_bar_purity(N, M, d) - 1.0) for N in (2, 3, 4)
        ]
        assert excesses == sorted(excesses, reverse=True)
        assert excesses[-1] > 0


def kept_rank(blocks):
    """Eigenvalues kept as the support of the block-diagonal operator `blocks`."""
    return sum(int(np.count_nonzero(keep)) for _, _, keep in support_spectra(blocks))


def sandwiched_signal(I, N, d):
    """Independent dense eta_I: (d^M / d[M]) Pi_I (Phi+ on (X, A_i1) (x)
    maximally mixed) Pi_I, from tensor products and the dense projector."""
    layout = pbt_layout(N, d)
    factors = [max_entangled(d, "X", port_label(I[0]))]
    rest = [port_label(j) for j in range(1, N + 1) if j != I[0]]
    factors.append(maximally_mixed(rest, d))
    rho = kron_compose(factors).permute_subsystems(layout.labels).entries
    pi = symmetric_projector(I, layout).entries
    return d ** len(I) / sym_dim(d, len(I)) * pi @ rho @ pi


class TestRankCheck:
    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (2, 5, 3), (3, 3, 2)])
    def test_sector_rank_equals_dense_rank(self, d, N, M):
        # check d ranks each signal block by block; the dense rank must agree,
        # and each block must be the slice of a signal built without the
        # scatter, which a wrong position table would permute
        _, sectors = weight_sectors((d,) * (N + 1), 1)
        for I in enumerate_unordered(N, M):
            full = pbtc_signal_entries([I], N, d)
            reference = sandwiched_signal(I, N, d)
            blocks = [full[np.ix_(idx, idx)] for idx in sectors]
            for idx, block in zip(sectors, blocks):
                assert np.abs(block - reference[np.ix_(idx, idx)]).max() <= 1e-15
            dense = kept_rank([pbtc_signal(I, N, d).entries])
            assert kept_rank(blocks) == dense == kept_rank([reference])

    def test_non_psd_signal_refused(self):
        # a rank is only counted on the support of a PSD operator: a signal
        # with a negative eigenvalue is refused, not ranked by |eigenvalue|
        d, N, M = 2, 3, 2
        group, stacks, average = verification._signal_sectors(N, M, d)
        stacks = [stack.copy() for stack in stacks]
        for stack in stacks:
            stack[0] += -0.01 * np.eye(stack.shape[-1])
        with pytest.raises(ValueError, match="operator is not PSD"):
            verification._check_rank_formula(d, N, M, lambda: (group, stacks, average))


def scattered(group, blocks):
    """The dense operator whose diagonal blocks on `group` are `blocks`."""
    dense = np.zeros((len(group.idx),) * 2, dtype=np.result_type(*blocks))
    for idx, block in zip(np.split(group.idx, group.starts[1:-1]), blocks):
        dense[np.ix_(idx, idx)] = block
    return dense


class TestSectorStacks:
    """The suite's shared objects, built on the weight sectors, against the
    dense ensemble, PGM and completion they replace."""

    @pytest.mark.parametrize("d,N,M", [(2, 3, 2), (2, 4, 2), (2, 5, 3), (3, 3, 2)])
    def test_pgm_and_completion_equal_the_dense_povm(self, d, N, M):
        group, stacks, average = verification._signal_sectors(N, M, d)
        elements, _, deltas = verification._sector_pgm(stacks, average, None, False)
        dense = complete(pgm(pbtc_ensemble(N, M, d)))
        assert list(dense.outcomes) == enumerate_unordered(N, M)
        for k, element in enumerate(dense.outcomes.values()):
            blocks = [stack[k] + delta for stack, delta in zip(elements, deltas)]
            assert np.abs(scattered(group, blocks) - element.entries).max() <= 1e-12
        completion = scattered(group, deltas) - dense.completion_element.entries
        assert np.abs(completion).max() <= 1e-12

    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (2, 5, 3), (3, 3, 2)])
    def test_overlaps_and_purity_equal_the_dense_traces(self, d, N, M):
        _, stacks, average = verification._signal_sectors(N, M, d)
        outcomes = enumerate_unordered(N, M)
        ensemble = pbtc_ensemble(N, M, d)
        overlaps = verification._sector_overlaps(stacks, outcomes)
        assert list(overlaps) == list(itertools.combinations_with_replacement(outcomes, 2))
        for (I, J), overlap in overlaps.items():
            dense = trace_product(ensemble[I].entries, ensemble[J].entries)
            assert abs(overlap - dense) <= 1e-15
        eta_bar = ensemble_average(ensemble).entries
        assert abs(eta_bar_purity(N, M, d) - trace_product(eta_bar, eta_bar)) <= 1e-15

    def test_stacks_filled_one_outcome_at_a_time(self):
        # at (2, 8, 2) the stacks of the 28 signals take 10.9 MB; copying a
        # list of every outcome's blocks into them peaked at about 2.4 times that
        tracemalloc.start()
        try:
            _, stacks, _ = verification._signal_sectors(8, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(stack.nbytes for stack in stacks)

    def test_signal_leaving_its_sector_refused_at_build(self, monkeypatch):
        # on the sectors of [X, A1..AN] without X conjugated, Phi+ on (X, A_i)
        # joins |00> to |11>, whose weights differ: the build must raise
        monkeypatch.setattr(verification, "weight_sectors", lambda dims, _: weight_sectors(dims, 0))
        with pytest.raises(ValueError, match="not closed under the basis map"):
            verification._signal_sectors(3, 2, 2)

    @pytest.mark.parametrize("fault", ["not Hermitian", "exceeds identity"])
    def test_refused_completion_fails_c2_as_a_record(self, monkeypatch, fault):
        # an element sum that the completion refuses makes c2 infinite, as the
        # dense `complete` refused it, and the suite still returns every record
        build = verification.square_root_blocks

        def broken(stacks, roots):
            elements = build(stacks, roots)
            widest = max(elements, key=lambda stack: stack.shape[-1])
            if fault == "not Hermitian":
                widest[0, 0, -1] += 1e-3
            else:
                widest[0] += 0.5 * np.eye(widest.shape[-1])
            return elements

        monkeypatch.setattr(verification, "square_root_blocks", broken)
        results = {r.name: r for r in run_suite(2, 4, 2)}
        c2 = results["c2-pgm-completeness"]
        assert c2.deviation == np.inf and not c2.passed
        assert len(results) == 13 and results["d-rank-formula"].passed

    def test_nan_in_an_element_fails_check_c(self, monkeypatch):
        # Pi_I E_I Pi_I - E_I is NaN where the element is: the check must
        # fail, where a running max(worst, x) kept worst and passed
        build = verification.square_root_blocks

        def broken(stacks, roots):
            elements = build(stacks, roots)
            max(elements, key=lambda stack: stack.shape[-1])[0, 0, 0] = np.nan
            return elements

        monkeypatch.setattr(verification, "square_root_blocks", broken)
        c = {r.name: r for r in run_suite(2, 4, 2)}["c-pgm-support-invariance"]
        assert np.isnan(c.deviation) and not c.passed

    def test_gathers_hold_one_outcome_table_at_a_time(self):
        # at (2, 7, 5) one outcome's basis-map digits, 5! maps of 8 slots over
        # 256 indices, take about 1.9 MiB, so each batch holds one outcome;
        # the gathers of all 21 outcomes at once peaked at about 8 times that
        d, N, M = 2, 7, 5
        group = BlockGroup(weight_sectors((d,) * (N + 1), 1)[1], (d,) * (N + 1))
        outcomes = enumerate_unordered(N, M)
        counted = 8 * factorial(M) * (N + 1) * d ** (N + 1)
        tracemalloc.start()
        try:
            sizes = [len(outcomes[batch]) for batch, _ in slot_gathers(group, outcomes)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [1] * len(outcomes)
        assert peak < 2 * counted

    def test_projector_check_holds_its_stack_about_once(self):
        # at (2, 8, 2) a stack of 28 projectors of 256^2 entries takes
        # 14.7 MB; a list of them copied into one array peaked at twice that,
        # and check b holds only their nonzeros
        d, N, M = 2, 8, 2
        outcomes = enumerate_unordered(N, M)
        stack_bytes = 8 * comb(N, M) * (d**N) ** 2
        tracemalloc.start()
        try:
            deviation, threshold, _ = verification._check_projector_conjugation(
                d, N, lambda: outcomes
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation <= threshold
        assert peak < 1.5 * stack_bytes

    def test_projector_check_holds_no_dense_stack(self):
        # at (2, 9, 2) the stack of 36 projectors of 512^2 entries takes
        # 75 MB, and building it peaked at 82 MiB; the counted nonzeros of
        # check b, 36 x 1024 of them, peak at about 5.5 MiB
        outcomes = enumerate_unordered(9, 2)
        tracemalloc.start()
        try:
            deviation, threshold, _ = verification._check_projector_conjugation(
                2, 9, lambda: outcomes
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation == 0 and threshold == verification.FLOAT_TOL
        assert peak < 16 * 2**20

    # each refusal in the order of check b: the family of C(N, M) projectors,
    # then the slot table inside `slot_gathers`, with the S_N table first of all
    @pytest.mark.parametrize("d,N,M,note", [
        (2, 10, 3, "family of 120 operators of dimension 1024"),
        (2, 8, 8, "basis-map table of 40320 slot permutations"),
        (2, 11, 1, "table of the 39916800 permutations of 11 ports"),
    ])
    def test_projector_check_refused_before_it_allocates(self, d, N, M, note):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(tensor_core.DimensionCapError, match=note):
                verification._check_projector_conjugation(
                    d, N, lambda: enumerate_unordered(N, M)
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and time.perf_counter() - start < 0.05


class TestSuite:
    def test_all_pass_at_reference_point(self):
        results = run_suite(2, 3, 2)
        assert all(r.passed for r in results)

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

    def test_capped_checks_keep_their_names(self, monkeypatch):
        full = [r.name for r in run_suite(2, 4, 2)]
        monkeypatch.setattr(tensor_core, "DIM_CAP", 16)
        capped = run_suite(2, 4, 2)
        assert [r.name for r in capped] == full == sorted(full)
        # all but a and k: check b's family of 6 projectors of 16 x 16 holds
        # more entries than one 16 x 16 matrix
        refused = [r for r in capped if "exceeds cap" in r.notes]
        assert [r.name[0] for r in capped if r not in refused] == ["a", "k"]
        assert all(r.passed and r.notes.startswith("skipped") for r in refused)

    def test_sigma_images_built_per_batch(self, monkeypatch):
        # check a lists S_N in batches; check b lists no sigma at all
        d, N, M = 2, 6, 2
        outcomes = enumerate_unordered(N, M)
        args = (N, lambda: outcomes, verification.subgroup_fixing_complement)
        whole = verification._check_subgroup_conjugation(*args)
        seen = []
        permuted = verification._permuted_outcomes

        def spy(*args):
            for sigmas, image in permuted(*args):
                seen.append(len(sigmas))
                yield sigmas, image

        monkeypatch.setattr(verification, "_permuted_outcomes", spy)
        monkeypatch.setattr(
            verification, "batches", lambda n, _: [slice(i, i + 7) for i in range(0, n, 7)]
        )
        assert verification._check_subgroup_conjugation(*args) == whole
        assert max(seen) == 7 and sum(seen) == factorial(N)
        verification._check_projector_conjugation(d, N, lambda: outcomes)
        assert sum(seen) == factorial(N)

    def test_permutation_table_is_compact(self):
        # S_9 as one byte per image; as a list of tuples the table peaked at
        # about 78 MB before the first batch
        N = 9
        outcomes = enumerate_unordered(N, 2)
        tracemalloc.start()
        try:
            sigmas, image = next(verification._permuted_outcomes(N, outcomes, 2**10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert sigmas.dtype == np.intp and len(sigmas) == 2**10
        expected = list(itertools.islice(itertools.permutations(range(N)), len(sigmas)))
        assert sigmas.tolist() == [list(s) for s in expected]
        # ports 8 and 9 in the bit masks of sigma(I), where a uint8 shift would wrap
        assert image.tolist() == [
            [outcomes.index(sigma_image(s, I)) for I in outcomes] for s in sigmas
        ]

    def test_commutation_check_sees_a_broken_average(self):
        # entries (1, 2) and (2, 1) of the (2, 3, 2) average, both in the
        # sector of weight (1, 1), raised by 1e-3: Pi_I eta_bar and
        # eta_bar Pi_I then differ by 5e-4, as the column-gather reference says
        group, _, eta_bar = verification._signal_sectors(3, 2, 2)
        outcomes = enumerate_unordered(3, 2)
        b = group.basis_block[1]
        assert group.basis_block[2] == b
        broken = [block.copy() for block in eta_bar]
        (r, c) = group.basis_pos[[1, 2]]
        broken[b][r, c] += 1e-3
        broken[b][c, r] += 1e-3
        gathers = lambda: slot_gathers(group, outcomes)
        clean, threshold, _ = verification._check_commutation(lambda: eta_bar, gathers)
        deviation, _, _ = verification._check_commutation(lambda: broken, gathers)
        reference = column_gather_commutation(scattered(group, broken), 3, outcomes)
        assert clean <= threshold < deviation
        assert deviation == pytest.approx(reference, rel=1e-9)

    def test_commutation_check_equals_column_gather_reference(self):
        # eta_bar Pi_I as the mean of the column gathers eta_bar[:, g], on a
        # real average and on a complex non-Hermitian operator, block by block
        N, outcomes = 3, enumerate_unordered(3, 2)
        group, _, eta_bar = verification._signal_sectors(N, 2, 2)
        gathers = lambda: slot_gathers(group, outcomes)
        rng = np.random.default_rng(4)
        noisy = [a + 1e-3 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
                 for a in eta_bar]
        for blocks in (eta_bar, noisy):
            reference = column_gather_commutation(scattered(group, blocks), N, outcomes)
            check = verification._check_commutation(lambda: blocks, gathers)
            assert check[0] == reference

    def test_nan_fails_the_commutation_and_cauchy_schwarz_checks(self):
        group, _, eta_bar = verification._signal_sectors(3, 2, 2)
        outcomes = enumerate_unordered(3, 2)
        broken = [block.copy() for block in eta_bar]
        broken[-1][0, 0] = np.nan
        gathers = lambda: slot_gathers(group, outcomes)
        c3 = verification._check_commutation(lambda: broken, gathers)[0]
        overlaps = verification._sector_overlaps(verification._signal_sectors(3, 2, 2)[1], outcomes)
        overlaps[outcomes[0], outcomes[1]] = np.nan
        f = verification._check_cauchy_schwarz(lambda: overlaps)[0]
        assert np.isnan(c3) and np.isnan(f)

    def test_disjoint_check_skipped_when_impossible(self):
        results = run_suite(2, 3, 2)
        h = next(r for r in results if r.name == "h-disjoint-overlap-value")
        assert h.passed and h.notes.startswith("skipped")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            run_suite(2, 2, 3)

    def test_bad_dimension_rejected_before_any_check(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("check a ran before d was validated")

        monkeypatch.setattr(verification, "_check_subgroup_conjugation", must_not_run)
        with pytest.raises(ValueError, match="local dimensions must be >= 2"):
            run_suite(1, 8, 2)

    @pytest.mark.parametrize("fault", [False, True])
    def test_shared_objects_built_once(self, monkeypatch, fault):
        # one set of sector stacks, at N (PGM, overlaps), and one average at N
        # and at N - 1 (check i builds no stacks); no dense projector: check b
        # counts the nonzeros of Pi_I on [A1..A4] from one pass of gathers,
        # and checks c and c3 and the injected fault apply Pi_I by sector gathers
        sectors, averages, passes = [], [], []
        build_sectors = verification._signal_sectors
        build_average = verification._average_sectors
        build_gathers = verification.slot_gathers

        def counted_sectors(N, M, d):
            sectors.append(N)
            return build_sectors(N, M, d)

        def counted_average(N, M, d):
            averages.append(N)
            return build_average(N, M, d)

        def counted_gathers(group, sets):
            passes.append(len(group.dims))
            return build_gathers(group, sets)

        def dense(*args):
            raise AssertionError("the suite formed a dense projector")

        # the average at N decomposed once, all sectors in one call, for the
        # PGM and check c2
        decompositions = []
        decompose = verification.psd_inv_sqrt_blocks

        def counted_decomposition(blocks):
            decompositions.append(len(blocks))
            return decompose(blocks)

        monkeypatch.setattr(verification, "_signal_sectors", counted_sectors)
        monkeypatch.setattr(verification, "_average_sectors", counted_average)
        monkeypatch.setattr(verification, "slot_gathers", counted_gathers)
        for module, name in [(symmetry, "symmetric_projector"), (symmetry, "symmetrize_slots"),
                             (cloning, "symmetrize_slots")]:
            monkeypatch.setattr(module, name, dense)
        monkeypatch.setattr(verification, "psd_inv_sqrt_blocks", counted_decomposition)
        results = run_suite(2, 4, 2, inject_fault=fault)
        assert suite_passed(results) != fault
        assert sectors == [4] and averages == [4, 3]
        # the one pass on the 4 slots [A1..A4] is check b's; the others are on [X, A1..A4]
        assert passes.count(4) == 1 and set(passes) == {4, 5}
        assert not hasattr(verification, "symmetric_projector")
        assert decompositions == [len(sector_sizes((2,) * 5, 1))]

    def test_broken_stirling_row_fails_h_and_k_as_records(self, monkeypatch):
        # the Stirling route of check h and the row identity of check k read
        # the same numbers; off by one, both fail, and the suite still returns
        original = verification.stirling_first
        monkeypatch.setattr(verification, "stirling_first", lambda n, k: original(n, k) + 1)
        results = run_suite(2, 4, 2)
        assert len(results) == 13
        assert {r.name for r in results if not r.passed} == {
            "h-disjoint-overlap-value", "k-stirling-row-identity",
        }
        assert not suite_passed(results)

    @pytest.mark.parametrize("N,M", [(11, 2), (11, 1), (12, 6)])
    def test_far_point_skips_dense_checks_by_name(self, N, M):
        # from N=11 the ensemble at N and the table of S_N exceed the cap:
        # each check but k is skipped under its own name, before it allocates
        # (at M=1 check b's projectors and check i's ensemble at N - 1 would
        # fit, and at M=6 check a's 924 subgroups, so each check must refuse
        # by its other build first)
        tracemalloc.start()
        try:
            results = run_suite(2, N, M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        skipped = [r.name for r in results if "exceeds cap" in r.notes]
        assert [r.name for r in results if r.name not in skipped] == ["k-stirling-row-identity"]
        assert all(r.passed for r in results) and peak < 2**20

    def test_json_shape(self):
        doc = run_suite(2, 3, 2)[0].to_json_dict()
        for key in ("name", "params", "deviation", "threshold", "pass", "notes"):
            assert key in doc


class TestConjugationChecksDetectFaults:
    """Checks a and b at a point where S_N is not tiny: a corrupted input
    must fail them, so neither can be comparing an array with itself."""

    d, N, M = 2, 4, 2
    target = (1, 3)

    def _results(self):
        return {r.name: r for r in run_suite(self.d, self.N, self.M)}

    def test_clean_point_passes(self):
        results = self._results()
        assert results["a-subgroup-conjugation"].deviation == 0
        assert results["b-projector-conjugation"].deviation == 0

    def test_moved_projector_entry_fails_check_b(self, monkeypatch):
        def moved(stack, outcomes):
            stack[outcomes.index(self.target), 1, 2] += 1e-8
            return stack

        route_check_b(monkeypatch, moved)
        b = self._results()["b-projector-conjugation"]
        assert not b.passed
        assert b.deviation == pytest.approx(1e-8, rel=1e-6)

    def test_vanished_projector_entry_fails_check_b(self, monkeypatch):
        # the other direction: a nonzero entry of Pi_I set to 0, which the
        # comparison over nonzero entries must still see
        vanished = []

        def zeroed(stack, outcomes):
            entries = stack[outcomes.index(self.target)]
            r, c = np.argwhere((entries != 0) & ~np.eye(len(entries), dtype=bool))[0]
            vanished.append(entries[r, c])
            entries[r, c] = 0
            return stack

        route_check_b(monkeypatch, zeroed)
        b = self._results()["b-projector-conjugation"]
        assert not b.passed
        assert vanished and b.deviation == abs(vanished[0]) > 0

    def test_dropped_subgroup_member_fails_check_a(self, monkeypatch):
        # check a is handed the subgroups it certifies; the Pi_I gathers of
        # checks c and c3 build theirs apart from it
        original = verification.subgroup_fixing_complement
        check_a = verification._check_subgroup_conjugation

        def dropped(I, N):
            members = original(I, N)
            return members[1:] if I == self.target else members

        monkeypatch.setattr(
            verification, "_check_subgroup_conjugation", lambda N, get, _: check_a(N, get, dropped)
        )
        a = self._results()["a-subgroup-conjugation"]
        assert not a.passed
        assert a.deviation >= 1


def basis_map(s, dims):
    """Where each basis index goes when slot j takes digit s[j] of it, for one
    permutation s or a stack of them, by `ravel_multi_index`."""
    digits = np.array(np.unravel_index(np.arange(prod(dims)), dims))
    return np.ravel_multi_index(tuple(digits[np.asarray(s).T]), dims)


def column_gather_commutation(a, N, outcomes):
    """Check c3 on the dense operator `a` on [X, A1..AN]: Pi_I a against
    a Pi_I, the mean of the column gathers a[:, g], for every outcome I."""
    worst = 0.0
    for I in outcomes:
        members = [[0, *(s + 1)] for s in subgroup_fixing_complement(I, N)]
        gathers = basis_map(members, (2,) * (N + 1))
        left = sum(a[g] for g in gathers) / len(gathers)
        right = sum(a[:, g] for g in gathers) / len(gathers)
        worst = max(worst, np.abs(left - right).max())
    return worst


def sigma_image(s, I):
    """The outcome sigma(I) for the 0-based images s."""
    return tuple(sorted(int(s[i - 1]) + 1 for i in I))


def reference_check_a(N, outcomes, subgroup_of):
    """Check a as the loop over sigma and outcome that the batched check
    replaced: conjugated subgroups compared as Python sets of image tuples."""
    subgroups = {I: subgroup_of(I, N) for I in outcomes}
    expected = {I: set(map(tuple, g.tolist())) for I, g in subgroups.items()}
    worst = 0
    for images in itertools.permutations(range(N)):
        s = np.array(images)
        s_inv = np.argsort(s)
        for I, g in subgroups.items():
            conjugated = set(map(tuple, s[g[:, s_inv]].tolist()))
            worst = max(worst, len(conjugated ^ expected[sigma_image(s, I)]))
    return worst


def dense_stack(nonzeros, count, dim):
    """The (count, dim, dim) stack whose nonzeros are (k, r, c, values)."""
    k, r, c, values = nonzeros
    stack = np.zeros((count, dim, dim), dtype=values.dtype)
    stack[k, r, c] = values
    return stack


def stack_nonzeros(stack):
    """The nonzeros (k, r, c, values) of `stack`, in the order of np.nonzero."""
    k, r, c = np.nonzero(stack)
    return k, r, c, stack[k, r, c]


def route_check_b(monkeypatch, edit=None):
    """The list of the nonzeros (k, r, c, values) that check b hands to
    `port_type_classes`, each recorded as the classes receive it. Given
    `edit(stack, outcomes)`, the nonzeros pass through their dense stack,
    which `edit` corrupts and returns, on the way."""
    received = []
    classes = verification.port_type_classes

    def routed(nonzeros, outcomes, group):
        if edit is not None:
            stack = dense_stack(nonzeros, len(outcomes), len(group.idx))
            nonzeros = stack_nonzeros(edit(stack, outcomes))
        received.append(nonzeros)
        return classes(nonzeros, outcomes, group)

    monkeypatch.setattr(verification, "port_type_classes", routed)
    return received


def reference_check_b(d, N, outcomes, nonzeros):
    """Check b as the loop over sigma and outcome that the batched check
    replaced, on the dense stack of `nonzeros`: every entry of the gathered
    projector against Pi_sigma(I)."""
    dims = (d,) * N
    projectors = dict(zip(outcomes, dense_stack(nonzeros, len(outcomes), d**N)))
    worst = 0.0
    for images in itertools.permutations(range(N)):
        s = np.array(images)
        g = basis_map(s, dims)
        for I, pi in projectors.items():
            worst = max(worst, np.abs(pi[np.ix_(g, g)] - projectors[sigma_image(s, I)]).max())
    return worst


REFERENCE_POINTS = [(2, 5, 2), (3, 3, 2), (2, 5, 3), (2, 4, 4)]
FAULTS = ["clean", "added-entry", "vanished-entry", "subgroup"]


class TestBatchedConjugationChecks:
    """Checks a and b gather over batches of sigma; the per-sigma loops they
    replaced are the reference, and the deviations must be equal exactly."""

    @staticmethod
    def corrupt(monkeypatch, fault, target):
        """Apply `fault` to the outcome `target`; returns the list of the
        nonzeros check b's classes receive."""
        build_subgroup = verification.subgroup_fixing_complement

        def projector(stack, outcomes):
            # complex, so that the injected imaginary entry fits; Pi_I is real
            stack = stack.astype(complex)
            entries = stack[outcomes.index(target)]
            if fault == "added-entry":
                # imaginary, where Pi_I is 0
                r, c = np.argwhere(entries == 0)[0]
                entries[r, c] = 3e-9j
            else:
                # an off-diagonal entry: some transposition in I moves it
                r, c = np.argwhere((entries != 0) & ~np.eye(len(entries), dtype=bool))[0]
                entries[r, c] = 0
            return stack

        def subgroup(I, N):
            members = build_subgroup(I, N)
            if I != target:
                return members
            # the identity listed twice, and a member that is not central dropped
            return np.concatenate([members[:1], members[:1], members[2:]])

        if fault == "subgroup":
            monkeypatch.setattr(verification, "subgroup_fixing_complement", subgroup)
        return route_check_b(monkeypatch, projector if fault.endswith("entry") else None)

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("d,N,M", REFERENCE_POINTS)
    def test_deviations_equal_the_loop_reference(self, monkeypatch, d, N, M, fault):
        outcomes = enumerate_unordered(N, M)
        received = self.corrupt(monkeypatch, fault, outcomes[-1])
        get_outcomes = lambda: outcomes
        a_deviation, a_threshold, _ = verification._check_subgroup_conjugation(
            N, get_outcomes, verification.subgroup_fixing_complement
        )
        b_deviation, b_threshold, _ = verification._check_projector_conjugation(d, N, get_outcomes)
        assert a_deviation == reference_check_a(N, outcomes, verification.subgroup_fixing_complement)
        assert b_deviation == reference_check_b(d, N, outcomes, *received)
        assert (a_deviation <= a_threshold) == (fault != "subgroup")
        assert (b_deviation <= b_threshold) == (fault in ("clean", "subgroup"))

    def test_partial_last_batch(self, monkeypatch):
        # check a splits S_N into batches whose last one is shorter, and the
        # deviation still equals the reference
        N, M = 6, 3
        batches = []
        split = verification.batches

        def recorded(n, bytes_per_item):
            slices = split(n, bytes_per_item)
            batches.append([len(range(n)[b]) for b in slices])
            return slices

        monkeypatch.setattr(verification, "batches", recorded)
        outcomes = enumerate_unordered(N, M)
        self.corrupt(monkeypatch, "subgroup", outcomes[-1])
        deviation, threshold, _ = verification._check_subgroup_conjugation(
            N, lambda: outcomes, verification.subgroup_fixing_complement
        )
        reference = reference_check_a(N, outcomes, verification.subgroup_fixing_complement)
        assert deviation == reference and deviation > threshold
        [sizes] = batches
        assert sum(sizes) == factorial(N) and len(sizes) > 1 and sizes[-1] < sizes[0]

    @pytest.mark.parametrize(
        "d,N,M,fault", [(2, 6, 2, "clean"), (2, 6, 2, "vanished-entry"), (3, 4, 2, "clean")]
    )
    def test_class_route_equals_the_loop_reference(self, monkeypatch, d, N, M, fault):
        # check b compares values within the port-type classes, not per sigma
        outcomes = enumerate_unordered(N, M)
        received = self.corrupt(monkeypatch, fault, outcomes[-1])
        deviation, threshold, _ = verification._check_projector_conjugation(
            d, N, lambda: outcomes
        )
        assert deviation == reference_check_b(d, N, outcomes, *received)
        assert (deviation <= threshold) == (fault == "clean")

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (3, 3, 2), (2, 5, 3)])
    def test_noisy_classes_equal_the_loop_reference(self, monkeypatch, d, N, M, dtype):
        # every nonzero of every Pi_I moved by its own noise, so each class
        # holds as many distinct values as nonzeros: all their pairs count
        rng = np.random.default_rng(7)

        def noisy(stack, outcomes):
            stack = stack.astype(dtype)
            nonzero = stack != 0
            noise = rng.normal(size=(2, nonzero.sum())) * 1e-9
            stack[nonzero] += noise[0] + (1j * noise[1] if dtype is complex else 0)
            return stack

        received = route_check_b(monkeypatch, noisy)
        outcomes = enumerate_unordered(N, M)
        deviation, threshold, _ = verification._check_projector_conjugation(
            d, N, lambda: outcomes
        )
        assert deviation == reference_check_b(d, N, outcomes, *received)
        assert threshold < deviation < 1e-7

    @pytest.mark.parametrize("d,N,M", [(2, 4, 2), (3, 3, 2), (2, 5, 3), (2, 4, 4)])
    def test_class_sizes_partition_the_entries(self, d, N, M):
        # on a stack with no zero, every entry is in one class, each class is
        # full, and the classes are the orbits of S_N found by moving every
        # entry (I, r, c) to (sigma(I), g^-1 r, g^-1 c) for every sigma
        outcomes = enumerate_unordered(N, M)
        D = d**N
        stack = np.arange(1, len(outcomes) * D * D + 1, dtype=float).reshape(-1, D, D)
        group = BlockGroup([np.arange(D)], (d,) * N)
        values, classes, sizes = port_type_classes(stack_nonzeros(stack), outcomes, group)
        assert sizes.sum() == len(outcomes) * D * D
        assert np.bincount(classes).tolist() == sizes.tolist()
        orbit = np.arange(stack.size)
        for images in itertools.permutations(range(N)):
            s = np.array(images)
            g_inv = basis_map(np.argsort(s), (d,) * N)
            image = [outcomes.index(sigma_image(s, I)) for I in outcomes]
            moved = (np.array(image)[:, None, None] * D + g_inv[:, None]) * D + g_inv
            orbit = np.minimum(orbit, orbit[moved.ravel()])
        # the pass visits every sigma, so each entry ends at the least index of
        # its orbit; value v of the stack is entry v - 1, and classes and
        # orbits pair up one to one
        pairs = set(zip(classes.tolist(), orbit[values.astype(int) - 1].tolist()))
        assert len(pairs) == len(sizes) == len(np.unique(orbit))

    # (1, 2) is 0 in Pi_(1,3), so its class also holds 0s; (1, 1) is 1, in a
    # class of 1s on the diagonal with no 0
    @pytest.mark.parametrize("entry", [(1, 2), (1, 1)])
    def test_nan_in_a_projector_fails_check_b(self, monkeypatch, entry):
        # a NaN differs from every value, so the class that holds it fails;
        # a running max(worst, x) would keep worst and pass
        def with_nan(stack, outcomes):
            stack[(outcomes.index((1, 3)), *entry)] = np.nan
            return stack

        route_check_b(monkeypatch, with_nan)
        b = {r.name: r for r in run_suite(2, 4, 2)}["b-projector-conjugation"]
        assert np.isnan(b.deviation) and not b.passed

    @pytest.mark.parametrize("d,N,M", REFERENCE_POINTS + [(2, 6, 6)])
    def test_counted_nonzeros_equal_the_dense_projectors(self, monkeypatch, d, N, M):
        # the counts of the gathers against the Pi 1 Pi sandwiches of
        # `symmetric_projector`: the same pattern, and the same values up to
        # the sandwich's second rounding, which shows from M = 4 on
        received = route_check_b(monkeypatch)
        outcomes = enumerate_unordered(N, M)
        verification._check_projector_conjugation(d, N, lambda: outcomes)
        [(k, r, c, values)] = received
        layout = SubsystemLayout([port_label(i) for i in range(1, N + 1)], [d] * N)
        dense = np.stack([symmetric_projector(I, layout).entries for I in outcomes])
        pattern = np.nonzero(dense)
        assert all(np.array_equal(a, b) for a, b in zip((k, r, c), pattern))
        if M <= 3:
            assert np.array_equal(values, dense[pattern])
        else:
            assert np.abs(values - dense[pattern]).max() <= 2e-15
