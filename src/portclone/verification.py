"""Executable certification of the structural identities behind the
asymptotic-optimality argument, plus an exact combinatorial evaluator for
the disjoint-outcome overlap trace."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Any

import numpy as np

from portclone.channels import protocol_fidelity
from portclone.measurements import split_complement, square_root_blocks
from portclone.states import counted_entries, pbtc_signal_nonzeros
from portclone.symmetry import (
    batches,
    cycle_count,
    enumerate_unordered,
    mean_row_gathers,
    port_type_classes,
    sandwich_row_gathers,
    slot_gathers,
    stirling_first,
    subgroup_fixing_complement,
    sym_dim,
)
from portclone.tensor_core import (
    BlockGroup,
    DimensionCapError,
    check_cap,
    check_family,
    psd_inv_sqrt_blocks,
    support_spectra,
    trace_product,
    weight_sectors,
)

TREND_NOTE = "trend"

# A check passes when its deviation is at most its threshold.
FLOAT_TOL = 1e-10  # identities between floating-point values: b, c, c3, e-h, j
COMPLETION_TOL = 1e-9  # c2, which also compares the completed sum with the identity
EXACT = 0.0  # integer, set and trend comparisons: a, d, i, k


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict[str, Any]
    deviation: float
    threshold: float
    passed: bool
    notes: str = ""

    def to_json_dict(self) -> dict:
        """The fields in declaration order, with passed written as "pass"."""
        return {"pass" if k == "passed" else k: v for k, v in vars(self).items()}


def _skipped(notes: str) -> tuple[float, float, str]:
    """The (deviation, threshold, notes) of a check that compares nothing."""
    return 0.0, 0.0, f"skipped: {notes}"


def cycle_sum_by_enumeration(d: int, M: int) -> int:
    """sum over sigma, tau in S_M of d^(cycles(sigma) + cycles(tau)), by
    explicit cycle decomposition of every group element."""
    counts = [cycle_count(images) for images in itertools.permutations(range(M))]
    one_sided = sum(d**c for c in counts)
    return one_sided * one_sided


def cycle_sum_by_stirling(d: int, M: int) -> int:
    """Same sum through the Stirling-number row identity:
    sum_k s(M,k) d^k = (M+d-1)! / (d-1)!."""
    row = sum(stirling_first(M, k) * d**k for k in range(M + 1))
    return row * row


def _disjoint_overlap_routes(d: int, M: int, N: int) -> tuple[Fraction, Fraction]:
    """Overlap trace of two signal states on disjoint port sets, evaluated
    without any dense matrix, in exact rational arithmetic: the delta-product
    sum over both symmetrizing groups collapses to a cycle-count generating
    function, summed by enumeration and by the Stirling row identity. Both
    should equal 1/d^(N+1); check h compares them with it."""
    if 2 * M > N:
        raise ValueError(f"no disjoint pair of {M}-sets exists for N={N}")
    denom = (sym_dim(d, M) * factorial(M)) ** 2 * d**N * d
    enumerated, closed_form = cycle_sum_by_enumeration(d, M), cycle_sum_by_stirling(d, M)
    return Fraction(enumerated, denom), Fraction(closed_form, denom)


def combinatorial_disjoint_overlap(d: int, M: int, N: int) -> float:
    """The overlap of `_disjoint_overlap_routes`; both routes must agree
    before it is returned."""
    enumerated, closed_form = _disjoint_overlap_routes(d, M, N)
    if enumerated != closed_form:
        raise ArithmeticError(
            f"cycle-sum mismatch: enumeration {enumerated} vs Stirling {closed_form}"
        )
    return float(enumerated)


def _average_sectors(N, M, d):
    """The `BlockGroup` of the weight sectors of [X, A1..AN] and the blocks on
    it of the signals' average, counted over all port sets as the engine does."""
    check_family(comb(N, M), d ** (N + 1))
    group = BlockGroup(weight_sectors((d,) * (N + 1), 1)[1], (d,) * (N + 1))
    return group, counted_entries(pbtc_signal_nonzeros(enumerate_unordered(N, M), group),
                                  group.widths)


def _signal_sectors(N, M, d):
    """The group and average of `_average_sectors` and, per sector of width w,
    the (C(N, M), w, w) stack of the signals' blocks in outcome order, filled
    one outcome at a time. A column leaving its sector makes
    `BlockGroup.positions` raise, so the build checks block-diagonality."""
    group, average = _average_sectors(N, M, d)
    stacks = [np.empty((comb(N, M), w, w)) for w in group.widths]
    for k, I in enumerate(enumerate_unordered(N, M)):
        signal = counted_entries(pbtc_signal_nonzeros([I], group), group.widths)
        for stack, block in zip(stacks, signal):
            stack[k] = block
    return group, stacks, average


def _sector_overlaps(stacks, outcomes):
    """Tr[eta^I eta^J] = sum_rc eta^I[r, c] eta^J[c, r] over I <= J, in the order of
    `combinations_with_replacement`, as one product per sector of the stacks."""
    table = sum(s.reshape(len(s), -1) @ s.swapaxes(1, 2).reshape(len(s), -1).T for s in stacks)
    pairs = itertools.combinations_with_replacement(range(len(outcomes)), 2)
    return {(outcomes[i], outcomes[j]): float(table[i, j]) for i, j in pairs}


def purity(blocks) -> float:
    """Tr[A^2] of a Hermitian operator given by its diagonal blocks."""
    return sum(trace_product(a, a) for a in blocks)


def eta_bar_purity(N: int, M: int, d: int) -> float:
    """Tr[eta_bar^2] for the uniform signal-state average, sector by sector."""
    return purity(_average_sectors(N, M, d)[1])


def purity_upper_bound(N: int, M: int, d: int) -> float:
    """Upper bound on Tr[(eta^I)^2]: (d^(M-N+2)/d[M]) M!(M-1)!/(d+M-1)."""
    return d ** (M - N + 2) / sym_dim(d, M) * factorial(M) * factorial(M - 1) / (d + M - 1)


def _cap_sn_table(N):
    """Refuse the table of `_permuted_outcomes`, N! rows of N images, by its
    size. Check a calls it before it builds anything; check b lists no sigma,
    but calls it first too, so that both refuse the same points."""
    count = factorial(N)
    check_cap(count * N, f"table of the {count} permutations of {N} ports")


def _permuted_outcomes(N, outcomes, bytes_per_sigma):
    """Every sigma in S_N as 0-based images, one per row, in the batches of
    `batches`, each with the position in `outcomes` of sigma(I), looked up by
    the bit mask of its ports, for every sigma of the batch (row) and outcome
    I (column)."""
    count = factorial(N)
    # one byte per image, with no tuple per sigma on the way;
    # `_cap_sn_table` keeps N at 10 or below
    table = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(N))),
                        dtype=np.uint8, count=count * N).reshape(count, N)
    ports = np.array(outcomes) - 1
    position = np.zeros(2**N, dtype=int)  # outcome position by bit mask of its ports
    position[(1 << ports).sum(axis=1)] = np.arange(len(outcomes))
    for batch in batches(count, bytes_per_sigma):
        # as intp, so that 1 << sigma does not wrap from port 8 on
        sigmas = table[batch].astype(np.intp)
        bits = 1 << sigmas
        # one port of every outcome at a time, so no temporary is larger than the result
        yield sigmas, position[sum(bits[:, column] for column in ports.T)]


def _check_subgroup_conjugation(N, get_outcomes, subgroup_of):
    _cap_sn_table(N)
    outcomes = get_outcomes()
    # each member as one integer whose base-N digits are its images
    powers = N ** np.arange(N)
    # duplicate members are dropped, so each subgroup is compared as a set
    subgroups = [g[np.unique(g @ powers, return_index=True)[1]]
                 for g in (subgroup_of(I, N) for I in outcomes)]
    sizes = np.array([len(g) for g in subgroups])
    width = sizes.max()
    members = np.stack([np.pad(g, ((0, width - len(g)), (0, 0))) for g in subgroups])
    present = np.arange(width) < sizes[:, None]  # False on the padding rows
    # padding reads -1, which no member's code takes
    expected = np.where(present, members @ powers, -1)
    worst = 0
    # per sigma, one int64 gather of every member's images
    for sigmas, image in _permuted_outcomes(N, outcomes, 8 * members.size):
        n = len(sigmas)
        # member pi becomes sigma pi sigma^-1, which maps port sigma[i] to
        # sigma[pi[i]], so its code sums sigma[pi[i]] N^sigma[i] over i
        moved = sigmas.ravel()[members.reshape(1, -1) + N * np.arange(n)[:, None]]
        codes = moved.reshape(n, -1, N) @ powers[sigmas][:, :, None]
        codes = np.where(present, codes.reshape(n, *present.shape), -1)
        # both sides hold distinct codes, so after one sort every member they
        # share is a pair of equal neighbours
        merged = np.sort(np.concatenate([codes, expected[image]], axis=-1), axis=-1)
        shared = ((merged[..., 1:] == merged[..., :-1]) & (merged[..., 1:] >= 0)).sum(axis=-1)
        worst = max(worst, (sizes + sizes[image] - 2 * shared).max())
    return worst, EXACT, "set comparison, exact"


def _check_projector_conjugation(d, N, get_outcomes):
    _cap_sn_table(N)
    outcomes = get_outcomes()
    # refused by the count of the dense family, although only its nonzeros are held
    check_family(len(outcomes), d**N)
    group, shape = BlockGroup([np.arange(d**N)], (d,) * N), (len(outcomes), d**N, d**N)
    nonzeros = []
    # Pi_I[r, c] counts the M! permutations of I (slots I - 1 of [A1..AN]) that take c
    # to r, one batch of keys (I, r, c) at a time, so no batch holds more than its nonzeros
    for batch, [columns] in slot_gathers(group, np.array(outcomes) - 1):
        keys = np.ravel_multi_index((np.arange(shape[0])[batch, None, None],
                                     np.arange(shape[1]), columns), shape)
        keys, counts = np.unique(keys, return_counts=True)
        nonzeros.append((*np.unravel_index(keys, shape), counts / columns.shape[1]))
    values, cls, sizes = port_type_classes(tuple(map(np.concatenate, zip(*nonzeros))),
                                           outcomes, group)
    # a class with fewer nonzeros than entries also holds a 0, at |v| from each v
    worst = np.max(np.abs(values[(sizes > np.bincount(cls))[cls]]), initial=0.0)
    # then every pair of distinct values of one class, sorted neighbours first
    distinct = np.ones(len(cls), dtype=bool)
    distinct[1:] = (cls[1:] != cls[:-1]) | (values[1:] != values[:-1])
    cls, values = cls[distinct], values[distinct]
    offset = 1
    while (same := cls[offset:] == cls[:-offset]).any():
        worst = np.maximum(worst, np.abs(values[offset:] - values[:-offset])[same].max())
        offset += 1
    return worst, FLOAT_TOL, ""


def _sector_pgm(stacks, average, get_gathers, inject_fault):
    """Per sector, the stacked PGM elements before completion, the support
    projector (one decomposition gives both), and the completion of
    `split_complement`, or None where the element sum is refused."""
    roots, supports = psd_inv_sqrt_blocks(average)
    elements = square_root_blocks(stacks, roots)
    if inject_fault:
        # scaling cannot break the scale-invariant identity c: add 1 - Pi_I too
        _, first = next(get_gathers())
        for element, gathers in zip(elements, first):
            one = np.eye(element.shape[-1])[None]
            element[0] = 1.01 * element[0] + 0.01 * (one - mean_row_gathers(one, gathers[:1]))[0]
    try:
        return elements, supports, split_complement([e.sum(0) for e in elements], len(stacks[0]))
    except ValueError:
        return elements, supports, None


def _check_pgm_support_invariance(get_povm, get_gathers):
    elements = get_povm()[0]
    worst = 0.0
    for batch, sectors in get_gathers():
        for stack, gathers in zip(elements, sectors):
            # Pi_I E_I Pi_I against E_I
            sandwiched = sandwich_row_gathers(stack[batch], gathers)
            worst = np.maximum(worst, np.abs(sandwiched - stack[batch]).max())
    return worst, FLOAT_TOL, ""


def _check_pgm_completeness(get_povm):
    elements, supports, deltas = get_povm()
    dev_support = np.max([np.abs(e.sum(axis=0) - p).max() for e, p in zip(elements, supports)])
    # infinite where the element sum already exceeds identity: completion refused
    dev_id = np.inf if deltas is None else np.max([
        np.abs((e + delta).sum(axis=0) - np.eye(len(delta))).max()
        for e, delta in zip(elements, deltas)])
    return np.maximum(dev_support, dev_id), COMPLETION_TOL, ""


def _check_commutation(get_eta_bar, get_gathers):
    worst = 0.0
    for _, sectors in get_gathers():
        for a, gathers in zip(get_eta_bar(), sectors):
            # Pi_I eta_bar, and eta_bar Pi_I as (Pi_I eta_bar^dag)^dag
            right = mean_row_gathers(a.conj().T[None], gathers).conj().swapaxes(1, 2)
            worst = np.maximum(worst, np.abs(mean_row_gathers(a[None], gathers) - right).max())
    return worst, FLOAT_TOL, ""


def _check_rank_formula(d, N, M, get_sectors):
    expected = sym_dim(d, M - 1) * d ** (N - M)
    ranks = [sum(int(np.count_nonzero(keep)) for _, _, keep in support_spectra(blocks))
             for blocks in zip(*get_sectors()[1])]  # one signal, one eigh per sector
    return max(abs(rank - expected) for rank in ranks), EXACT, f"expected rank {expected}"


def _check_overlap_classes(get_overlaps):
    classes: dict[int, list[float]] = {}
    for (I, J), overlap in get_overlaps().items():
        k = len(set(I) & set(J))
        classes.setdefault(k, []).append(overlap)
    return np.max([np.ptp(v) for v in classes.values()]), FLOAT_TOL, ""


def _check_cauchy_schwarz(get_overlaps):
    overlaps = get_overlaps()
    self_overlap = next(iter(overlaps.values()))  # the first outcome with itself
    cross = [overlap - self_overlap for (I, J), overlap in overlaps.items() if I != J]
    return np.max(cross, initial=0.0), FLOAT_TOL, ""


def _check_purity_bound(d, N, M, get_overlaps):
    bound = purity_upper_bound(N, M, d)
    worst = [overlap - bound for (I, J), overlap in get_overlaps().items() if I == J]
    return np.max(worst, initial=0.0), FLOAT_TOL, f"bound {bound:.6g}"


def _check_disjoint_overlap(d, N, M, get_overlaps):
    if 2 * M > N:
        return _skipped("no disjoint pair for these N, M")
    I, J = tuple(range(1, M + 1)), tuple(range(M + 1, 2 * M + 1))
    target = 1.0 / d ** (N + 1)
    # the overlap from the sector stacks and both exact routes, each against 1/d^(N+1)
    values = [get_overlaps()[I, J], *map(float, _disjoint_overlap_routes(d, M, N))]
    return np.max(np.abs(np.subtract(values, target))), FLOAT_TOL, ""


def _check_purity_trend(d, N, M, get_eta_bar):
    if N - 1 < M:
        return _skipped("no smaller N to compare")
    # the point itself first, so that the cap refuses it before N - 1 is built
    curr = abs(d ** (N + 1) * purity(get_eta_bar()) - 1.0)
    prev = abs(d**N * eta_bar_purity(N - 1, M, d) - 1.0)
    return np.maximum(0.0, curr - prev), EXACT, f"{TREND_NOTE}: |excess| {prev:.6g} -> {curr:.6g}"


def _check_fidelity_lower_bound(d, N, M, get_eta_bar):
    bound = ((d + M - 1) / (d * M)) / (d ** (N + 1) * purity(get_eta_bar()))
    F = protocol_fidelity("std-pbtc", d, N, M).F
    return np.maximum(0.0, bound - F), FLOAT_TOL, f"{TREND_NOTE}: F={F:.8g}, bound={bound:.8g}"


def _check_stirling():
    worst = 0
    for m in range(1, 7):
        for dd in range(2, 5):
            row = sum(stirling_first(m, k) * dd**k for k in range(m + 1))
            worst = max(worst, abs(row - factorial(m + dd - 1) // factorial(dd - 1)))
    return worst, EXACT, "exact integers"


def run_suite(d: int, N: int, M: int, inject_fault: bool = False) -> list[CheckResult]:
    """Run every certification check at one parameter point, in name order.

    Checks that would exceed the dimension cap are reported as skipped
    rather than failing the suite. `inject_fault` corrupts one PGM element
    by 1% so the support-invariance and completeness checks must fail;
    it exists to prove the harness can detect a broken measurement.
    """
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if d < 2:
        raise ValueError(f"local dimensions must be >= 2, got d={d}")
    # built on first use and shared; a build the dimension cap refuses raises
    # again in every check that asks for it, so each of them is skipped
    get_outcomes = cache(lambda: enumerate_unordered(N, M))
    get_sectors = cache(lambda: _signal_sectors(N, M, d))
    get_eta_bar = cache(lambda: get_sectors()[2])
    # not cached: each call is a fresh pass over the batches of Pi_I gathers;
    # port j is slot j of [X, A1..AN], so each port set is its slot set
    get_gathers = lambda: slot_gathers(get_sectors()[0], get_outcomes())
    get_povm = cache(lambda: _sector_pgm(*get_sectors()[1:], get_gathers, inject_fault))
    get_overlaps = cache(lambda: _sector_overlaps(get_sectors()[1], get_outcomes()))
    checks = [
        ("a-subgroup-conjugation", _check_subgroup_conjugation,
         (N, get_outcomes, subgroup_fixing_complement)),
        ("b-projector-conjugation", _check_projector_conjugation, (d, N, get_outcomes)),
        ("c-pgm-support-invariance", _check_pgm_support_invariance, (get_povm, get_gathers)),
        ("c2-pgm-completeness", _check_pgm_completeness, (get_povm,)),
        ("c3-projector-average-commutation", _check_commutation, (get_eta_bar, get_gathers)),
        ("d-rank-formula", _check_rank_formula, (d, N, M, get_sectors)),
        ("e-overlap-class-equality", _check_overlap_classes, (get_overlaps,)),
        ("f-cauchy-schwarz-dominance", _check_cauchy_schwarz, (get_overlaps,)),
        ("g-purity-upper-bound", _check_purity_bound, (d, N, M, get_overlaps)),
        ("h-disjoint-overlap-value", _check_disjoint_overlap, (d, N, M, get_overlaps)),
        ("i-average-purity-trend", _check_purity_trend, (d, N, M, get_eta_bar)),
        ("j-fidelity-lower-bound", _check_fidelity_lower_bound, (d, N, M, get_eta_bar)),
        ("k-stirling-row-identity", _check_stirling, ()),
    ]
    params = {"d": d, "N": N, "M": M}
    results = []
    for name, check, args in checks:
        try:
            deviation, threshold, notes = check(*args)
        except DimensionCapError as exc:
            deviation, threshold, notes = _skipped(str(exc))
        results.append(CheckResult(
            name=name, params=params, deviation=float(deviation),
            threshold=float(threshold), passed=bool(deviation <= threshold), notes=notes,
        ))
    return results


def suite_passed(results: list[CheckResult]) -> bool:
    """True if every non-trend check passed."""
    return all(r.passed for r in results if not r.notes.startswith(TREND_NOTE))
