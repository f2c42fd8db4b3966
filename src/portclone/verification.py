"""Executable certification of the structural identities behind the
asymptotic-optimality argument, plus an exact combinatorial evaluator for
the disjoint-outcome overlap trace."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Any

import numpy as np

from portclone.channels import protocol_fidelity
from portclone.measurements import pgm, complete
from portclone.states import ensemble_average, pbtc_ensemble, pbtc_signal
from portclone.states import input_label, pbt_layout, pbtc_signal_entries
from portclone.symmetry import (
    PortSet,
    cycle_count,
    enumerate_unordered,
    permuted_basis_indices,
    port_label,
    stirling_first,
    subgroup_fixing_complement,
    sym_dim,
    symmetric_projector,
)
from portclone.tensor_core import (
    DimensionCapError,
    LabeledOperator,
    SubsystemLayout,
    support_projector,
    support_rank_blocks,
    trace_product,
    weight_sectors,
)

TREND_NOTE = "trend"


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict[str, Any]
    deviation: float
    threshold: float
    passed: bool
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "deviation": self.deviation,
            "threshold": self.threshold,
            "pass": self.passed,
            "notes": self.notes,
        }


def _result(name, params, deviation, threshold, notes="") -> CheckResult:
    return CheckResult(
        name=name,
        params=params,
        deviation=float(deviation),
        threshold=float(threshold),
        passed=bool(deviation <= threshold),
        notes=notes,
    )


def _skipped(name, params, notes) -> CheckResult:
    return CheckResult(
        name=name, params=params, deviation=0.0, threshold=0.0, passed=True,
        notes=f"skipped: {notes}",
    )


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
    assert row == factorial(M + d - 1) // factorial(d - 1)
    return row * row


def combinatorial_disjoint_overlap(d: int, M: int, N: int) -> float:
    """Overlap trace of two signal states on disjoint port sets, evaluated
    without any dense matrix: the delta-product sum over both symmetrizing
    groups collapses to a cycle-count generating function.

    Exact rational arithmetic throughout; both evaluation routes must agree
    before the value (always 1/d^(N+1)) is returned.
    """
    if 2 * M > N:
        raise ValueError(f"no disjoint pair of {M}-sets exists for N={N}")
    enumerated = cycle_sum_by_enumeration(d, M)
    closed_form = cycle_sum_by_stirling(d, M)
    if enumerated != closed_form:
        raise ArithmeticError(
            f"cycle-sum mismatch: enumeration {enumerated} vs Stirling {closed_form}"
        )
    denom = (sym_dim(d, M) * factorial(M)) ** 2 * d**N * d
    value = Fraction(enumerated, denom)
    assert value == Fraction(1, d ** (N + 1))
    return float(value)


def dense_overlap(I: PortSet, J: PortSet, N: int, d: int) -> float:
    return trace_product(pbtc_signal(I, N, d).entries, pbtc_signal(J, N, d).entries)


def purity(op: LabeledOperator) -> float:
    """Tr[op^2] of a Hermitian operator, as an elementwise sum."""
    return trace_product(op.entries, op.entries)


def eta_bar_purity(N: int, M: int, d: int) -> float:
    """Tr[eta_bar^2] for the uniform signal-state average."""
    return purity(ensemble_average(pbtc_ensemble(N, M, d)))


def purity_upper_bound(N: int, M: int, d: int) -> float:
    """Upper bound on Tr[(eta^I)^2]: (d^(M-N+2)/d[M]) M!(M-1)!/(d+M-1)."""
    return (
        d ** (M - N + 2)
        / sym_dim(d, M)
        * factorial(M)
        * factorial(M - 1)
        / (d + M - 1)
    )


def _permuted_outcomes(N, outcomes):
    """Every sigma in S_N as a 0-based image array, with the position in
    `outcomes` of sigma(I) for each outcome I."""
    ports = np.array([I.elements for I in outcomes]) - 1
    position = np.zeros(2**N, dtype=int)  # outcome position by bit mask of its ports
    position[(1 << ports).sum(axis=1)] = np.arange(len(outcomes))
    for images in itertools.permutations(range(N)):
        s = np.array(images)
        yield s, position[(1 << s[ports]).sum(axis=1)]


def _check_subgroup_conjugation(d, N, M, tol, params):
    outcomes = enumerate_unordered(N, M)
    subgroups = [subgroup_fixing_complement(I) for I in outcomes]
    expected = [set(map(tuple, g.tolist())) for g in subgroups]
    worst = 0
    for s, image in _permuted_outcomes(N, outcomes):
        s_inv = np.argsort(s)
        for g, k in zip(subgroups, image):
            # row r of s[g[:, s_inv]] is sigma pi_r sigma^-1
            conjugated = set(map(tuple, s[g[:, s_inv]].tolist()))
            worst = max(worst, len(conjugated ^ expected[k]))
    return _result("a-subgroup-conjugation", params, worst, 0, "set comparison, exact")


def _check_projector_conjugation(d, N, M, tol, params):
    layout = SubsystemLayout([port_label(i) for i in range(1, N + 1)], [d] * N)
    outcomes = enumerate_unordered(N, M)
    D = layout.dim
    stack = np.array([symmetric_projector(I, d, layout).entries.ravel() for I in outcomes])
    worst = 0.0
    for s, image in _permuted_outcomes(N, outcomes):
        # V_sigma is a 0/1 permutation matrix, so V_sigma Pi V_sigma^dag is Pi
        # with rows and columns gathered by the basis map of sigma^-1
        g = permuted_basis_indices(np.argsort(s), d)
        flat = (g[:, None] * D + g).ravel()
        # one outcome at a time: temporaries of the whole stack cost more in
        # fresh pages than the comparison itself
        for pi, k in zip(stack, image):
            worst = max(worst, np.abs(pi.take(flat) - stack[k]).max())
    return _result("b-projector-conjugation", params, worst, tol)


def _pre_completion_pgm(d, N, M, inject_fault=False):
    povm = pgm(pbtc_ensemble(N, M, d))
    if inject_fault:
        # scaling alone cannot break the support-invariance identity (it is
        # scale-invariant), so the fault also adds an off-support component
        first = next(iter(povm.outcomes))
        pi = symmetric_projector(first, d, povm.layout)
        off_support = LabeledOperator(
            povm.layout, np.eye(povm.layout.dim) - pi.entries
        )
        corrupted = dict(povm.outcomes)
        corrupted[first] = 1.01 * corrupted[first] + 0.01 * off_support
        povm = type(povm)(outcomes=corrupted, layout=povm.layout)
    return povm


def _check_pgm_support_invariance(d, N, M, tol, params, get_povm):
    povm = get_povm()
    worst = 0.0
    for I, element in povm.outcomes.items():
        pi = symmetric_projector(I, d, povm.layout)
        sandwiched = pi @ element @ pi
        worst = max(worst, np.abs(sandwiched.entries - element.entries).max())
    return _result("c-pgm-support-invariance", params, worst, tol)


def _check_pgm_completeness(d, N, M, tol, params, get_povm, get_eta_bar):
    povm = get_povm()
    proj = support_projector(get_eta_bar())
    dev_support = np.abs(povm.element_sum().entries - proj.entries).max()
    try:
        completed = complete(povm)
        dev_id = np.abs(
            completed.element_sum().entries - np.eye(povm.layout.dim)
        ).max()
    except ValueError:
        # element sum already exceeds identity; completion refused
        dev_id = np.inf
    return _result(
        "c2-pgm-completeness", params, max(dev_support, dev_id), max(tol, 1e-9)
    )


def _check_commutation(d, N, M, tol, params, get_eta_bar):
    eta_bar = get_eta_bar()
    worst = 0.0
    for I in enumerate_unordered(N, M):
        pi = symmetric_projector(I, d, eta_bar.layout)
        comm = pi @ eta_bar - eta_bar @ pi
        worst = max(worst, np.abs(comm.entries).max())
    return _result("c3-projector-average-commutation", params, worst, tol)


def _check_rank_formula(d, N, M, tol, params):
    expected = sym_dim(d, M - 1) * d ** (N - M)
    # each signal is block-diagonal in the weight sectors: one eigh per block
    sectors = weight_sectors(pbt_layout(N, d), [input_label()])
    worst = 0
    for I in enumerate_unordered(N, M):
        rank = support_rank_blocks([pbtc_signal_entries(I, N, d, idx) for idx in sectors])
        worst = max(worst, abs(rank - expected))
    return _result("d-rank-formula", params, worst, 0, f"expected rank {expected}")


def _check_overlap_classes(d, N, M, tol, params):
    outcomes = enumerate_unordered(N, M)
    classes: dict[int, list[float]] = {}
    for I, J in itertools.combinations_with_replacement(outcomes, 2):
        k = len(set(I.elements) & set(J.elements))
        classes.setdefault(k, []).append(dense_overlap(I, J, N, d))
    worst = max(max(v) - min(v) for v in classes.values())
    return _result("e-overlap-class-equality", params, worst, tol)


def _check_cauchy_schwarz(d, N, M, tol, params):
    outcomes = enumerate_unordered(N, M)
    self_overlap = dense_overlap(outcomes[0], outcomes[0], N, d)
    worst = 0.0
    for I, J in itertools.combinations(outcomes, 2):
        worst = max(worst, dense_overlap(I, J, N, d) - self_overlap)
    return _result("f-cauchy-schwarz-dominance", params, max(0.0, worst), tol)


def _check_purity_bound(d, N, M, tol, params):
    bound = purity_upper_bound(N, M, d)
    outcomes = enumerate_unordered(N, M)
    worst = max(
        dense_overlap(I, I, N, d) - bound for I in outcomes
    )
    return _result(
        "g-purity-upper-bound", params, max(0.0, worst), tol, f"bound {bound:.6g}"
    )


def _check_disjoint_overlap(d, N, M, tol, params):
    if 2 * M > N:
        return _skipped("h-disjoint-overlap-value", params, "no disjoint pair for these N, M")
    combinatorial = combinatorial_disjoint_overlap(d, M, N)
    I = PortSet(tuple(range(1, M + 1)), N)
    J = PortSet(tuple(range(M + 1, 2 * M + 1)), N)
    dense = dense_overlap(I, J, N, d)
    target = 1.0 / d ** (N + 1)
    dev = max(abs(dense - target), abs(combinatorial - target))
    return _result("h-disjoint-overlap-value", params, dev, max(tol, 1e-12))


def _check_purity_trend(d, N, M, tol, params, get_eta_bar):
    if N - 1 < M:
        return _skipped("i-average-purity-trend", params, "no smaller N to compare")
    prev = abs(d**N * eta_bar_purity(N - 1, M, d) - 1.0)
    curr = abs(d ** (N + 1) * purity(get_eta_bar()) - 1.0)
    return _result(
        "i-average-purity-trend", params, max(0.0, curr - prev), 0.0,
        f"{TREND_NOTE}: |excess| {prev:.6g} -> {curr:.6g}",
    )


def _check_fidelity_lower_bound(d, N, M, tol, params, get_eta_bar):
    F = protocol_fidelity("std-pbtc", d, N, M).F
    bound = ((d + M - 1) / (d * M)) / (d ** (N + 1) * purity(get_eta_bar()))
    return _result(
        "j-fidelity-lower-bound", params, max(0.0, bound - F), 1e-10,
        f"{TREND_NOTE}: F={F:.8g}, bound={bound:.8g}",
    )


def _check_stirling(d, N, M, tol, params):
    worst = 0
    for m in range(1, 7):
        for dd in range(2, 5):
            row = sum(stirling_first(m, k) * dd**k for k in range(m + 1))
            worst = max(worst, abs(row - factorial(m + dd - 1) // factorial(dd - 1)))
    return _result("k-stirling-row-identity", params, worst, 0, "exact integers")


def run_suite(
    d: int, N: int, M: int, tol: float = 1e-10, inject_fault: bool = False
) -> list[CheckResult]:
    """Run every certification check at one parameter point.

    Checks that would exceed the dimension cap are reported as skipped
    rather than failing the suite. `inject_fault` corrupts one PGM element
    by 1% so the support-invariance and completeness checks must fail;
    it exists to prove the harness can detect a broken measurement.
    """
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    params = {"d": d, "N": N, "M": M}
    # built on first use and shared; a build the dimension cap refuses raises
    # again in every check that asks for it, so each of them is skipped
    get_povm = cache(lambda: _pre_completion_pgm(d, N, M, inject_fault))
    get_eta_bar = cache(lambda: ensemble_average(pbtc_ensemble(N, M, d)))
    checks = [
        ("a", _check_subgroup_conjugation, {}),
        ("b", _check_projector_conjugation, {}),
        ("c", _check_pgm_support_invariance, {"get_povm": get_povm}),
        ("c2", _check_pgm_completeness, {"get_povm": get_povm, "get_eta_bar": get_eta_bar}),
        ("c3", _check_commutation, {"get_eta_bar": get_eta_bar}),
        ("d", _check_rank_formula, {}),
        ("e", _check_overlap_classes, {}),
        ("f", _check_cauchy_schwarz, {}),
        ("g", _check_purity_bound, {}),
        ("h", _check_disjoint_overlap, {}),
        ("i", _check_purity_trend, {"get_eta_bar": get_eta_bar}),
        ("j", _check_fidelity_lower_bound, {"get_eta_bar": get_eta_bar}),
        ("k", _check_stirling, {}),
    ]
    results = []
    for _, fn, extra in checks:
        try:
            results.append(fn(d, N, M, tol, params, **extra))
        except DimensionCapError as exc:
            results.append(_skipped(fn.__name__.removeprefix("_check_"), params, str(exc)))
    return sorted(results, key=lambda r: (r.name, sorted(r.params.items())))


def suite_passed(results: list[CheckResult], include_trends: bool = False) -> bool:
    """True if every non-trend (or, optionally, every) check passed."""
    for r in results:
        if not include_trends and r.notes.startswith(TREND_NOTE):
            continue
        if not r.passed:
            return False
    return True
