"""Acceptance gate: the eight headline claims the package must reproduce.

Each test prints one tagged pass/fail line so a log scrape shows the
status of every criterion at a glance. Thresholds are pinned here and
must not be loosened; a failing criterion is reported, not hidden.
Criterion 2 includes the N = M equality case, where no-signalling fixes
f = 1/d for every protocol; its thresholds stay pinned as well.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from portclone.channels import (
    entanglement_fidelity_choi,
    entanglement_fidelity_formula,
    haar_average_check,
    protocol_fidelity,
    slot_signals,
)
from portclone.cloning import clone_map, optimal_clone_fidelity
from portclone.measurements import clone_mpbt_povm, complete, pgm, std_pbtc_povm
from portclone.states import input_label, pbtc_signal
from portclone.tensor_core import LabeledOperator, SubsystemLayout, partial_trace, trace_product
from portclone.verification import (
    combinatorial_disjoint_overlap,
    eta_bar_purity,
    run_suite,
)

SWEEP_D = 2
SWEEP_M = 2
SWEEP_NS = (2, 3, 4, 5, 6)

# single-clone fidelities frozen after the first verified run (the formula
# and Choi evaluation routes agreed to ~1e-16 at every point checked)
FROZEN_F = {
    ("std-pbtc", 2): (0.24999999999999994, 0.5),
    ("std-pbtc", 3): (0.37499999999999994, 0.5833333333333334),
    ("std-pbtc", 4): (0.46762104925712766, 0.6450806995047518),
    ("std-pbtc", 5): (0.530579467839385, 0.6870529785595899),
    ("std-pbtc", 6): (0.574089095697941, 0.7160593971319607),
    ("clone-mpbt", 2): (0.24999999999999994, 0.5),
    ("clone-mpbt", 3): (0.30555555555555547, 0.537037037037037),
    ("clone-mpbt", 4): (0.38895190979675265, 0.5926346065311684),
    ("clone-mpbt", 5): (0.47279685762513884, 0.6485312384167593),
    ("clone-mpbt", 6): (0.543451203145467, 0.6956341354303114),
}

FIXTURE_TOL = 1e-9


def _report(criterion: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion}] {status}  {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def sweep():
    """All fidelity reports needed by criteria 2 and 3, computed once."""
    start = time.perf_counter()
    reports = {
        (proto, n): protocol_fidelity(proto, SWEEP_D, n, SWEEP_M)
        for proto in ("std-pbtc", "clone-mpbt")
        for n in SWEEP_NS
    }
    reports["elapsed_s"] = time.perf_counter() - start
    return reports


def dense_clone_fidelity(d, m):
    """f of the dense cloning map: <0| Tr_{c2..cm}[C(|0><0|)] |0>."""
    basis0 = np.zeros((d, d))
    basis0[0, 0] = 1.0
    labels = [f"c{k}" for k in range(1, m + 1)]
    x = LabeledOperator(SubsystemLayout([input_label()], [d]), basis0)
    return float(np.real(partial_trace(clone_map(x, m, d, labels), labels[1:]).entries[0, 0]))


class TestCriterion1OptimalCloning:
    def test_closed_form_and_runtime(self):
        # the dense map against Werner's closed form, which `clone` reports
        start = time.perf_counter()
        worst = 0.0
        for d, m in itertools.product((2, 3), (1, 2, 3)):
            closed = optimal_clone_fidelity(m, d)
            reported = protocol_fidelity("clone", d, 0, m).f
            worst = max(worst, abs(dense_clone_fidelity(d, m) - closed), abs(reported - closed))
        elapsed = time.perf_counter() - start
        _report(
            "1",
            worst < 1e-10 and elapsed < 1.0,
            f"dense cloning vs closed form: worst dev {worst:.3e}, {elapsed:.2f}s",
        )


class TestCriterion2FidelityGap:
    @pytest.mark.parametrize("n", SWEEP_NS)
    def test_gap_positive(self, sweep, n):
        """Telecloning beats clone-and-teleport over the swept range, d=2,
        M=2 and N = 2..6. It does not for every N: the gap changes sign
        between N = 7 (+4.8e-3) and N = 8 (-6.4e-3).

        With more than one measurement outcome, C(N, M) > 1, the f of
        std-pbtc must exceed that of clone-mpbt by more than 1e-6.

        With a single outcome (N = M) the measurement tells the receivers
        nothing, so by no-signalling each port holds a state independent of
        the input and every protocol gives f = 1/d exactly. There the gap
        cannot be positive; instead the f and every per-clone f of both
        protocols must equal 1/d, and the gap must vanish, within 1e-12.
        """
        pbtc, mpbt = sweep[("std-pbtc", n)], sweep[("clone-mpbt", n)]
        gap = pbtc.f - mpbt.f
        if math.comb(n, SWEEP_M) > 1:
            _report("2", gap > 1e-6, f"N={n}: f gap std-pbtc minus clone-mpbt = {gap:.6e}")
            return
        dev = max(
            abs(f - 1 / SWEEP_D)
            for r in (pbtc, mpbt)
            for f in (r.f, *r.per_clone_f)
        )
        _report(
            "2",
            dev <= 1e-12 and abs(gap) <= 1e-12,
            f"N={n}: one outcome, no-signalling: f = 1/d for both, "
            f"dev {dev:.3e}, gap {gap:.3e}",
        )

    def test_bounds_and_monotonicity(self, sweep):
        cap = 5 / 6 + 1e-9
        below_cap = all(
            sweep[(proto, n)].f < cap
            for proto in ("std-pbtc", "clone-mpbt")
            for n in SWEEP_NS
        )
        fs = [sweep[("std-pbtc", n)].f for n in SWEEP_NS]
        monotone = all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
        fast = sweep["elapsed_s"] < 300
        _report(
            "2",
            below_cap and monotone and fast,
            f"all f < 5/6, std-pbtc non-decreasing, sweep {sweep['elapsed_s']:.1f}s",
        )

    def test_frozen_fixtures(self, sweep):
        worst = 0.0
        for (proto, n), (F, f) in FROZEN_F.items():
            r = sweep[(proto, n)]
            worst = max(worst, abs(r.F - F), abs(r.f - f))
        _report("2", worst < FIXTURE_TOL, f"regression fixtures: worst dev {worst:.3e}")

    # f(std-pbtc) - f(clone-mpbt) at d=2, per M: (N, gap) at the last N with a
    # positive gap and at the next N
    CROSSOVER = {
        2: ((7, 4.828763042030837e-3), (8, -6.418765710090035e-3)),
        3: ((8, 1.515787327497553e-2), (9, -1.3847323921885035e-3)),
    }

    @pytest.mark.parametrize("m", sorted(CROSSOVER))
    def test_crossover_pinned(self, m):
        """Telecloning is strictly better only in certain cases: the gap
        changes sign between the two pinned N, each pinned to 1e-12."""
        (last, _), (first, _) = points = self.CROSSOVER[m]
        gaps = [
            protocol_fidelity("std-pbtc", 2, n, m).f - protocol_fidelity("clone-mpbt", 2, n, m).f
            for n, _ in points
        ]
        worst = max(abs(gap - pinned) for gap, (_, pinned) in zip(gaps, points))
        _report(
            "2",
            worst <= 1e-12 and gaps[0] > 0 > gaps[1],
            f"M={m}: gap {gaps[0]:+.6e} at N={last}, {gaps[1]:+.6e} at N={first}, "
            f"worst dev {worst:.3e}",
        )


class TestCriterion3LimitConvergence:
    def test_gap_to_limit_decreases(self, sweep):
        gaps = [5 / 6 - sweep[("std-pbtc", n)].f for n in SWEEP_NS]
        strictly = all(b < a for a, b in zip(gaps, gaps[1:]))
        _report(
            "3",
            strictly,
            "gap to 5/6 strictly decreasing: "
            + " ".join(f"{g:.4f}" for g in gaps),
        )

    def test_lower_bound_holds(self, sweep):
        d, m = SWEEP_D, SWEEP_M
        worst = -np.inf
        for n in SWEEP_NS:
            F = sweep[("std-pbtc", n)].F
            bound = ((d + m - 1) / (d * m)) / (
                d ** (n + 1) * eta_bar_purity(n, m, d)
            )
            worst = max(worst, bound - F)
        _report("3", worst <= 1e-10, f"bound minus F at worst point: {worst:.3e}")


class TestCriterion4SinglePortReduction:
    def test_povm_reduces_to_plain_pgm(self):
        a = std_pbtc_povm(3, 1, 2)
        b = complete(pgm({I: pbtc_signal((I[0],), 3, 2) for I in a.outcomes}))
        worst = max(
            np.abs(a.outcomes[I].entries - b.outcomes[I].entries).max()
            for I in a.outcomes
        )
        _report("4", worst < 1e-12, f"M=1 POVM vs single-port PGM: dev {worst:.3e}")

    def test_single_port_exact_point(self):
        F = protocol_fidelity("std-pbt", 2, 1, 1).F
        _report("4", abs(F - 0.25) < 1e-10, f"F(N=1, d=2) = {F:.12f}")

    def test_large_n_scaling(self):
        vals = {}
        ok = True
        for n in (8, 10):
            F = protocol_fidelity("std-pbt", 2, n, 1).F
            vals[n] = n * (1 - F)
            ok = ok and 0.4 <= vals[n] <= 1.1
        _report(
            "4",
            ok,
            "N(1-F) in [0.4, 1.1]: "
            + " ".join(f"N={n}: {v:.4f}" for n, v in vals.items()),
        )


class TestCriterion5CertificationSuite:
    CHECK_PREFIXES = ("a-", "b-", "c-", "c2-", "c3-", "d-", "e-", "f-", "g-", "h-", "k-")

    @pytest.mark.parametrize("d,n,m", [(2, 2, 2), (2, 3, 2), (2, 4, 2), (3, 3, 2)])
    def test_suite_point(self, d, n, m):
        results = run_suite(d, n, m)
        selected = [
            r for r in results if r.name.startswith(self.CHECK_PREFIXES)
        ]
        worst = max(
            (r.deviation for r in selected if not r.notes.startswith("skipped")),
            default=0.0,
        )
        all_pass = all(r.passed for r in selected)
        _report(
            "5",
            all_pass and worst <= 1e-10,
            f"d={d} N={n} M={m}: {len(selected)} checks, worst dev {worst:.3e}",
        )

    def test_disjoint_overlap_both_routes(self):
        d, m, n = 2, 2, 4
        exact = combinatorial_disjoint_overlap(d, m, n)
        dense = trace_product(
            pbtc_signal((1, 2), n, d).entries,
            pbtc_signal((3, 4), n, d).entries,
        )
        target = float(Fraction(1, d ** (n + 1)))
        dev = max(abs(exact - target), abs(dense - target))
        _report("5", dev <= 1e-12, f"disjoint overlap 1/d^(N+1): dev {dev:.3e}")


class TestCriterion6RouteEquivalence:
    @pytest.mark.parametrize("proto,builder", [
        ("std-pbtc", std_pbtc_povm), ("clone-mpbt", clone_mpbt_povm),
    ])
    def test_formula_vs_choi(self, proto, builder):
        d, m = 2, 2
        worst = 0.0
        for n in (2, 3, 4):
            povm = builder(n, m, d)
            formula = entanglement_fidelity_formula(povm, slot_signals(povm, n, d, 1))
            choi = entanglement_fidelity_choi(povm, 1, n, m, d)
            worst = max(worst, abs(formula - choi))
        _report("6", worst < 1e-10, f"{proto} N<=4: worst route dev {worst:.3e}")


class TestCriterion7PurityTrend:
    def test_strictly_decreasing(self):
        d, m = 2, 2
        excess = [
            abs(d ** (n + 1) * eta_bar_purity(n, m, d) - 1.0) for n in (4, 5, 6)
        ]
        strictly = all(b < a for a, b in zip(excess, excess[1:]))
        _report(
            "7",
            strictly,
            "|d^(N+1) Tr(avg^2) - 1| over N=4,5,6: "
            + " ".join(f"{e:.5f}" for e in excess),
        )


class TestCriterion8HaarCrossCheck:
    def test_monte_carlo_agrees(self):
        d, n, m = 2, 3, 2
        povm = std_pbtc_povm(n, m, d)
        est, se = haar_average_check(povm, 1, samples=1000, seed=20260824, N=n, d=d)
        exact = protocol_fidelity("std-pbtc", d, n, m).f
        # the channel is unitarily covariant, so the sample spread (and with
        # it the standard error) collapses to rounding noise; the comparison
        # keeps a tiny absolute floor so 3*se stays meaningful
        dev = abs(est - exact)
        _report(
            "8",
            dev <= 3 * se + 1e-12,
            f"Monte Carlo {est:.10f} vs exact {exact:.10f}, se {se:.2e}",
        )
