"""Pretty good measurements, support completion, and the pullback POVM
realizing the clone-then-teleport baseline."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Hashable

import numpy as np

from portclone.cloning import clone_adjoint_on_input
from portclone.states import (
    ensemble_average,
    input_label,
    mpbt_layout,
    mpbt_signal_entries,
    pbtc_ensemble,
    pbt_layout,
)
from portclone.symmetry import enumerate_unordered, port_count
from portclone.tensor_core import (
    LabeledOperator,
    SubsystemLayout,
    check_family,
    hermitian_eig,
    psd_inv_sqrt,
    support_spectra,
)

COMPLETENESS_TOL = 1e-9
ELEMENT_PSD_RTOL = 1e-9
SUM_EXCESS_TOL = 1e-8


@dataclass(frozen=True)
class Povm:
    """Outcome-indexed family of PSD operators on one layout."""

    outcomes: dict[Hashable, LabeledOperator]
    layout: SubsystemLayout
    completion_element: LabeledOperator | None = None

    def __post_init__(self):
        elements = list(self.outcomes.values())
        if self.completion_element is not None:
            elements.append(self.completion_element)
        for el in elements:
            if el.layout != self.layout:
                raise ValueError(f"POVM element on {el.layout} in a POVM on {self.layout}")

    def __len__(self) -> int:
        return len(self.outcomes)

    def element_sum(self) -> LabeledOperator:
        dtype = np.result_type(float, *{el.entries.dtype for el in self.outcomes.values()})
        acc = np.zeros((self.layout.dim, self.layout.dim), dtype=dtype)
        for el in self.outcomes.values():
            acc += el.entries
        return LabeledOperator(self.layout, acc)

    def validate(self):
        """Check elementwise positivity and completeness of a completed POVM."""
        total = self.element_sum()
        lam_max = hermitian_eig(total).eigenvalues.max()
        for key, el in self.outcomes.items():
            lam_min = hermitian_eig(el).eigenvalues.min()
            if lam_min < -ELEMENT_PSD_RTOL * lam_max:
                raise ValueError(
                    f"POVM element {key} has negative eigenvalue {lam_min:.3e}"
                )
        dev = np.abs(total.entries - np.eye(self.layout.dim)).max()
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"POVM elements sum to identity only within {dev:.3e}")


def pgm(e: dict[Hashable, LabeledOperator]) -> Povm:
    """Square-root measurement of the uniform ensemble {outcome: state}; sums to
    the average state's support projector, so it is generally incomplete until
    `complete` is applied."""
    avg = ensemble_average(e)
    if np.abs(avg.entries).max() < 1e-300:
        raise ValueError("ensemble average is zero; PGM undefined")
    return square_root_measurement(e, psd_inv_sqrt(avg))


def square_root_measurement(e: dict[Hashable, LabeledOperator], root: LabeledOperator) -> Povm:
    """PGM elements root (state / n) root of the uniform ensemble {outcome:
    state} of n states, given `root`, the inverse square root of its average
    state on the support."""
    p = 1.0 / len(e)
    outcomes = {key: root @ (p * state) @ root for key, state in e.items()}
    return Povm(outcomes=outcomes, layout=root.layout)


def square_root_blocks(stacks: list[np.ndarray], roots: list[np.ndarray]) -> list[np.ndarray]:
    """The elements of `square_root_measurement` for operators given by their
    diagonal blocks: per block, the (n, w, w) stack of the n states' blocks
    and the block of the root give the stack of the elements' blocks."""
    return [root @ (1.0 / len(stack) * stack) @ root for root, stack in zip(roots, stacks)]


def split_complement(sums: list[np.ndarray], n: int) -> list[np.ndarray]:
    """The complement Delta = (1 - S) / n of the sum S of n elements, split
    uniformly, given by the diagonal blocks `sums` of S, one block or many.
    S is refused unless its checked spectrum (`support_spectra`) shows it
    Hermitian, PSD and at most the identity."""
    excess = max(vals.max() for vals, _, _ in support_spectra(sums)) - 1.0
    if excess > SUM_EXCESS_TOL:
        raise ValueError(
            f"element sum exceeds identity by {excess:.3e}; upstream PSD violation"
        )
    return [(np.eye(len(total)) - total) / n for total in sums]


def complete(p: Povm) -> Povm:
    """Add the uniformly split complement Delta = (1 - sum E) / n to each element."""
    total = p.element_sum()
    [delta] = split_complement([total.entries], len(p.outcomes))
    delta = LabeledOperator(p.layout, delta)
    outcomes = {key: el + delta for key, el in p.outcomes.items()}
    return Povm(outcomes=outcomes, layout=p.layout, completion_element=delta)


def std_pbtc_povm(N: int, M: int, d: int) -> Povm:
    """Completed PGM over the partially symmetrized signal states, keyed by port set.

    With M = 1 this reduces to the standard single-port PGM.
    """
    return complete(pgm(pbtc_ensemble(N, M, d)))


def clone_mpbt_povm(N: int, M: int, d: int) -> Povm:
    """Pullback of the multi-port PGM through the adjoint of 1 -> M cloning.

    An outcome is a port set I, one member per set: the mean of the signals
    of its M! orderings. The PGM element of that mean is the sum of the
    orderings' elements, so the pullback, which is linear, and the Delta
    completion act on C(N, M) outcomes. Tracing X2..XM and renaming X1 to X
    leaves the canonical layout [X, A1..AN].
    """
    check_family(comb(N, M), d ** (N + M))
    layout = mpbt_layout(N, M, d)
    members = {
        I: LabeledOperator(layout, mpbt_signal_entries(list(permutations(I)), N, d))
        for I in enumerate_unordered(N, M)
    }
    x_labels = [input_label(k) for k in range(1, M + 1)]
    outcomes = {
        I: clone_adjoint_on_input(element, x_labels, d, input_label())
        for I, element in pgm(members).outcomes.items()
    }
    return complete(Povm(outcomes=outcomes, layout=pbt_layout(N, d)))


def povm_to_json_dict(p: Povm) -> dict:
    """Serializable dump: outcome keys, dimensions, row-major [re, im] entries.
    Every key is a port set of the layout's N ports."""
    N = port_count(p.layout)

    def matrix_repr(op: LabeledOperator):
        flat = op.entries.ravel()
        return [[float(z.real), float(z.imag)] for z in flat]

    out = {
        "labels": list(p.layout.labels),
        "dims": list(p.layout.dims),
        "dimension": p.layout.dim,
        "outcomes": [
            {"key": {"kind": "port_set", "ports": list(k), "N": N}, "entries": matrix_repr(el)}
            for k, el in p.outcomes.items()
        ],
    }
    if p.completion_element is not None:
        out["completion_element"] = matrix_repr(p.completion_element)
    return out
