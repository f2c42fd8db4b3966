"""Pretty good measurements, support completion, and the pullback POVM
realizing the clone-then-teleport baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from portclone.cloning import clone_adjoint_on_input
from portclone.states import (
    ensemble_average,
    input_label,
    mpbt_ensemble,
    pbtc_ensemble,
    pbt_layout,
)
from portclone.symmetry import PortSet, enumerate_unordered
from portclone.tensor_core import (
    LabeledOperator,
    SubsystemLayout,
    hermitian_eig,
    psd_inv_sqrt,
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

    def __len__(self) -> int:
        return len(self.outcomes)

    def element_sum(self) -> LabeledOperator:
        acc = np.zeros((self.layout.dim, self.layout.dim), dtype=complex)
        for el in self.outcomes.values():
            acc += el.entries
        return LabeledOperator(self.layout, acc)

    def validate(self, completeness_tol: float = COMPLETENESS_TOL):
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
        if dev > completeness_tol:
            raise ValueError(f"POVM elements sum to identity only within {dev:.3e}")


def pgm(e: dict[Hashable, LabeledOperator]) -> Povm:
    """Square-root measurement of the uniform ensemble {outcome: state}; sums to
    the average state's support projector, so it is generally incomplete until
    `complete` is applied."""
    avg = ensemble_average(e)
    if np.abs(avg.entries).max() < 1e-300:
        raise ValueError("ensemble average is zero; PGM undefined")
    root = psd_inv_sqrt(avg)
    p = 1.0 / len(e)
    outcomes = {key: root @ (p * state) @ root for key, state in e.items()}
    return Povm(outcomes=outcomes, layout=avg.layout)


def complete(p: Povm) -> Povm:
    """Add the uniformly split complement Delta = (1 - sum E) / n to each element."""
    total = p.element_sum()
    excess = hermitian_eig(total).eigenvalues.max() - 1.0
    if excess > SUM_EXCESS_TOL:
        raise ValueError(
            f"element sum exceeds identity by {excess:.3e}; upstream PSD violation"
        )
    n = len(p.outcomes)
    delta = LabeledOperator(
        p.layout, (np.eye(p.layout.dim) - total.entries) / n
    )
    outcomes = {key: el + delta for key, el in p.outcomes.items()}
    return Povm(outcomes=outcomes, layout=p.layout, completion_element=delta)


def std_pbtc_povm(N: int, M: int, d: int) -> Povm:
    """Completed PGM over the partially symmetrized signal states, keyed by port set.

    With M = 1 this reduces to the standard single-port PGM.
    """
    return complete(pgm(pbtc_ensemble(N, M, d)))


def clone_mpbt_povm(N: int, M: int, d: int) -> Povm:
    """Pullback of the multi-port PGM through the adjoint of 1 -> M cloning.

    Ordered outcomes sharing an underlying set are merged by summation
    before the Delta completion, so Delta is split over C(N, M) outcomes.
    """
    base = pgm(mpbt_ensemble(N, M, d))
    x_labels = [input_label(k) for k in range(1, M + 1)]
    layout = pbt_layout(N, d)
    merged: dict[PortSet, np.ndarray] = {}
    for J, element in base.outcomes.items():
        pulled = clone_adjoint_on_input(element, x_labels, d, input_label())
        pulled = pulled.permute_subsystems(layout.labels)
        merged[J.as_set()] = merged.get(J.as_set(), 0) + pulled.entries
    outcomes = {
        I: LabeledOperator(layout, merged[I]) for I in enumerate_unordered(N, M)
    }
    return complete(Povm(outcomes=outcomes, layout=layout))


def povm_to_json_dict(p: Povm) -> dict:
    """Serializable dump: outcome keys, dimensions, row-major [re, im] entries."""

    def key_repr(key):
        if isinstance(key, PortSet):
            return {"kind": "port_set", "ports": list(key.elements), "N": key.N}
        return {"kind": "index", "value": key}

    def matrix_repr(op: LabeledOperator):
        flat = op.entries.ravel()
        return [[float(z.real), float(z.imag)] for z in flat]

    out = {
        "labels": list(p.layout.labels),
        "dims": list(p.layout.dims),
        "dimension": p.layout.dim,
        "outcomes": [
            {"key": key_repr(k), "entries": matrix_repr(el)}
            for k, el in p.outcomes.items()
        ],
    }
    if p.completion_element is not None:
        out["completion_element"] = matrix_repr(p.completion_element)
    return out
