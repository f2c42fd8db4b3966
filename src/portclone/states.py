"""Builders for signal and resource states: maximally entangled pairs,
teleportation signal states, and their partially symmetrized variants."""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from portclone.symmetry import (
    OrderedPorts,
    PortSet,
    enumerate_ordered,
    enumerate_unordered,
    port_label,
    sym_dim,
    symmetrize_slots,
)
from portclone.tensor_core import LabeledOperator, SubsystemLayout


def input_label(k: int | None = None) -> str:
    """Label of the sender's input slot (X, or X1..XM for multi-slot input)."""
    return "X" if k is None else f"X{k}"


def pbt_layout(N: int, d: int) -> SubsystemLayout:
    """Canonical layout [X, A1..AN]."""
    return SubsystemLayout(
        [input_label()] + [port_label(i) for i in range(1, N + 1)], [d] * (N + 1)
    )


def mpbt_layout(N: int, M: int, d: int) -> SubsystemLayout:
    """Canonical layout [X1..XM, A1..AN]."""
    labels = [input_label(k) for k in range(1, M + 1)]
    labels += [port_label(i) for i in range(1, N + 1)]
    return SubsystemLayout(labels, [d] * (M + N))


def max_entangled(d: int, label_a: str, label_b: str) -> LabeledOperator:
    """Density operator of |Phi+> = d^{-1/2} sum_i |ii> on two labeled qudits."""
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return LabeledOperator(
        SubsystemLayout([label_a, label_b], [d, d]), np.outer(vec, vec.conj())
    )


def maximally_mixed(labels: Sequence[str], d: int) -> LabeledOperator:
    layout = SubsystemLayout(labels, [d] * len(labels))
    return LabeledOperator(layout, np.eye(layout.dim) / layout.dim)


def pairing_pattern(
    layout: SubsystemLayout, pairs: Sequence[tuple[int, int]], idx: np.ndarray | None
) -> np.ndarray:
    """Entries on the basis indices `idx` (all if None) of the product over slot
    pairs (a, b) of sum_jk |jj><kk|_ab, times the identity on every other slot:
    1 where both basis states agree within every pair and match on the other
    slots, else 0."""
    idx = np.arange(layout.dim) if idx is None else idx
    digits = np.array(np.unravel_index(idx, layout.dims))
    paired = np.all([digits[a] == digits[b] for a, b in pairs], axis=0)
    digits[[s for pair in pairs for s in pair]] = 0
    group = np.where(paired, np.ravel_multi_index(tuple(digits), layout.dims), -1)
    return ((group[:, None] == group[None, :]) & paired[:, None]).astype(float)


def pbt_signal_entries(i: int, N: int, d: int, idx: np.ndarray | None = None) -> np.ndarray:
    """Signal state for outcome i on the basis indices `idx` of [X, A1..AN]
    (all of them by default): Phi+ on (X, A_i), maximally mixed elsewhere."""
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} out of range 1..{N}")
    return pairing_pattern(pbt_layout(N, d), [(0, i)], idx) / d**N


def pbtc_signal_entries(I: PortSet, N: int, d: int, idx: np.ndarray | None = None) -> np.ndarray:
    """Partially symmetrized signal state (d^M / d[M]) Pi_I rho^{i1} Pi_I on the
    basis indices `idx` of [X, A1..AN] (all of them by default), with i1 the
    smallest port of I; any other port of I gives the same state."""
    if I.N != N:
        raise ValueError(f"port set defined for N={I.N}, expected {N}")
    rho = pbt_signal_entries(I.smallest, N, d, idx)
    if I.M == 1:
        return rho  # projector is the identity and the prefactor is 1
    return d**I.M / sym_dim(d, I.M) * symmetrize_slots(rho, pbt_layout(N, d), I.elements, idx)


def mpbt_signal_entries(
    J: OrderedPorts, N: int, d: int, idx: np.ndarray | None = None
) -> np.ndarray:
    """Signal state for ordered outcome J on the basis indices `idx` of
    [X1..XM, A1..AN] (all of them by default): Phi+ on each (X_k, A_{j_k})."""
    if J.N != N:
        raise ValueError(f"port tuple defined for N={J.N}, expected {N}")
    pairs = [(k, J.M + j - 1) for k, j in enumerate(J)]
    return pairing_pattern(mpbt_layout(N, J.M, d), pairs, idx) / d**N


def pbt_signal(i: int, N: int, d: int) -> LabeledOperator:
    """Dense signal state for outcome i; see `pbt_signal_entries`."""
    return LabeledOperator(pbt_layout(N, d), pbt_signal_entries(i, N, d))


def mpbt_signal(J: OrderedPorts, N: int, d: int) -> LabeledOperator:
    """Dense signal state for ordered outcome J; see `mpbt_signal_entries`."""
    return LabeledOperator(mpbt_layout(N, J.M, d), mpbt_signal_entries(J, N, d))


def pbtc_signal(I: PortSet, N: int, d: int) -> LabeledOperator:
    """Dense partially symmetrized signal state; see `pbtc_signal_entries`."""
    return LabeledOperator(pbt_layout(N, d), pbtc_signal_entries(I, N, d))


def ensemble_average(e: dict[Hashable, LabeledOperator]) -> LabeledOperator:
    """Average state of the uniform ensemble {outcome: state}."""
    if not e:
        raise ValueError("ensemble must be nonempty")
    layout = next(iter(e.values())).layout
    if any(state.layout.labels != layout.labels for state in e.values()):
        raise ValueError("ensemble states must share one layout")
    p = 1.0 / len(e)
    acc = np.zeros((layout.dim, layout.dim), dtype=complex)
    for state in e.values():
        acc += p * state.entries
    return LabeledOperator(layout, acc)


def pbtc_ensemble(N: int, M: int, d: int) -> dict[PortSet, LabeledOperator]:
    return {I: pbtc_signal(I, N, d) for I in enumerate_unordered(N, M)}


def mpbt_ensemble(N: int, M: int, d: int) -> dict[OrderedPorts, LabeledOperator]:
    return {J: mpbt_signal(J, N, d) for J in enumerate_ordered(N, M)}
