"""Builders for signal and resource states: maximally entangled pairs,
teleportation signal states, their partially symmetrized variants, and the
average states of their ensembles."""

from __future__ import annotations

import itertools
from math import factorial, prod
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
from portclone.tensor_core import LabeledOperator, SubsystemLayout, positions_in


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


def _pattern_nonzeros(
    layout: SubsystemLayout, pairs: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of `pairing_pattern(layout, P, idx)` for every pair list P in
    `pairs`, an (n, p, 2) array of slot positions of one dimension d, as
    three arrays: member number, row position and column position in `idx`.
    Every pair must join an input slot to a port, so that each nonzero
    column stays in the weight sector `idx`.

    A row is nonzero when its digits agree within every pair. Its d^p nonzero
    columns set each pair to a common level and keep the other slots.
    """
    d = layout.dims[pairs[0, 0, 0]]
    levels = np.array(list(itertools.product(range(d), repeat=pairs.shape[1])))
    strides = np.array([prod(layout.dims[s + 1:]) for s in range(layout.n_subsystems)])
    digits = np.array(np.unravel_index(idx, layout.dims))
    a, b = pairs[..., 0], pairs[..., 1]
    member, row = np.nonzero(np.all(digits[a] == digits[b], axis=1))
    step = (strides[a] + strides[b])[member]  # raises both slots of a pair by one level
    base = idx[row] - (digits[a[member], row[:, None]] * step).sum(axis=1)
    cols = positions_in(idx, base[:, None] + step @ levels.T)
    return np.repeat(member, len(levels)), np.repeat(row, len(levels)), cols.ravel()


def pbtc_average_entries(N: int, M: int, d: int, idx: np.ndarray) -> np.ndarray:
    """Average of `pbtc_signal_entries(I, N, d, idx)` over all C(N, M) port
    sets I, on the ascending basis indices `idx` of one weight sector of
    [X, A1..AN], counted into the block from integer positions.

    Pi_I rho^{i1} Pi_I = (1/M) sum_{j in I} rho^j Pi_I, because the
    permutations of I map rho^{i1} onto every rho^j and leave Pi_I fixed. So
    a member is M pairing patterns whose columns are gathered by every
    permutation of the digits on I; one scatter per permutation of M slots
    covers all members.
    """
    layout = pbt_layout(N, d)
    ports = np.array(list(itertools.combinations(range(1, N + 1), M)))  # port j is slot j
    pairs = np.stack([np.zeros_like(ports), ports], axis=-1).reshape(-1, 1, 2)
    member, rows, cols = _pattern_nonzeros(layout, pairs, idx)
    outcome = member // M
    digits = np.array(np.unravel_index(idx, layout.dims))[ports]  # (outcome, slot of I, index)
    strides = (d ** (N - ports))[..., None]
    k = len(idx)
    counts = np.zeros(k * k)
    for s in itertools.permutations(range(M)):
        moved = positions_in(idx, idx + ((digits[:, s] - digits) * strides).sum(axis=1))
        counts += np.bincount(rows * k + moved[outcome, cols], minlength=k * k)
    scale = d**M / sym_dim(d, M) / (M * factorial(M) * len(ports) * d**N)
    return scale * counts.reshape(k, k)


def mpbt_average_entries(N: int, M: int, d: int, idx: np.ndarray) -> np.ndarray:
    """Average of `mpbt_signal_entries(J, N, d, idx)` over all N!/(N-M)!
    ordered outcomes J, on the ascending basis indices `idx` of one weight
    sector of [X1..XM, A1..AN], counted into the block in one scatter."""
    ports = np.array(list(itertools.permutations(range(M, M + N), M)))  # slots of A1..AN
    pairs = np.stack([np.broadcast_to(np.arange(M), ports.shape), ports], axis=-1)
    _, rows, cols = _pattern_nonzeros(mpbt_layout(N, M, d), pairs, idx)
    k = len(idx)
    counts = np.bincount(rows * k + cols, minlength=k * k)
    return counts.reshape(k, k) / (len(ports) * d**N)


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
