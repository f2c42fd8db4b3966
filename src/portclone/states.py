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
    vec = np.zeros(d * d)
    vec[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return LabeledOperator(
        SubsystemLayout([label_a, label_b], [d, d]), np.outer(vec, vec)
    )


def maximally_mixed(labels: Sequence[str], d: int) -> LabeledOperator:
    layout = SubsystemLayout(labels, [d] * len(labels))
    return LabeledOperator(layout, np.eye(layout.dim) / layout.dim)


def _pattern_nonzeros(
    dims: tuple[int, ...], pairs: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of the pairing pattern of every pair list P in `pairs`, an
    (n, p, 2) array of positions of slots of one dimension d, on the ascending
    basis indices `idx` of slots of dimensions `dims`, as three arrays (member
    number, row position and column position in `idx`) and the digit table
    of `idx`, one row per slot. The pattern of P is the product over its
    pairs (a, b) of sum_jk |jj><kk|_ab, times the identity on every other
    slot. Every pair must join an input slot to a port, so that each nonzero
    column stays in the weight sector `idx`.

    A row is nonzero when its digits agree within every pair. Its d^p nonzero
    columns set each pair to a common level and keep the other slots.
    """
    d = dims[pairs[0, 0, 0]]
    levels = np.array(list(itertools.product(range(d), repeat=pairs.shape[1])))
    strides = np.array([prod(dims[s + 1:]) for s in range(len(dims))])
    digits = np.array(np.unravel_index(idx, dims))
    a, b = pairs[..., 0], pairs[..., 1]
    member, row = np.nonzero(np.all(digits[a] == digits[b], axis=1))
    step = (strides[a] + strides[b])[member]  # raises both slots of a pair by one level
    base = idx[row] - (digits[a[member], row[:, None]] * step).sum(axis=1)
    cols = positions_in(idx, base[:, None] + step @ levels.T).ravel()
    return np.repeat(member, len(levels)), np.repeat(row, len(levels)), cols, digits


def _symmetrized_pairs(
    dims: tuple[int, ...], fixed: int, sets: np.ndarray, idx: np.ndarray | None
) -> np.ndarray:
    """Mean over the slot sets S in `sets`, an (n, M) array of positions of
    slots of one dimension d, of Pi_S (P_{f,s1} (x) 1) Pi_S on the ascending
    basis indices `idx` (all if None) of slots of dimensions `dims`. P_{f,s1}
    is the pairing pattern of the slot `fixed` with the first slot of S (see
    `_pattern_nonzeros`) and Pi_S symmetrizes the slots of S.

    Pi_S (P_{f,s1} (x) 1) Pi_S = (1/M) sum_{s in S} P_{f,s} Pi_S, because the
    permutations of S map P_{f,s1} onto every P_{f,s} and leave Pi_S fixed.
    So a member is M pairing patterns whose columns are gathered by every
    permutation of the digits on S; one scatter per permutation of M slots
    covers all members.
    """
    idx = np.arange(prod(dims)) if idx is None else idx
    n, M = sets.shape
    pairs = np.stack([np.full_like(sets, fixed), sets], axis=-1).reshape(-1, 1, 2)
    member, rows, cols, digits = _pattern_nonzeros(dims, pairs, idx)
    digits = digits[sets]  # (member, slot of S, index)
    strides = np.array([prod(dims[s + 1:]) for s in range(len(dims))])[sets][..., None]
    k = len(idx)
    counts = np.bincount(rows * k + cols, minlength=k * k)  # the identity keeps every column
    for s in itertools.islice(itertools.permutations(range(M)), 1, None):
        moved = positions_in(idx, idx + ((digits[:, s] - digits) * strides).sum(axis=1))
        counts += np.bincount(rows * k + moved[member // M, cols], minlength=k * k)
    return counts.reshape(k, k) / (M * factorial(M) * n)


def pbtc_signal_entries(
    port_sets: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray | None = None
) -> np.ndarray:
    """Mean of the partially symmetrized signal states
    (d^M / d[M]) Pi_I rho^{i1} Pi_I over the port sets I in `port_sets`, each M
    ports of 1..N, on the ascending basis indices `idx` of [X, A1..AN] (all of
    them by default). rho^i is Phi+ on (X, A_i), maximally mixed elsewhere, and
    i1 the smallest port of I; any other port of I gives the same state. One
    port set gives its signal, all C(N, M) of them the ensemble average.
    """
    ports = np.array([tuple(I) for I in port_sets])  # port j is slot j
    M = ports.shape[1]
    return d**M / sym_dim(d, M) / d**N * _symmetrized_pairs((d,) * (N + 1), 0, ports, idx)


def mpbt_signal_entries(
    orderings: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray | None = None
) -> np.ndarray:
    """Mean of the signal states of the ordered outcomes J in `orderings`, each
    M distinct ports of 1..N, on the ascending basis indices `idx` of
    [X1..XM, A1..AN] (all of them by default). The signal of J is Phi+ on each
    (X_k, A_{j_k}), maximally mixed elsewhere. One ordering gives its signal,
    all N!/(N-M)! of them the ensemble average; their patterns are counted in
    one scatter."""
    ports = np.array([tuple(J) for J in orderings])
    n, M = ports.shape
    idx = np.arange(mpbt_layout(N, M, d).dim) if idx is None else idx
    pairs = np.stack([np.broadcast_to(np.arange(M), ports.shape), M - 1 + ports], axis=-1)
    _, rows, cols, _ = _pattern_nonzeros((d,) * (M + N), pairs, idx)
    k = len(idx)
    return np.bincount(rows * k + cols, minlength=k * k).reshape(k, k) / (n * d**N)


def pbt_signal(i: int, N: int, d: int) -> LabeledOperator:
    """Dense signal state for outcome i: Phi+ on (X, A_i), maximally mixed
    elsewhere."""
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} out of range 1..{N}")
    return LabeledOperator(pbt_layout(N, d), pbtc_signal_entries([(i,)], N, d))


def mpbt_signal(J: OrderedPorts, N: int, d: int) -> LabeledOperator:
    """Dense signal state for ordered outcome J; see `mpbt_signal_entries`."""
    if J.N != N:
        raise ValueError(f"port tuple defined for N={J.N}, expected {N}")
    return LabeledOperator(mpbt_layout(N, J.M, d), mpbt_signal_entries([J], N, d))


def pbtc_signal(I: PortSet, N: int, d: int) -> LabeledOperator:
    """Dense partially symmetrized signal state; see `pbtc_signal_entries`."""
    if I.N != N:
        raise ValueError(f"port set defined for N={I.N}, expected {N}")
    return LabeledOperator(pbt_layout(N, d), pbtc_signal_entries([I], N, d))


def ensemble_average(e: dict[Hashable, LabeledOperator]) -> LabeledOperator:
    """Average state of the uniform ensemble {outcome: state}."""
    if not e:
        raise ValueError("ensemble must be nonempty")
    layout = next(iter(e.values())).layout
    if any(state.layout.labels != layout.labels for state in e.values()):
        raise ValueError("ensemble states must share one layout")
    p = 1.0 / len(e)
    dtype = np.result_type(*{state.entries.dtype for state in e.values()})
    acc = np.zeros((layout.dim, layout.dim), dtype=dtype)
    for state in e.values():
        acc += p * state.entries
    return LabeledOperator(layout, acc)


def pbtc_ensemble(N: int, M: int, d: int) -> dict[PortSet, LabeledOperator]:
    return {I: pbtc_signal(I, N, d) for I in enumerate_unordered(N, M)}


def mpbt_ensemble(N: int, M: int, d: int) -> dict[OrderedPorts, LabeledOperator]:
    return {J: mpbt_signal(J, N, d) for J in enumerate_ordered(N, M)}
