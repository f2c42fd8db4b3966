"""Builders for signal and resource states: maximally entangled pairs,
teleportation signal states, their partially symmetrized variants, and the
average states of their ensembles."""

from __future__ import annotations

import itertools
from math import comb, factorial, perm, prod
from typing import Hashable, Sequence

import numpy as np

from portclone.symmetry import (
    check_ports,
    enumerate_ordered,
    enumerate_unordered,
    port_label,
    sym_dim,
)
from portclone.tensor_core import LabeledOperator, SubsystemLayout, check_family, positions_in


LIST_NONZEROS = 2**24  # bound on the nonzeros of one position list of `mpbt_signal_nonzeros`


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


def _pattern_columns(
    dims: tuple[int, ...], pairs: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor of the pairing pattern of every pair list P in `pairs`, an
    (n, p, 2) array of positions of slots of one dimension d, on the ascending
    basis indices `idx` of slots of dimensions `dims`. The pattern of P is the
    product over its pairs (a, b) of sum_jk |jj><kk|_ab, times the identity on
    every other slot. Every pair must join an input slot to a port, so that
    raising both of its slots by one level stays in the weight sector `idx`.

    The pattern of P is F F^T, where F has one 0/1 column per base, an index
    whose paired slots are all at level 0. The column has its d^p ones where
    every pair is set to a common level and the other slots keep the base's.
    Returns the member number of every column, the positions in `idx` of its
    ones (one row per column), and the digit table of `idx` (one row per slot).
    """
    d = dims[pairs[0, 0, 0]]
    levels = np.array(list(itertools.product(range(d), repeat=pairs.shape[1])))
    strides = np.array([prod(dims[s + 1:]) for s in range(len(dims))])
    digits = np.array(np.unravel_index(idx, dims))
    a, b = pairs[..., 0], pairs[..., 1]
    member, base = np.nonzero(np.all((digits[a] == 0) & (digits[b] == 0), axis=1))
    step = (strides[a] + strides[b])[member]  # raises both slots of a pair by one level
    return member, positions_in(idx, idx[base, None] + step @ levels.T), digits


def _pattern_nonzeros(
    dims: tuple[int, ...], pairs: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of the pairing patterns of `_pattern_columns`, as three arrays
    (member number, row position and column position in `idx`) and the digit
    table of `idx`: every pair of ones of a column of F is a nonzero of F F^T."""
    member, pos, digits = _pattern_columns(dims, pairs, idx)
    L = pos.shape[1]
    rows, cols = np.repeat(pos, L, axis=1).ravel(), np.tile(pos, L).ravel()
    return np.repeat(member, L * L), rows, cols, digits


def _permuted_positions(
    dims: tuple[int, ...], sets: np.ndarray, idx: np.ndarray, digits: np.ndarray
):
    """For every permutation s of M slots but the identity, the (n, len(idx))
    positions in `idx` of each index of `idx` (digit table `digits`) with its
    digits on the slots of each set S in `sets`, an (n, M) array, permuted by s."""
    digits = digits[sets]  # (set, slot of S, index)
    strides = np.array([prod(dims[s + 1:]) for s in range(len(dims))])[sets][..., None]
    for s in itertools.islice(itertools.permutations(range(sets.shape[1])), 1, None):
        yield positions_in(idx, idx + ((digits[:, s] - digits) * strides).sum(axis=1))


def _symmetrized_nonzeros(
    dims: tuple[int, ...], fixed: int, sets: np.ndarray, idx: np.ndarray
):
    """Nonzeros of the sum over the slot sets S in `sets`, an (n, M) array of
    positions of slots of one dimension d, of M M! Pi_S (P_{f,s1} (x) 1) Pi_S
    on the ascending basis indices `idx` of slots of dimensions `dims`, as
    (row, column) position lists, one per permutation of M slots: the entry at
    (r, c) is the number of times (r, c) appears in the lists. P_{f,s1} is the
    pairing pattern of the slot `fixed` with the first slot of S (see
    `_pattern_columns`) and Pi_S symmetrizes the slots of S.

    Pi_S (P_{f,s1} (x) 1) Pi_S = (1/M) sum_{s in S} P_{f,s} Pi_S, because the
    permutations of S map P_{f,s1} onto every P_{f,s} and leave Pi_S fixed.
    So a member is M pairing patterns whose columns are gathered by every
    permutation of the digits on S; one list per permutation of M slots
    covers all members.
    """
    M = sets.shape[1]
    pairs = np.stack([np.full_like(sets, fixed), sets], axis=-1).reshape(-1, 1, 2)
    member, rows, cols, digits = _pattern_nonzeros(dims, pairs, idx)
    yield rows, cols  # the identity keeps every column
    flat = member // M * len(idx) + cols  # in each flattened table of moved positions
    for moved in _permuted_positions(dims, sets, idx, digits):
        yield rows, np.take(moved, flat)


def counted_entries(nonzeros, k: int) -> np.ndarray:
    """The k x k matrix of the nonzeros (lists, divisor, prefactor) of
    `pbtc_signal_nonzeros` or `mpbt_signal_nonzeros`: prefactor times the
    number of times each (row, column) appears in the lists, over divisor."""
    lists, divisor, prefactor = nonzeros
    counts = np.zeros(k * k, dtype=np.intp)
    for rows, cols in lists:
        counts += np.bincount(rows * k + cols, minlength=k * k)
    return prefactor * (counts.reshape(k, k) / divisor)


def _symmetrized_factor(
    dims: tuple[int, ...], fixed: int, slots: Sequence[int], idx: np.ndarray
) -> np.ndarray:
    """Factor of Pi_S (P_{f,s1} (x) 1) Pi_S for the one slot set S = `slots`
    (see `_symmetrized_nonzeros`) on the basis indices `idx`: it is
    F F^T / M!^2, where F = sum_sigma V_sigma F_P over the permutations V_sigma
    of S and F_P is the factor of P_{f,s1} (`_pattern_columns`). Returns F as
    an (M! d, columns) array of positions: F is the sum over its rows of the
    0/1 matrices with a one at (row entry, column)."""
    sets = np.array([slots])
    _, pos, digits = _pattern_columns(dims, np.array([[[fixed, slots[0]]]]), idx)
    terms = [pos] + [moved[0][pos] for moved in _permuted_positions(dims, sets, idx, digits)]
    return np.concatenate(terms, axis=1).T


def pbtc_signal_nonzeros(
    port_sets: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray
):
    """Mean of the partially symmetrized signal states
    (d^M / d[M]) Pi_I rho^{i1} Pi_I over the port sets I in `port_sets`, each M
    ports of 1..N, on the ascending basis indices `idx` of [X, A1..AN], as
    (lists, divisor, prefactor): the entry at (r, c) is prefactor times the
    number of times (r, c) appears in the position lists, over divisor
    (`counted_entries`). There is one list per permutation of M slots, each
    covering every port set. rho^i is Phi+ on (X, A_i), maximally mixed
    elsewhere, and i1 the smallest port of I; any other port of I gives the
    same state. One port set gives its signal, all C(N, M) of them the
    ensemble average.
    """
    ports = np.array(port_sets)  # port j is slot j
    n, M = ports.shape
    lists = _symmetrized_nonzeros((d,) * (N + 1), 0, ports, idx)
    return lists, M * factorial(M) * n, d**M / sym_dim(d, M) / d**N


def pbtc_signal_entries(
    port_sets: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray | None = None
) -> np.ndarray:
    """The mean of `pbtc_signal_nonzeros` as a matrix on the basis indices
    `idx` of [X, A1..AN] (all of them by default)."""
    idx = np.arange(d ** (N + 1)) if idx is None else idx
    return counted_entries(pbtc_signal_nonzeros(port_sets, N, d, idx), len(idx))


def pbtc_signal_factor(
    ports: Sequence[int], N: int, d: int, idx: np.ndarray
) -> tuple[float, np.ndarray]:
    """The signal of the one port set `ports` (see `pbtc_signal_entries`) on the
    basis indices `idx` of [X, A1..AN], as c F F^T: returns c and F in the
    positions form of `_symmetrized_factor`."""
    M = len(ports)
    c = d**M / sym_dim(d, M) / d**N / factorial(M) ** 2
    return c, _symmetrized_factor((d,) * (N + 1), 0, ports, idx)


def _mpbt_pairs(orderings: Sequence[Sequence[int]]) -> np.ndarray:
    """Pair lists (X_k, A_{j_k}) of the ordered outcomes J in `orderings`, as
    slot positions of [X1..XM, A1..AN]."""
    ports = np.array(orderings)
    M = ports.shape[1]
    return np.stack([np.broadcast_to(np.arange(M), ports.shape), M - 1 + ports], axis=-1)


def mpbt_signal_nonzeros(
    orderings: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray
):
    """Mean of the signal states of the ordered outcomes J in `orderings`, each
    M distinct ports of 1..N, on the ascending basis indices `idx` of
    [X1..XM, A1..AN], as (lists, divisor, prefactor) (see
    `pbtc_signal_nonzeros`). The orderings are split into lists of at most
    LIST_NONZEROS nonzeros, counting d^M per ordering and row of the block,
    at most what a row holds. The signal of J is Phi+ on each (X_k, A_{j_k}),
    maximally mixed elsewhere. One ordering gives its signal, all
    N!/(N-M)! of them the ensemble average."""
    pairs = _mpbt_pairs(orderings)
    n, M = pairs.shape[:2]
    step = max(1, LIST_NONZEROS // (len(idx) * d**M))  # orderings per list
    lists = (
        _pattern_nonzeros((d,) * (M + N), pairs[i:i + step], idx)[1:3] for i in range(0, n, step)
    )
    return lists, n * d**N, 1.0


def mpbt_signal_entries(
    orderings: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray | None = None
) -> np.ndarray:
    """The mean of `mpbt_signal_nonzeros` as a matrix on the basis indices
    `idx` of [X1..XM, A1..AN] (all of them by default)."""
    idx = np.arange(mpbt_layout(N, np.shape(orderings)[1], d).dim) if idx is None else idx
    return counted_entries(mpbt_signal_nonzeros(orderings, N, d, idx), len(idx))


def mpbt_signal_factor(
    orderings: Sequence[Sequence[int]], N: int, d: int, idx: np.ndarray
) -> tuple[float, np.ndarray]:
    """The mean signal of `orderings` (see `mpbt_signal_entries`) on the basis
    indices `idx` of [X1..XM, A1..AN], as c F F^T: returns c and F, the pattern
    factors of the orderings side by side, as a (d^M, columns) array of
    positions (F is the sum over its rows of the 0/1 matrices with a one at
    (row entry, column))."""
    pairs = _mpbt_pairs(orderings)
    n, M = pairs.shape[:2]
    _, pos, _ = _pattern_columns((d,) * (M + N), pairs, idx)
    return 1 / (n * d**N), pos.T


def mpbt_signal(J: Sequence[int], N: int, d: int) -> LabeledOperator:
    """Dense signal state for ordered outcome J; see `mpbt_signal_entries`."""
    J = check_ports(J, N)
    return LabeledOperator(mpbt_layout(N, len(J), d), mpbt_signal_entries([J], N, d))


def pbtc_signal(I: Sequence[int], N: int, d: int) -> LabeledOperator:
    """Dense partially symmetrized signal state; see `pbtc_signal_entries`.
    With I = (i,) it is the teleportation signal: Phi+ on (X, A_i), maximally
    mixed elsewhere."""
    return LabeledOperator(pbt_layout(N, d), pbtc_signal_entries([check_ports(I, N)], N, d))


def ensemble_average(e: dict[Hashable, LabeledOperator]) -> LabeledOperator:
    """Average state of the uniform ensemble {outcome: state}."""
    if not e:
        raise ValueError("ensemble must be nonempty")
    layout = next(iter(e.values())).layout
    if any(state.layout != layout for state in e.values()):
        raise ValueError("ensemble states must share one layout")
    p = 1.0 / len(e)
    dtype = np.result_type(*{state.entries.dtype for state in e.values()})
    acc = np.zeros((layout.dim, layout.dim), dtype=dtype)
    for state in e.values():
        acc += p * state.entries
    return LabeledOperator(layout, acc)


def pbtc_ensemble(N: int, M: int, d: int) -> dict[tuple[int, ...], LabeledOperator]:
    check_family(comb(N, M), d ** (N + 1))
    return {I: pbtc_signal(I, N, d) for I in enumerate_unordered(N, M)}


def mpbt_ensemble(N: int, M: int, d: int) -> dict[tuple[int, ...], LabeledOperator]:
    check_family(perm(N, M), d ** (N + M))
    return {J: mpbt_signal(J, N, d) for J in enumerate_ordered(N, M)}
