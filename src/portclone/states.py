"""Builders for signal and resource states: maximally entangled pairs,
teleportation signal states, their partially symmetrized variants, and the
average states of their ensembles."""

from __future__ import annotations

import itertools
from math import comb, factorial, perm
from typing import Hashable, Sequence

import numpy as np

from portclone.symmetry import (
    check_ports,
    enumerate_ordered,
    enumerate_unordered,
    permutation_table,
    permuted_positions,
    port_label,
    sym_dim,
)
from portclone.tensor_core import BlockGroup, LabeledOperator, SubsystemLayout, check_family


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
    pairs: np.ndarray, group: BlockGroup
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor of the pairing pattern of every pair list P in `pairs`, an
    (n, p, 2) array of positions of slots of one dimension d, on every block
    of `group`, a `tensor_core.BlockGroup`. The pattern of P is the product
    over its pairs (a, b) of sum_jk |jj><kk|_ab, times the identity on every
    other slot. Every pair must join an input slot to a port, so that raising
    both of its slots by one level stays in the weight sector of the block.

    The pattern of P is F F^T, where F has one 0/1 column per base, an index
    whose paired slots are all at level 0. The column has its d^p ones where
    every pair is set to a common level and the other slots keep the base's.
    Returns, per column, its member number and block, and the positions in
    its block of its ones (one row per column). The columns come block by
    block, in each block base by base, ascending, and member by member within
    a base.
    """
    d = group.dims[pairs[0, 0, 0]]
    levels = np.array(list(itertools.product(range(d), repeat=pairs.shape[1])))
    zero = np.ascontiguousarray(group.digits.T == 0)  # one row per index
    a, b = pairs[..., 0], pairs[..., 1]
    base, member = np.nonzero(np.all(zero[:, a] & zero[:, b], axis=2))
    block = group.entry_block[base]
    step = (group.strides[a] + group.strides[b])[member]  # raises both slots of a pair by one level
    pos = group.positions(block[:, None], group.idx[base, None] + step @ levels.T)
    return member, block, pos


def _block_bounds(block: np.ndarray, n_blocks: int) -> list[int]:
    """Where each block's run starts in the ascending block numbers `block`,
    and its length last."""
    return np.searchsorted(block, np.arange(n_blocks + 1)).tolist()


def _pair_lists(block: np.ndarray, pos: np.ndarray, n_blocks: int):
    """Nonzeros of F F^T for F given by the positions `pos` of the ones of its
    columns (one row per column, in the ascending blocks `block`), as
    (row positions, column positions, bounds): every pair of ones of a column
    is a nonzero, and block b's are at bounds[b]:bounds[b + 1]."""
    L = pos.shape[1]
    bounds = [L * L * i for i in _block_bounds(block, n_blocks)]
    return np.repeat(pos, L, axis=1).ravel(), np.tile(pos, L).ravel(), bounds


def _factor_parts(block: np.ndarray, pos: np.ndarray, n_blocks: int) -> list[np.ndarray]:
    """A factor F as one (rows, columns) positions array per block, from the
    positions of its columns (one row per column, in the ascending blocks
    `block`)."""
    bounds = _block_bounds(block, n_blocks)
    return [pos[i:j].T for i, j in zip(bounds, bounds[1:])]


def _symmetrized_nonzeros(fixed: int, sets: np.ndarray, group: BlockGroup):
    """Nonzeros of the sum over the slot sets S in `sets`, an (n, M) array of
    positions of slots of one dimension d, of M M! Pi_S (P_{f,s1} (x) 1) Pi_S
    on every block of `group`, as one list of `_pair_lists` per permutation
    of M slots: the entry of block b at (r, c) is the number of times (r, c)
    appears in the lists' slices of block b.
    P_{f,s1} is the pairing pattern of the slot `fixed` with the first slot
    of S (see `_pattern_columns`) and Pi_S symmetrizes the slots of S.

    Pi_S (P_{f,s1} (x) 1) Pi_S = (1/M) sum_{s in S} P_{f,s} Pi_S, because the
    permutations of S map P_{f,s1} onto every P_{f,s} and leave Pi_S fixed.
    So a member is M pairing patterns whose columns are gathered by every
    permutation of the digits on S; one list per permutation of M slots
    covers all members.
    """
    M = sets.shape[1]
    pairs = np.stack([np.full_like(sets, fixed), sets], axis=-1).reshape(-1, 1, 2)
    member, block, pos = _pattern_columns(pairs, group)
    rows, cols, bounds = _pair_lists(block, pos, len(group.widths))
    yield rows, cols, bounds  # the identity keeps every column
    # each column's ones in its set's flattened table of moved positions
    flat = (member // M * len(group.idx) + group.starts[block])[:, None] + pos
    for p in permutation_table(M)[1:, None]:
        moved = permuted_positions(group, sets, p)
        yield rows, np.tile(np.take(moved, flat), pos.shape[1]).ravel(), bounds


def counted_entries(nonzeros, widths: Sequence[int]) -> list[np.ndarray]:
    """The k x k matrix of each block of width k in `widths`, from the
    nonzeros (lists, divisor, prefactor) of `pbtc_signal_nonzeros` or
    `mpbt_signal_nonzeros` on their group: prefactor times the number of
    times each (row, column) appears in the lists' slices of the block, over
    divisor."""
    lists, divisor, prefactor = nonzeros
    counts = [np.zeros(k * k, dtype=np.intp) for k in widths]
    for rows, cols, bounds in lists:
        for k, count, i, j in zip(widths, counts, bounds, bounds[1:]):
            count += np.bincount(rows[i:j] * k + cols[i:j], minlength=k * k)
        del rows, cols  # before the next list is built
    return [prefactor * (count.reshape(k, k) / divisor) for k, count in zip(widths, counts)]


def _symmetrized_factor(fixed: int, slots: Sequence[int], group: BlockGroup) -> list[np.ndarray]:
    """Factor of Pi_S (P_{f,s1} (x) 1) Pi_S for the one slot set S = `slots`
    (see `_symmetrized_nonzeros`) on every block of `group`: it is
    F F^T / M!^2, where F = sum_sigma V_sigma F_P over the permutations V_sigma
    of S and F_P is the factor of P_{f,s1} (`_pattern_columns`). Returns F per
    block as an (M! d, columns) array of positions: F is the sum over its rows
    of the 0/1 matrices with a one at (row entry, column)."""
    _, block, pos = _pattern_columns(np.array([[[fixed, slots[0]]]]), group)
    at = group.starts[block][:, None] + pos  # the ones' positions in the group
    perms = permutation_table(len(slots))[1:]  # (0, M) at M = 1
    terms = [pos] + list(permuted_positions(group, np.array([slots]), perms)[:, 0, at])
    return _factor_parts(block, np.concatenate(terms, axis=1), len(group.widths))


def pbtc_signal_nonzeros(port_sets: Sequence[Sequence[int]], group: BlockGroup):
    """Mean of the partially symmetrized signal states
    (d^M / d[M]) Pi_I rho^{i1} Pi_I over the port sets I in `port_sets`, each M
    ports of 1..N, on every block of `group` over [X, A1..AN], as
    (lists, divisor, prefactor): the entry of a block at (r, c) is prefactor
    times the number of times (r, c) appears in the lists' slices of the
    block, over divisor (`counted_entries`). There is one list per
    permutation of M slots, each covering every port set and block, block by
    block. rho^i is Phi+ on (X, A_i), maximally mixed elsewhere, and i1 the
    smallest port of I; any other port of I gives the same state. One port
    set gives its signal, all C(N, M) of them the ensemble average.
    """
    ports = np.array(port_sets)  # port j is slot j
    n, M = ports.shape
    d, N = group.dims[0], len(group.dims) - 1
    lists = _symmetrized_nonzeros(0, ports, group)
    return lists, M * factorial(M) * n, d**M / sym_dim(d, M) / d**N


def pbtc_signal_entries(port_sets: Sequence[Sequence[int]], N: int, d: int) -> np.ndarray:
    """The mean of `pbtc_signal_nonzeros` as a matrix on the whole basis of
    [X, A1..AN]."""
    group = BlockGroup([np.arange(d ** (N + 1))], (d,) * (N + 1))
    return counted_entries(pbtc_signal_nonzeros(port_sets, group), group.widths)[0]


def pbtc_signal_factor(ports: Sequence[int], group: BlockGroup) -> tuple[float, list[np.ndarray]]:
    """The signal of the one port set `ports` (see `pbtc_signal_nonzeros`) on
    every block of `group` over [X, A1..AN], as c F F^T: returns c and F per
    block in the positions form of `_symmetrized_factor`."""
    M = len(ports)
    d, N = group.dims[0], len(group.dims) - 1
    c = d**M / sym_dim(d, M) / d**N / factorial(M) ** 2
    return c, _symmetrized_factor(0, ports, group)


def cloned_signal_factor(i: int, M: int, group: BlockGroup) -> tuple[float, list[np.ndarray]]:
    """1 -> M optimal cloning applied to the X slot of the teleportation signal
    rho^i, on every block of `group` over [X1..XM, A1..AN], as c F F^T:
    returns c and F per block in the positions form of `_symmetrized_factor`.

    This is the target of the adjoint identity Tr[C^dag(E) rho] = Tr[E C(rho)],
    which evaluates the pullback POVM without forming it. C(rho^i) is
    (d / d[M]) d^-N Pi_M (P_{A_i,X1} (x) 1) Pi_M with Pi_M on X1..XM: the
    pbtc sandwich with the roles of the fixed slot and the symmetrized set
    swapped.
    """
    d, N = group.dims[0], len(group.dims) - M
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} out of range 1..{N}")
    c = d / sym_dim(d, M) / d**N / factorial(M) ** 2
    return c, _symmetrized_factor(M + i - 1, range(M), group)


def _mpbt_pairs(orderings: Sequence[Sequence[int]]) -> np.ndarray:
    """Pair lists (X_k, A_{j_k}) of the ordered outcomes J in `orderings`, as
    slot positions of [X1..XM, A1..AN]."""
    ports = np.array(orderings)
    M = ports.shape[1]
    return np.stack([np.broadcast_to(np.arange(M), ports.shape), M - 1 + ports], axis=-1)


def mpbt_signal_nonzeros(orderings: Sequence[Sequence[int]], group: BlockGroup):
    """Mean of the signal states of the ordered outcomes J in `orderings`, each
    M distinct ports of 1..N, on every block of `group` over [X1..XM, A1..AN],
    as (lists, divisor, prefactor) (see `pbtc_signal_nonzeros`). The
    orderings are split into lists of at most LIST_NONZEROS nonzeros,
    counting d^M per ordering and index of the group, at most what a row
    holds. The signal of J is Phi+ on each (X_k, A_{j_k}), maximally mixed
    elsewhere. One ordering gives its signal, all N!/(N-M)! of them the
    ensemble average."""
    pairs = _mpbt_pairs(orderings)
    n, M = pairs.shape[:2]
    d, N = group.dims[0], len(group.dims) - M
    step = max(1, LIST_NONZEROS // (len(group.idx) * d**M))  # orderings per list
    lists = (
        _pair_lists(*_pattern_columns(pairs[i:i + step], group)[1:], len(group.widths))
        for i in range(0, n, step)
    )
    return lists, n * d**N, 1.0


def mpbt_signal_entries(orderings: Sequence[Sequence[int]], N: int, d: int) -> np.ndarray:
    """The mean of `mpbt_signal_nonzeros` as a matrix on the whole basis of
    [X1..XM, A1..AN]."""
    layout = mpbt_layout(N, np.shape(orderings)[1], d)
    group = BlockGroup([np.arange(layout.dim)], layout.dims)
    return counted_entries(mpbt_signal_nonzeros(orderings, group), group.widths)[0]


def mpbt_signal_factor(
    orderings: Sequence[Sequence[int]], group: BlockGroup
) -> tuple[float, list[np.ndarray]]:
    """The mean signal of `orderings` (see `mpbt_signal_nonzeros`) on every
    block of `group` over [X1..XM, A1..AN], as c F F^T: returns c and F per
    block, the pattern factors of the orderings side by side, as a
    (d^M, columns) array of positions (F is the sum over its rows of the 0/1
    matrices with a one at (row entry, column))."""
    pairs = _mpbt_pairs(orderings)
    n, M = pairs.shape[:2]
    d, N = group.dims[0], len(group.dims) - M
    member, block, pos = _pattern_columns(pairs, group)
    if n > 1:  # member by member within each block
        order = np.argsort(block * n + member, kind="stable")
        block, pos = block[order], pos[order]
    return 1 / (n * d**N), _factor_parts(block, pos, len(group.widths))


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
