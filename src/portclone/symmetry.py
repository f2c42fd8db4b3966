"""Symmetric-group machinery: permutation unitaries, symmetric-subspace
projectors, port checks, and Stirling-number combinatorics."""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

import numpy as np

from portclone.tensor_core import BlockGroup, LabeledOperator, SubsystemLayout, check_cap


def port_label(i: int) -> str:
    """Canonical label of sender port i."""
    return f"A{i}"


def check_ports(ports: Sequence[int], N: int) -> tuple[int, ...]:
    """`ports` as a tuple, after checking that they are distinct ports of 1..N."""
    ports = tuple(ports)
    if not ports or len(set(ports)) != len(ports) or min(ports) < 1 or max(ports) > N:
        raise ValueError(f"ports {ports} must be distinct and in 1..{N}")
    return ports


def port_count(layout: SubsystemLayout) -> int:
    """Number N of the sender ports A1..AN in `layout`."""
    return sum(port_label(i) in layout.labels for i in range(1, layout.n_subsystems + 1))


def enumerate_unordered(N: int, M: int) -> list[tuple[int, ...]]:
    """All C(N, M) port sets, each ascending, in lexicographic order."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    return list(itertools.combinations(range(1, N + 1), M))


def enumerate_ordered(N: int, M: int) -> list[tuple[int, ...]]:
    """All N!/(N-M)! ordered port tuples in lexicographic order."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    return list(itertools.permutations(range(1, N + 1), M))


def cycle_count(s: Sequence[int]) -> int:
    """Number of cycles, fixed points included, of the permutation with
    0-based images s."""
    seen = [False] * len(s)
    count = 0
    for start in range(len(s)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = s[j]
    return count


def subgroup_fixing_complement(I: Sequence[int], N: int) -> np.ndarray:
    """All permutations of the ports 1..N that permute I and fix everything
    else, one per row as 0-based images in the order of
    `itertools.permutations(I)`: row s maps port j + 1 to port s[j] + 1."""
    slots = [i - 1 for i in check_ports(I, N)]
    members = np.tile(np.arange(N), (factorial(len(slots)), 1))
    members[:, slots] = list(itertools.permutations(slots))
    return members


def permuted_positions(group: BlockGroup, sets: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The one map of slot permutations on basis indices: for each p in
    `perms`, (P, M) 0-based images, and slot set S in `sets`, (n, M) slot
    positions, the (P, n, len(group.idx)) positions in their blocks of the
    `tensor_core.BlockGroup` `group` of its indices with the digit of slot
    S[p[k]] moved to slot S[k] (V_s |c> for the s mapping S[p[k]] to S[k], as
    in `permutation_unitary`). Built slot by slot, so no temporary outgrows
    the result; an index mapped out of its block raises ValueError."""
    if not len(perms):  # as every M = 1 factor passes: nothing to map or look up
        return np.empty((0, len(sets), len(group.idx)), dtype=np.intp)
    # slot S[j]'s digit moves to S[q[j]], q = p^-1: a step of its stride difference
    strides = group.strides[sets]
    steps = (strides[:, np.argsort(perms)] - strides[:, None]).transpose(2, 1, 0)[..., None]
    moved = np.full((len(perms), len(sets), len(group.idx)), group.idx)
    for slot, step in zip(sets.T, steps):
        moved += group.digits[slot] * step
    return group.positions(group.entry_block, moved)


def permutation_unitary(s: np.ndarray, d: int, slots: Sequence[str]) -> LabeledOperator:
    """Unitary permuting N qudit slots by the 0-based images s:
    V |k_1 ... k_N> = |k_{s^-1(1)} ... k_{s^-1(N)}>."""
    if sorted(s) != list(range(len(s))):
        raise ValueError(f"not a bijection on 0..{len(s) - 1}: {list(s)}")
    if len(slots) != len(s):
        raise ValueError(f"permutation acts on {len(s)} slots but {len(slots)} labels given")
    layout = SubsystemLayout(slots, [d] * len(s))
    group = BlockGroup([np.arange(layout.dim)], layout.dims)  # positions are indices
    entries = np.zeros((layout.dim, layout.dim))
    moved = permuted_positions(group, np.arange(len(s))[None], np.argsort(s)[None])[0, 0]
    entries[moved, np.arange(layout.dim)] = 1.0
    return LabeledOperator(layout, entries)


def port_slots(layout: SubsystemLayout, ports: Sequence[int]) -> list[int]:
    """Slot positions on `layout` of the sender ports `ports`."""
    return [layout.index(port_label(i)) for i in check_ports(ports, port_count(layout))]


def check_slot_table(m: int, n_slots: int, dim: int) -> None:
    """Refuse a table of the basis maps of the m! permutations of m slots,
    a digit per slot of the n_slots and basis state of the dimension `dim`,
    by its count before any permutation is listed."""
    perms = factorial(m)
    check_cap(perms * n_slots * dim, f"basis-map table of {perms} slot permutations")


def batches(n: int, bytes_per_item: int) -> list[slice]:
    """Consecutive slices of range(n) whose items take about 1 MB together."""
    size = max(1, 2**20 // bytes_per_item)
    return [slice(i, i + size) for i in range(0, n, size)]


def slot_gathers(group: BlockGroup, sets: Sequence[Sequence[int]]):
    """The one builder of symmetrizers as row gathers: over the slot sets S
    of `sets`, all of one size m, in the batches of `batches`, per batch its
    slice and, per block of w indices of `group`, the (set, member, w)
    `permuted_positions` under the m! permutations of S, for
    `mean_row_gathers`. A batch counts about 1 MB of `check_slot_table`'s
    entries, or one set's, which are refused before any permutation is listed."""
    m, n_slots, dim = len(sets[0]), len(group.dims), len(group.idx)
    check_slot_table(m, n_slots, dim)
    perms = np.array(list(itertools.permutations(range(m))))
    for batch in batches(len(sets), 8 * factorial(m) * n_slots * dim):
        positions = permuted_positions(group, np.array(sets[batch]), perms).swapaxes(0, 1)
        yield batch, np.split(positions, group.starts[1:-1], axis=-1)


def mean_row_gathers(stack: np.ndarray, gathers: np.ndarray) -> np.ndarray:
    """The mean over the members of `gathers`, an (n, members, w) array of
    row positions, of the row gathers A_k[g] of each matrix A_k of `stack`,
    (n, w, w) or one matrix for all n as (1, w, w), summed member by member."""
    at = np.arange(len(stack))[:, None]
    return sum(stack[at, g] for g in gathers.swapaxes(0, 1)) / gathers.shape[1]


def sandwich_row_gathers(stack: np.ndarray, gathers: np.ndarray) -> np.ndarray:
    """Pi_k A_k Pi_k = (Pi_k (Pi_k A_k)^dag)^dag for each A_k, with Pi_k A_k
    as in `mean_row_gathers`. The second pass gathers the rows of a
    contiguous copy of (Pi_k A_k)^dag, not the strided columns of Pi_k A_k."""
    rows = np.ascontiguousarray(mean_row_gathers(stack, gathers).conj().swapaxes(1, 2))
    return mean_row_gathers(rows, gathers).conj().swapaxes(1, 2)


def symmetrize_slots(a: np.ndarray, layout: SubsystemLayout, slots: Sequence[int]) -> np.ndarray:
    """Pi A Pi, where A is given by its entries `a` on `layout` and Pi
    symmetrizes the slot positions `slots`: Pi is the average of the slot
    permutations, each a map of basis states (`slot_gathers` on the basis as
    one block), so both passes of `sandwich_row_gathers` are means of row gathers."""
    [(_, [gathers])] = slot_gathers(BlockGroup([np.arange(layout.dim)], layout.dims), [slots])
    return sandwich_row_gathers(a[None], gathers)[0]


def symmetric_projector(I: Sequence[int], full_layout: SubsystemLayout) -> LabeledOperator:
    """Symmetric projector on ports I, acting as identity on the other subsystems."""
    # Pi 1 Pi, not the one pass Pi 1, whose entries can differ by an ulp at M >= 3
    return LabeledOperator(
        full_layout,
        symmetrize_slots(np.eye(full_layout.dim), full_layout, port_slots(full_layout, I)),
    )


def port_type_classes(nonzeros: tuple, outcomes: Sequence, group: BlockGroup) -> tuple:
    """The nonzeros (k, r, c, values) of a stack, one matrix per port set outcomes[k]
    on the basis `group.idx` of qudits of equal dimension, in S_N orbits (classes):
    V_s A V_s^dag gathers A's rows and columns by one basis map, so s permutes an
    entry's ports, port j of type (j in I, r_j, c_j), and a class is one multiset of
    types. Returns the values sorted by class, then by value, the class of each (from
    0) and each class's size N!/prod n_t!, whole if `outcomes` lists every port set."""
    (k, r, c, values), (N, d) = nonzeros, (len(group.dims), group.dims[0])
    in_I = np.zeros((len(outcomes), N), dtype=np.int64)
    in_I[np.arange(len(outcomes))[:, None], np.array(outcomes) - 1] = 1
    # each entry's types, sorted, as the base-2d^2 digits of one code
    types = np.sort((in_I[k] * d + group.digits.T[r]) * d + group.digits.T[c], axis=1)
    codes = types @ (2 * d * d) ** np.arange(N)
    order = np.lexsort((values, codes))
    first = np.ones(len(order), dtype=bool)
    first[1:] = codes[order[1:]] != codes[order[:-1]]
    rows = types[order[first]]
    # prod n_t! as the product over ports j of the count of ports i <= j of j's type
    place = ((rows[:, :, None] == rows[:, None, :]) & np.tri(N, dtype=bool)).sum(axis=2)
    return values[order], np.cumsum(first) - 1, factorial(N) // place.prod(axis=1)


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (permutations of n with k cycles)."""
    if k > n or k < 0 or n < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    # s(n, k) = s(n-1, k-1) + (n-1) * s(n-1, k), exact integers
    return stirling_first(n - 1, k - 1) + (n - 1) * stirling_first(n - 1, k)


def sym_dim(d: int, M: int) -> int:
    """Dimension of the symmetric subspace of M qudits: C(d+M-1, M)."""
    if d < 2 or M < 0:
        raise ValueError(f"need d >= 2 and M >= 0, got d={d}, M={M}")
    return comb(d + M - 1, M)
