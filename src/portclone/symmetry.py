"""Symmetric-group machinery: permutation unitaries, symmetric-subspace
projectors, port index sets, and Stirling-number combinatorics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

import numpy as np

from portclone.tensor_core import LabeledOperator, SubsystemLayout


def port_label(i: int) -> str:
    """Canonical label of sender port i."""
    return f"A{i}"


@dataclass(frozen=True, order=True)
class PortSet:
    """An unordered selection of M ports out of 1..N (stored sorted)."""

    elements: tuple[int, ...]
    N: int

    def __post_init__(self):
        if not self.elements:
            raise ValueError("port set must be nonempty")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError(f"port set must be strictly increasing, got {self.elements}")
        if self.elements[0] < 1 or self.elements[-1] > self.N:
            raise ValueError(f"ports {self.elements} out of range 1..{self.N}")

    @property
    def M(self) -> int:
        return len(self.elements)

    @property
    def smallest(self) -> int:
        return self.elements[0]

    def __contains__(self, i: int) -> bool:
        return i in self.elements

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True, order=True)
class OrderedPorts:
    """An ordered tuple of M distinct ports out of 1..N."""

    elements: tuple[int, ...]
    N: int

    def __post_init__(self):
        if not self.elements:
            raise ValueError("port tuple must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"ports must be pairwise distinct, got {self.elements}")
        if min(self.elements) < 1 or max(self.elements) > self.N:
            raise ValueError(f"ports {self.elements} out of range 1..{self.N}")

    @property
    def M(self) -> int:
        return len(self.elements)

    def as_set(self) -> PortSet:
        return PortSet(tuple(sorted(self.elements)), self.N)

    def __iter__(self):
        return iter(self.elements)


def enumerate_unordered(N: int, M: int) -> list[PortSet]:
    """All C(N, M) port sets in lexicographic order."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    return [PortSet(c, N) for c in itertools.combinations(range(1, N + 1), M)]


def enumerate_ordered(N: int, M: int) -> list[OrderedPorts]:
    """All N!/(N-M)! ordered port tuples in lexicographic order."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    return [OrderedPorts(p, N) for p in itertools.permutations(range(1, N + 1), M)]


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


def subgroup_fixing_complement(I: PortSet) -> np.ndarray:
    """All permutations of the ports that permute I and fix everything else,
    one per row as 0-based images: row s maps port j + 1 to port s[j] + 1."""
    ports = np.array(I.elements) - 1
    members = np.tile(np.arange(I.N), (factorial(I.M), 1))
    members[:, ports] = ports[np.array(list(itertools.permutations(range(I.M))))]
    return members


def permuted_basis_indices(s: np.ndarray, d: int) -> np.ndarray:
    """Where V_s sends each basis state of N = len(s) qudits: V_s |c> = |rows[c]>,
    with V_s |k_1 ... k_N> = |k_{s^-1(1)} ... k_{s^-1(N)}>."""
    dims = [d] * len(s)
    digits = np.array(np.unravel_index(np.arange(d ** len(s)), dims))  # digit j of each index
    return np.ravel_multi_index(tuple(digits[np.argsort(s)]), dims)


def permutation_unitary(s: np.ndarray, d: int, slots: Sequence[str]) -> LabeledOperator:
    """Unitary permuting N qudit slots by the 0-based images s:
    V |k_1 ... k_N> = |k_{s^-1(1)} ... k_{s^-1(N)}>."""
    if sorted(s) != list(range(len(s))):
        raise ValueError(f"not a bijection on 0..{len(s) - 1}: {list(s)}")
    if len(slots) != len(s):
        raise ValueError(f"permutation acts on {len(s)} slots but {len(slots)} labels given")
    layout = SubsystemLayout(slots, [d] * len(s))
    entries = np.zeros((layout.dim, layout.dim), dtype=complex)
    entries[permuted_basis_indices(s, d), np.arange(layout.dim)] = 1.0
    return LabeledOperator(layout, entries)


def _slot_gathers(
    layout: SubsystemLayout, slots: Sequence[int], idx: np.ndarray | None
) -> list[np.ndarray]:
    """For each permutation of the slot positions `slots`, the position in
    `idx` (ascending; all basis indices if None) of every basis state of `idx`
    with those slots permuted."""
    idx = np.arange(layout.dim) if idx is None else idx
    digits = np.array(np.unravel_index(idx, layout.dims))
    slots = list(slots)
    gathers = []
    for images in itertools.permutations(slots):
        permuted = digits.copy()
        permuted[slots] = digits[list(images)]
        target = np.ravel_multi_index(tuple(permuted), layout.dims)
        pos = np.searchsorted(idx, target)
        if not np.array_equal(idx[np.minimum(pos, len(idx) - 1)], target):
            raise ValueError("index set is not closed under the slot permutations")
        gathers.append(pos)
    return gathers


def symmetrize_slots(
    block: np.ndarray, layout: SubsystemLayout, slots: Sequence[int], idx: np.ndarray | None
) -> np.ndarray:
    """Pi A Pi on the basis indices `idx` (ascending; all if None), where A is
    given by its entries `block` on those indices and Pi symmetrizes the slot
    positions `slots`. `idx` must be closed under permuting those slots.

    Pi is the average of the slot permutations, each of which maps basis
    states to basis states, so both products are averages of row or column
    gathers of `block`.
    """
    gathers = _slot_gathers(layout, slots, idx)
    rows = sum(block[g] for g in gathers) / len(gathers)
    return sum(rows[:, g] for g in gathers) / len(gathers)


def symmetric_projector(
    I: PortSet, d: int, full_layout: SubsystemLayout
) -> LabeledOperator:
    """Symmetric projector on ports I, acting as identity on the other subsystems."""
    slots = [full_layout.index(port_label(i)) for i in I]
    return LabeledOperator(
        full_layout, symmetrize_slots(np.eye(full_layout.dim), full_layout, slots, None)
    )


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
