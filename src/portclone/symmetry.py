"""Symmetric-group machinery: permutation unitaries, symmetric-subspace
projectors, port index sets, and Stirling-number combinatorics."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
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

    def complement(self) -> tuple[int, ...]:
        inside = set(self.elements)
        return tuple(i for i in range(1, self.N + 1) if i not in inside)

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


class Permutation:
    """A bijection on {1..N}; its cycle decomposition is computed on first use."""

    def __init__(self, images: Sequence[int]):
        images = tuple(int(x) for x in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images}")
        self.images = images
        self.n = n

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * (self.n + 1)
        cycles = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self(nxt)
            cycles.append(tuple(cyc))
        return tuple(cycles)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation(cycles={self.cycles})"

    @property
    def n_cycles(self) -> int:
        """Cycle count including fixed points."""
        return len(self.cycles)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation([self(other(i)) for i in range(1, self.n + 1)])

    def apply_set(self, I: PortSet) -> PortSet:
        return PortSet(tuple(sorted(self(i) for i in I)), I.N)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))


def subgroup_fixing_complement(I: PortSet) -> list[Permutation]:
    """All permutations of 1..N that permute I and fix everything else."""
    members = []
    for images_of_I in itertools.permutations(I.elements):
        images = list(range(1, I.N + 1))
        for src, dst in zip(I.elements, images_of_I):
            images[src - 1] = dst
        members.append(Permutation(images))
    return members


def permuted_basis_indices(p: Permutation, d: int) -> np.ndarray:
    """Where V_p sends each basis state of N qudits: V_p |c> = |rows[c]>,
    with V_p |k_1 ... k_N> = |k_{p^-1(1)} ... k_{p^-1(N)}>."""
    dims = [d] * p.n
    digits = np.array(np.unravel_index(np.arange(d**p.n), dims))  # digit j of each index
    inv = p.inverse()
    return np.ravel_multi_index(tuple(digits[[inv(i) - 1 for i in range(1, p.n + 1)]]), dims)


def permutation_unitary(p: Permutation, d: int, slots: Sequence[str]) -> LabeledOperator:
    """Unitary permuting N qudit slots: V |k_1 ... k_N> = |k_{p^-1(1)} ... k_{p^-1(N)}>."""
    if len(slots) != p.n:
        raise ValueError(f"permutation acts on {p.n} slots but {len(slots)} labels given")
    layout = SubsystemLayout(slots, [d] * p.n)
    entries = np.zeros((layout.dim, layout.dim), dtype=complex)
    entries[permuted_basis_indices(p, d), np.arange(layout.dim)] = 1.0
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


def _slot_projector(layout: SubsystemLayout, slots: Sequence[int]) -> LabeledOperator:
    return LabeledOperator(layout, symmetrize_slots(np.eye(layout.dim), layout, slots, None))


def symmetric_projector_standalone(labels: Sequence[str], d: int) -> LabeledOperator:
    """Symmetric-subspace projector on exactly the given slots."""
    return _slot_projector(SubsystemLayout(labels, [d] * len(labels)), range(len(labels)))


def symmetric_projector(
    I: PortSet, d: int, full_layout: SubsystemLayout
) -> LabeledOperator:
    """Symmetric projector on ports I, acting as identity on the other subsystems."""
    return _slot_projector(full_layout, [full_layout.index(port_label(i)) for i in I])


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
