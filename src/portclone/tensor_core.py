"""Dense operator algebra over labeled multi-qudit Hilbert spaces."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import prod
from typing import Iterable, Mapping, Sequence

import numpy as np

DIM_CAP = 8192  # widest matrix any route may form; no array holds more than DIM_CAP**2 entries

HERMITIAN_RTOL = 1e-12
EIG_RECON_TOL = 1e-10
PSD_NEG_RTOL = 1e-10
PINV_CUTOFF = 1e-10


class DimensionCapError(ValueError):
    pass


def check_dims(dims: Sequence[int]) -> None:
    """Refuse local dimensions below 2."""
    if any(d < 2 for d in dims):
        raise ValueError(f"local dimensions must be >= 2, got {tuple(dims)}")


def check_cap(entries: int, what: str) -> None:
    """Refuse an array `what` with more entries than a DIM_CAP-wide matrix."""
    if entries > DIM_CAP**2:
        raise DimensionCapError(f"{what} exceeds cap {DIM_CAP}")


def check_family(count: int, dim: int) -> None:
    """Refuse a family of `count` operators of dimension `dim` whose entries
    together outnumber those of one DIM_CAP-wide matrix."""
    check_cap(count * dim**2, f"family of {count} operators of dimension {dim}")


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered list of distinct subsystem labels with their local dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    dim: int = field(compare=False)

    def __init__(self, labels: Sequence[str], dims: Sequence[int]):
        labels = tuple(labels)
        dims = tuple(int(d) for d in dims)
        if len(labels) != len(dims):
            raise ValueError(f"{len(labels)} labels but {len(dims)} dimensions")
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate subsystem labels: {dupes}")
        check_dims(dims)
        total = prod(dims)
        check_cap(total**2, f"total dimension {total}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", total)

    @property
    def n_subsystems(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown subsystem label {label!r}; have {list(self.labels)}")

    def restricted(self, keep: Sequence[str]) -> "SubsystemLayout":
        """Sub-layout of `keep` labels in this layout's relative order."""
        keep_set = set(keep)
        labels = [l for l in self.labels if l in keep_set]
        dims = [self.dims[self.index(l)] for l in labels]
        return SubsystemLayout(labels, dims)


class LabeledOperator:
    """Dense square matrix over the subsystems of a layout.

    Entries are stored read-only, as float64 when real and as complex128 only
    when complex; all operations return fresh instances.
    """

    def __init__(self, layout: SubsystemLayout, entries: np.ndarray):
        entries = np.array(entries, dtype=np.result_type(np.asarray(entries), float))  # copies
        if entries.shape != (layout.dim, layout.dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match layout dimension {layout.dim}"
            )
        entries.setflags(write=False)
        self.layout = layout
        self.entries = entries

    @property
    def dim(self) -> int:
        return self.layout.dim

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def _check_layout(self, other: "LabeledOperator") -> None:
        """Refuse an operand on another layout: other labels, order or dimensions."""
        if self.layout != other.layout:
            raise ValueError(f"layout mismatch: {self.layout} vs {other.layout}")

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check_layout(other)
        return LabeledOperator(self.layout, self.entries @ other.entries)

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check_layout(other)
        return LabeledOperator(self.layout, self.entries + other.entries)

    def __mul__(self, scalar: complex) -> "LabeledOperator":
        return LabeledOperator(self.layout, self.entries * scalar)

    __rmul__ = __mul__

    def relabel(self, mapping: Mapping[str, str]) -> "LabeledOperator":
        """Rename subsystems without touching entries."""
        labels = [mapping.get(l, l) for l in self.layout.labels]
        return LabeledOperator(SubsystemLayout(labels, self.layout.dims), self.entries)

    def permute_subsystems(self, new_labels: Sequence[str]) -> "LabeledOperator":
        """Reorder the tensor factors to `new_labels` (same label set)."""
        if sorted(new_labels) != sorted(self.layout.labels):
            raise ValueError(
                f"permutation {list(new_labels)} is not over labels {list(self.layout.labels)}"
            )
        n = self.layout.n_subsystems
        perm = [self.layout.index(l) for l in new_labels]
        tensor = self.entries.reshape(self.layout.dims + self.layout.dims)
        tensor = tensor.transpose(perm + [p + n for p in perm])
        new_dims = [self.layout.dims[p] for p in perm]
        new_layout = SubsystemLayout(new_labels, new_dims)
        d = new_layout.dim
        return LabeledOperator(new_layout, tensor.reshape(d, d))

    def __repr__(self) -> str:
        return f"LabeledOperator(labels={self.layout.labels}, dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def identity(layout: SubsystemLayout) -> LabeledOperator:
    return LabeledOperator(layout, np.eye(layout.dim))


def kron_compose(ops: Iterable[LabeledOperator]) -> LabeledOperator:
    """Tensor product of operators on disjoint label sets, in input order."""
    ops = list(ops)
    if not ops:
        raise ValueError("kron_compose needs at least one operator")
    # SubsystemLayout refuses a label shared by two factors, and names it
    layout = SubsystemLayout(
        [l for op in ops for l in op.layout.labels], [d for op in ops for d in op.layout.dims]
    )
    entries = ops[0].entries
    for op in ops[1:]:
        entries = np.kron(entries, op.entries)
    return LabeledOperator(layout, entries)


def partial_trace(op: LabeledOperator, drop: Iterable[str]) -> LabeledOperator:
    """Trace out the subsystems in `drop`, keeping the rest in relative order."""
    drop = set(drop)
    for l in drop:
        if l not in op.layout.labels:
            raise KeyError(f"cannot trace out unknown label {l!r}")
    n = op.layout.n_subsystems
    tensor = op.entries.reshape(op.layout.dims + op.layout.dims)
    # contract bra/ket axes of dropped subsystems, highest axis first
    drop_positions = sorted(
        (op.layout.index(l) for l in drop), reverse=True
    )
    remaining = n
    for pos in drop_positions:
        tensor = np.trace(tensor, axis1=pos, axis2=pos + remaining)
        remaining -= 1
    keep = [l for l in op.layout.labels if l not in drop]
    if not keep:
        # tracing everything leaves a 1x1 matrix holding the full trace
        return LabeledOperator(SubsystemLayout([], []), np.asarray(tensor).reshape(1, 1))
    keep_layout = op.layout.restricted(keep)
    d = keep_layout.dim
    return LabeledOperator(keep_layout, tensor.reshape(d, d))


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[AB] as an elementwise sum, without forming the product."""
    return float(np.real(np.sum(a * b.T)))


def sector_sizes(dims: Sequence[int], n_conj: int) -> list[int]:
    """Sizes of the groups of `weight_sectors(dims, n_conj)`, in its order,
    counted slot by slot from the weight vectors without enumerating the
    basis."""
    counts = {(0,) * max(dims): 1}
    for s, d in enumerate(dims):
        sign = -1 if s < n_conj else 1
        grown: dict[tuple[int, ...], int] = {}
        for w, n in counts.items():
            for level in range(d):
                key = w[:level] + (w[level] + sign,) + w[level + 1:]
                grown[key] = grown.get(key, 0) + n
        counts = grown
    return [counts[w] for w in sorted(counts)]


def weight_sectors(
    dims: Sequence[int], n_conj: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Basis indices of slots of dimensions `dims` grouped by weight, each
    group ascending, and the weight vector of each group, one row per group
    in lexicographic order.

    The weight of a basis state is its per-level count over the slots after
    the first `n_conj` minus its per-level count over those `n_conj`.
    Operators that commute with conj(T) on the first `n_conj` slots and T on
    the others, for every diagonal unitary T, are block-diagonal in these
    groups.
    """
    basis = np.arange(prod(dims))
    weights = np.zeros((len(basis), max(dims)), dtype=np.min_scalar_type(-len(dims)))
    for s, digit in enumerate(np.unravel_index(basis, dims)):
        weights[basis, digit] += -1 if s < n_conj else 1
    order = np.lexsort(weights.T[::-1])  # stable, so each group stays ascending
    weights = weights[order]
    starts = np.flatnonzero(np.any(weights[1:] != weights[:-1], axis=1)) + 1
    return weights[np.r_[0, starts]].astype(int), np.split(order, starts)


class BlockGroup:
    """Diagonal blocks of an operator on the basis of slots of dimensions
    `dims`, built in one pass. Each block is an ascending array of basis
    indices; `idx` holds them concatenated block by block, block b at
    starts[b]:starts[b + 1], and `entry_block` the block of each entry of
    `idx`. `strides` holds each slot's place value and `digits` the digit
    table of `idx`, one row per slot. Two tables over the whole basis give
    each index's position in its block (`basis_pos`) and its block in the
    group (`basis_block`, -1 outside)."""

    def __init__(self, blocks: Sequence[np.ndarray], dims: Sequence[int]):
        self.dims = tuple(dims)
        self.strides = np.array([prod(self.dims[s + 1:]) for s in range(len(self.dims))])
        dim = prod(self.dims)
        self.widths = [len(b) for b in blocks]
        self.idx = np.concatenate(blocks)
        self.starts = np.array(list(accumulate(self.widths, initial=0)))
        self.entry_block = np.repeat(np.arange(len(blocks)), self.widths)
        self.basis_block = np.full(dim, -1)
        self.basis_block[self.idx] = self.entry_block
        self.basis_pos = np.zeros(dim, dtype=np.intp)
        self.basis_pos[self.idx] = np.arange(len(self.idx)) - self.starts[self.entry_block]
        self.digits = np.array(np.unravel_index(self.idx, self.dims))

    def positions(self, source: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Position in its block of every basis index in `targets`; raises
        ValueError unless each lies in the block `source` (block numbers,
        broadcast against `targets`) of the index it was reached from."""
        if np.any(self.basis_block[targets] != source):
            raise ValueError("index set is not closed under the basis map")
        return self.basis_pos[targets]


def _checked_eigh(a: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """eigh of one Hermitian block, with the Hermitian and reconstruction
    checks taken relative to `scale`, the largest |entry| of the whole operator.
    Both checks run over slabs of about 2**18 entries, so that no temporary
    holds a block's worth of entries."""
    rows = max(1, 2**18 // len(a))
    slabs = [slice(i, i + rows) for i in range(0, len(a), rows)]
    dev = max(np.abs(a[s] - a[:, s].conj().T).max() for s in slabs)
    if dev > HERMITIAN_RTOL * max(scale, 1e-300):
        raise ValueError(f"operator is not Hermitian (max |A - A^dag| = {dev:.3e})")
    vals, vecs = np.linalg.eigh(a)
    vecs_h = vecs.conj().T  # a view when real
    recon_dev = max(np.abs((vecs[s] * vals) @ vecs_h - a[s]).max() for s in slabs)
    if recon_dev > EIG_RECON_TOL * max(1.0, scale):
        raise ArithmeticError("eigendecomposition failed reconstruction check")
    return vals, vecs


def hermitian_eig(op: LabeledOperator) -> Spectrum:
    """Eigendecomposition with descending eigenvalues; rejects non-Hermitian input."""
    vals, vecs = _checked_eigh(op.entries, np.abs(op.entries).max())
    order = np.argsort(vals)[::-1]
    return Spectrum(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def support_spectra(
    blocks: Sequence[np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Checked spectrum of a block-diagonal PSD operator given as its diagonal
    blocks, one eigh per block: per block the ascending eigenvalues, the
    eigenvectors and the mask of the eigenvalues kept as its support.

    Eigenvalues below PINV_CUTOFF * lambda_max are treated as zero, and the PSD
    check is relative to lambda_max too. lambda_max is taken over all blocks,
    so a block lying wholly below the cutoff keeps nothing.
    """
    scale = max(np.abs(b).max() for b in blocks)
    spectra = [_checked_eigh(b, scale) for b in blocks]
    lam_max = max(vals.max() for vals, _ in spectra)
    if lam_max <= 0:
        raise ValueError("operator has no positive part")
    lam_min = min(vals.min() for vals, _ in spectra)
    if lam_min < -PSD_NEG_RTOL * lam_max:
        raise ValueError(f"operator is not PSD: eigenvalue {lam_min:.6e}")
    return [(vals, vecs, vals > PINV_CUTOFF * lam_max) for vals, vecs in spectra]


def psd_inv_sqrt_blocks(
    blocks: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inverse square root on the support, and the support projector, of a
    block-diagonal PSD operator given as its diagonal blocks, with the support
    of `support_spectra`."""
    roots, projectors = [], []
    for vals, vecs, keep in support_spectra(blocks):
        kept, dropped = vecs[:, keep], vecs[:, ~keep]
        roots.append((kept / np.sqrt(vals[keep])) @ kept.conj().T)
        # built from the discarded eigenvectors, so it is exactly the identity
        # on a block of full rank
        projectors.append(np.eye(len(vals)) - dropped @ dropped.conj().T)
    return roots, projectors


def psd_inv_sqrt(op: LabeledOperator) -> LabeledOperator:
    """Inverse square root on the support of a PSD operator.

    Eigenvalues below PINV_CUTOFF * lambda_max are treated as zero, so
    B @ op @ B is the support projector rather than the identity.
    """
    roots, _ = psd_inv_sqrt_blocks([op.entries])
    return LabeledOperator(op.layout, roots[0])


def support_projector(op: LabeledOperator) -> LabeledOperator:
    _, projectors = psd_inv_sqrt_blocks([op.entries])
    return LabeledOperator(op.layout, projectors[0])
