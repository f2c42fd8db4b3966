"""Dense operator algebra over labeled multi-qudit Hilbert spaces."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_DIM_CAP = 8192

HERMITIAN_RTOL = 1e-12
EIG_RECON_TOL = 1e-10
PSD_NEG_RTOL = 1e-10
PINV_CUTOFF = 1e-10


def dim_cap() -> int:
    """Active total-dimension cap (env PORTCLONE_DIM_CAP overrides the default)."""
    raw = os.environ.get("PORTCLONE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    return int(raw)


class DimensionCapError(ValueError):
    pass


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered list of distinct subsystem labels with their local dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    dim: int = field(compare=False)

    def __init__(self, labels: Sequence[str], dims: Sequence[int], cap: int | None = None):
        labels = tuple(labels)
        dims = tuple(int(d) for d in dims)
        if len(labels) != len(dims):
            raise ValueError(f"{len(labels)} labels but {len(dims)} dimensions")
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate subsystem labels: {dupes}")
        if any(d < 2 for d in dims):
            raise ValueError(f"local dimensions must be >= 2, got {dims}")
        total = 1
        for d in dims:
            total *= d
        effective_cap = dim_cap() if cap is None else cap
        if total > effective_cap:
            raise DimensionCapError(
                f"total dimension {total} exceeds cap {effective_cap} "
                f"(set PORTCLONE_DIM_CAP to raise it)"
            )
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
    """Dense complex square matrix over the subsystems of a layout.

    Entries are stored read-only; all operations return fresh instances.
    """

    def __init__(self, layout: SubsystemLayout, entries: np.ndarray):
        entries = np.array(entries, dtype=complex)  # converts and copies in one pass
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

    def __matmul__(self, other: "LabeledOperator") -> "LabeledOperator":
        if self.layout.labels != other.layout.labels:
            raise ValueError(
                f"layout mismatch: {self.layout.labels} vs {other.layout.labels}"
            )
        return LabeledOperator(self.layout, self.entries @ other.entries)

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        if self.layout.labels != other.layout.labels:
            raise ValueError("layout mismatch in addition")
        return LabeledOperator(self.layout, self.entries + other.entries)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        if self.layout.labels != other.layout.labels:
            raise ValueError("layout mismatch in subtraction")
        return LabeledOperator(self.layout, self.entries - other.entries)

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
    seen: set[str] = set()
    labels: list[str] = []
    dims: list[int] = []
    for op in ops:
        for l in op.layout.labels:
            if l in seen:
                raise ValueError(f"duplicate subsystem label across factors: {l!r}")
            seen.add(l)
        labels.extend(op.layout.labels)
        dims.extend(op.layout.dims)
    layout = SubsystemLayout(labels, dims)
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


def weight_sectors(layout: SubsystemLayout, conj_labels: Sequence[str]) -> list[np.ndarray]:
    """Basis indices grouped by weight, each group ascending.

    The weight of a basis state is its per-level count over the slots not in
    `conj_labels` minus its per-level count over `conj_labels`. Operators that
    commute with conj(T) on `conj_labels` and T on the other slots, for every
    diagonal unitary T, are block-diagonal in these groups.
    """
    conj = {layout.index(l) for l in conj_labels}
    sign = np.array([-1 if s in conj else 1 for s in range(layout.n_subsystems)])
    digits = np.array(np.unravel_index(np.arange(layout.dim), layout.dims))
    levels = range(max(layout.dims))
    weights = [((digits == level) * sign[:, None]).sum(axis=0) for level in levels]
    _, sector = np.unique(np.stack(weights, axis=1), axis=0, return_inverse=True)
    order = np.argsort(sector, kind="stable")
    return np.split(order, np.cumsum(np.bincount(sector))[:-1])


def _checked_eigh(a: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """eigh of one Hermitian block, with the Hermitian and reconstruction
    checks taken relative to `scale`, the largest |entry| of the whole operator."""
    dev = np.abs(a - a.conj().T).max()
    if dev > HERMITIAN_RTOL * max(scale, 1e-300):
        raise ValueError(f"operator is not Hermitian (max |A - A^dag| = {dev:.3e})")
    vals, vecs = np.linalg.eigh(a)
    recon = (vecs * vals) @ vecs.conj().T
    if np.abs(recon - a).max() > EIG_RECON_TOL * max(1.0, scale):
        raise ArithmeticError("eigendecomposition failed reconstruction check")
    return vals, vecs


def hermitian_eig(op: LabeledOperator) -> Spectrum:
    """Eigendecomposition with descending eigenvalues; rejects non-Hermitian input."""
    vals, vecs = _checked_eigh(op.entries, np.abs(op.entries).max())
    order = np.argsort(vals)[::-1]
    return Spectrum(eigenvalues=vals[order], eigenvectors=vecs[:, order])


def support_rank_blocks(blocks: Sequence[np.ndarray], rel_tol: float = PINV_CUTOFF) -> int:
    """Number of eigenvalues above rel_tol * max|eigenvalue| of a block-diagonal
    Hermitian operator given as its diagonal blocks; one checked eigh per block."""
    scale = max(np.abs(b).max() for b in blocks)
    vals = np.abs(np.concatenate([_checked_eigh(b, scale)[0] for b in blocks]))
    return int(np.sum(vals > rel_tol * vals.max()))


def psd_inv_sqrt_blocks(
    blocks: Sequence[np.ndarray], rel_tol: float = PINV_CUTOFF
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inverse square root on the support, and the support projector, of a
    block-diagonal PSD operator given as its diagonal blocks; one eigh per block.

    Eigenvalues below rel_tol * lambda_max are treated as zero, and the PSD
    check is relative to lambda_max too. lambda_max is taken over all blocks,
    so a block lying wholly below the cutoff is dropped.
    """
    scale = max(np.abs(b).max() for b in blocks)
    spectra = [_checked_eigh(b, scale) for b in blocks]
    lam_max = max(vals.max() for vals, _ in spectra)
    if lam_max <= 0:
        raise ValueError("operator has no positive part")
    lam_min = min(vals.min() for vals, _ in spectra)
    if lam_min < -PSD_NEG_RTOL * lam_max:
        raise ValueError(f"operator is not PSD: eigenvalue {lam_min:.6e}")
    roots, projectors = [], []
    for vals, vecs in spectra:
        keep = vals > rel_tol * lam_max
        kept, dropped = vecs[:, keep], vecs[:, ~keep]
        roots.append((kept / np.sqrt(vals[keep])) @ kept.conj().T)
        # built from the discarded eigenvectors, so it is exactly the identity
        # on a block of full rank
        projectors.append(np.eye(len(vals)) - dropped @ dropped.conj().T)
    return roots, projectors


def psd_inv_sqrt(op: LabeledOperator, rel_tol: float = PINV_CUTOFF) -> LabeledOperator:
    """Inverse square root on the support of a PSD operator.

    Eigenvalues below rel_tol * lambda_max are treated as zero, so
    B @ op @ B is the support projector rather than the identity.
    """
    roots, _ = psd_inv_sqrt_blocks([op.entries], rel_tol)
    return LabeledOperator(op.layout, roots[0])


def support_projector(op: LabeledOperator, rel_tol: float = PINV_CUTOFF) -> LabeledOperator:
    _, projectors = psd_inv_sqrt_blocks([op.entries], rel_tol)
    return LabeledOperator(op.layout, projectors[0])
