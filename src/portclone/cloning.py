"""Optimal universal symmetric cloning map and its adjoint."""

from __future__ import annotations

from typing import Sequence

from portclone.symmetry import check_slot_table, sym_dim, symmetrize_slots
from portclone.tensor_core import (
    LabeledOperator,
    SubsystemLayout,
    identity,
    kron_compose,
    partial_trace,
)


def optimal_clone_fidelity(M: int, d: int) -> float:
    """Single-clone fidelity of 1 -> M optimal cloning: (d + 2M - 1) / (M (d + 1))."""
    return (d + 2 * M - 1) / (M * (d + 1))


def clone_map(
    state: LabeledOperator, M: int, d: int, out_labels: Sequence[str] | None = None
) -> LabeledOperator:
    """K -> M optimal cloning: project K copies plus M-K maximally mixed
    qudits onto the symmetric subspace, normalized to preserve trace."""
    K = state.layout.n_subsystems
    if K > M:
        raise ValueError(f"cannot clone {K} copies into fewer slots M={M}")
    if any(dim != d for dim in state.layout.dims):
        raise ValueError("input slots must all have dimension d")
    if out_labels is None:
        out_labels = list(state.layout.labels) + [f"clone{k}" for k in range(K + 1, M + 1)]
    if len(out_labels) != M:
        raise ValueError(f"need {M} output labels, got {len(out_labels)}")
    # the symmetrizer's table of M! basis maps is refused before the
    # d^M-wide input (x) identity is formed
    check_slot_table(M, M, d**M)
    work = state.relabel(dict(zip(state.layout.labels, out_labels[:K])))
    if M > K:
        extra = SubsystemLayout(out_labels[K:], [d] * (M - K))
        work = kron_compose([work, identity(extra)])
    sandwiched = symmetrize_slots(work.entries, work.layout, range(M))
    return LabeledOperator(work.layout, sym_dim(d, K) / sym_dim(d, M) * sandwiched)


def clone_adjoint_on_input(
    op: LabeledOperator, x_labels: Sequence[str], d: int, out_label: str
) -> LabeledOperator:
    """Adjoint of the 1 -> M cloning map applied to the `x_labels` factor of `op`.

    From the trace pairing Tr[C(rho) Y] = Tr[rho C^dag(Y)]:
    C^dag(Y) = (d / d[M]) Tr_{slots 2..M}[ Pi_M Y Pi_M ].
    The surviving slot is renamed `out_label`.
    """
    M = len(x_labels)
    slots = [op.layout.index(l) for l in x_labels]
    sandwiched = symmetrize_slots(op.entries, op.layout, slots)
    reduced = partial_trace(LabeledOperator(op.layout, sandwiched), x_labels[1:])
    scale = d / sym_dim(d, M)
    return (scale * reduced).relabel({x_labels[0]: out_label})

