"""Optimal universal symmetric cloning map and its adjoint."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from portclone.states import mpbt_layout, pairing_pattern
from portclone.symmetry import sym_dim, symmetrize_slots
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
    work = state.relabel(dict(zip(state.layout.labels, out_labels[:K])))
    if M > K:
        extra = SubsystemLayout(out_labels[K:], [d] * (M - K))
        work = kron_compose([work, identity(extra)])
    sandwiched = symmetrize_slots(work.entries, work.layout, range(M), None)
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
    sandwiched = symmetrize_slots(op.entries, op.layout, slots, None)
    reduced = partial_trace(LabeledOperator(op.layout, sandwiched), x_labels[1:])
    scale = d / sym_dim(d, M)
    return (scale * reduced).relabel({x_labels[0]: out_label})


def cloned_signal_entries(
    i: int, N: int, M: int, d: int, idx: np.ndarray | None = None
) -> np.ndarray:
    """1 -> M optimal cloning applied to the X slot of the teleportation signal
    rho^i, on the basis indices `idx` of [X1..XM, A1..AN] (all by default).

    This is the target of the adjoint identity Tr[C^dag(E) rho] = Tr[E C(rho)],
    which evaluates the pullback POVM without forming it.
    """
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} out of range 1..{N}")
    layout = mpbt_layout(N, M, d)
    # rho^i on (X1, A) tensored with the identity on X2..XM, then Pi_M on X1..XM
    pattern = pairing_pattern(layout, [(0, M + i - 1)], idx)
    return d / sym_dim(d, M) / d**N * symmetrize_slots(pattern, layout, range(M), idx)
