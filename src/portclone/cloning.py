"""Optimal universal symmetric cloning map and its adjoint."""

from __future__ import annotations

from math import factorial
from typing import Sequence

import numpy as np

from portclone.states import _symmetrized_factor
from portclone.symmetry import sym_dim, symmetrize_slots
from portclone.tensor_core import (
    BlockGroup,
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


def cloned_signal_factor(
    i: int, N: int, M: int, d: int, group: BlockGroup
) -> tuple[float, list[np.ndarray]]:
    """1 -> M optimal cloning applied to the X slot of the teleportation signal
    rho^i, on every block of `group` over [X1..XM, A1..AN], as c F F^T:
    returns c and F per block in the positions form of
    `states._symmetrized_factor`.

    This is the target of the adjoint identity Tr[C^dag(E) rho] = Tr[E C(rho)],
    which evaluates the pullback POVM without forming it. C(rho^i) is
    (d / d[M]) d^-N Pi_M (P_{A_i,X1} (x) 1) Pi_M with Pi_M on X1..XM: the
    pbtc sandwich with the roles of the fixed slot and the symmetrized set
    swapped.
    """
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} out of range 1..{N}")
    c = d / sym_dim(d, M) / d**N / factorial(M) ** 2
    return c, _symmetrized_factor((d,) * (M + N), M + i - 1, range(M), group)
