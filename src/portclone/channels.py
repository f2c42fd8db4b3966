"""Channel evaluation and fidelity engines.

`protocol_fidelity` evaluates the discrimination-sum formula sector by
sector: every operator it needs is block-diagonal in the weight sectors of
`weight_sectors`, so it never forms a full-dimension matrix. The dense POVM
routes below are the independent cross-checks: the same formula over dense
POVM elements, and a direct Choi-state evaluation of the reduced
single-clone channel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from portclone.cloning import clone_map, cloned_signal_entries
from portclone.measurements import Povm
from portclone.states import (
    input_label,
    max_entangled,
    maximally_mixed,
    mpbt_layout,
    mpbt_signal_entries,
    pbt_layout,
    pbt_signal,
    pbt_signal_entries,
    pbtc_signal_entries,
)
from portclone.symmetry import PortSet, enumerate_ordered, enumerate_unordered, port_label
from portclone.tensor_core import (
    LabeledOperator,
    SubsystemLayout,
    identity,
    kron_compose,
    partial_trace,
    psd_inv_sqrt_blocks,
    trace_product,
    weight_sectors,
)

OUTPUT_LABEL = "B"
REFERENCE_LABEL = "Xref"

F_CONSISTENCY_TOL = 1e-12

PROTOCOLS = ("std-pbtc", "clone-mpbt", "std-pbt", "mpbt", "clone")


# re-export: the cloning map is itself a channel evaluated here
clone = clone_map


@dataclass(frozen=True)
class FidelityReport:
    """Result of one fidelity evaluation."""

    protocol: str
    d: int
    N: int
    M: int
    F: float
    f: float
    per_clone_f: tuple[float, ...]
    delta_contribution: float
    runtime_ms: float
    input_dim: int = 0  # dimension entering the F <-> f conversion; d unless multi-slot
    n_blocks: int = 0  # diagonal blocks the evaluation split its operators into
    max_block_dim: int = 0  # dimension of the largest of them

    def __post_init__(self):
        dim = self.input_dim if self.input_dim else self.d
        if abs(self.f - avg_fidelity(self.F, dim)) > F_CONSISTENCY_TOL:
            raise ValueError("report fields F and f violate the conversion identity")
        if not -1e-10 <= self.F <= 1 + 1e-10:
            raise ValueError(f"entanglement fidelity {self.F} out of range")

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "d": self.d,
            "N": self.N,
            "M": self.M,
            "F": self.F,
            "f": self.f,
            "per_clone_f": list(self.per_clone_f),
            "delta_contribution": self.delta_contribution,
            "runtime_ms": self.runtime_ms,
            "n_blocks": self.n_blocks,
            "max_block_dim": self.max_block_dim,
        }


def avg_fidelity(F: float, d: int) -> float:
    """Average pure-input fidelity from entanglement fidelity: (F d + 1) / (d + 1)."""
    if not -1e-10 <= F <= 1 + 1e-10:
        raise ValueError(f"entanglement fidelity {F} out of [0, 1]")
    return (F * d + 1) / (d + 1)


def _teleport_resource(b: int, N: int, d: int) -> LabeledOperator:
    """Reduced resource after discarding all receiver ports except the one
    paired with sender port b: Phi+ on (A_b, B), maximally mixed elsewhere."""
    factors = [max_entangled(d, port_label(b), OUTPUT_LABEL)]
    rest = [port_label(j) for j in range(1, N + 1) if j != b]
    if rest:
        factors.append(maximally_mixed(rest, d))
    order = [port_label(i) for i in range(1, N + 1)] + [OUTPUT_LABEL]
    return kron_compose(factors).permute_subsystems(order)


def _clone_channel(
    povm: Povm, state: LabeledOperator, N: int, d: int, clone_slot: int
) -> LabeledOperator:
    """The reduced single-clone channel applied to the X slot of `state`;
    its other slots pass through, in front of the output slot B.

    For each outcome I the receiving port is the clone_slot-th smallest
    element of I; all other receiver ports are already traced out of the
    resource, leaving maximally mixed sender ports.
    """
    expected = pbt_layout(N, d).labels
    if povm.layout.labels != expected:
        raise ValueError(
            f"POVM layout {povm.layout.labels} does not match canonical {expected}"
        )
    passed = [l for l in state.layout.labels if l != input_label()] + [OUTPUT_LABEL]
    order = list(expected) + passed
    pass_identity = identity(SubsystemLayout(passed, [d] * len(passed)))
    out = None
    for I, element in povm.outcomes.items():
        resource = _teleport_resource(I.elements[clone_slot - 1], N, d)
        omega = kron_compose([state, resource]).permute_subsystems(order)
        big_e = kron_compose([element, pass_identity])
        term = partial_trace(big_e @ omega, expected)
        out = term if out is None else out + term
    return out


def single_clone_output(
    povm: Povm,
    input_state: LabeledOperator,
    N: int,
    d: int,
    clone_slot: int = 1,
) -> LabeledOperator:
    """Output of one retained clone slot for an input state on X."""
    if input_state.layout.labels != (input_label(),) or input_state.layout.dims != (d,):
        raise ValueError("input must live on the single slot X with dimension d")
    return _clone_channel(povm, input_state, N, d, clone_slot)


def entanglement_fidelity_formula(
    povm: Povm, signal_for_outcome: dict[PortSet, LabeledOperator]
) -> float:
    """Discrimination-sum route: (1/d^2) sum_I Tr[E^I rho^{i_1}]."""
    d = povm.layout.dims[0]
    total = 0.0
    for I, element in povm.outcomes.items():
        if I not in signal_for_outcome:
            raise KeyError(f"no signal state supplied for outcome {I}")
        total += trace_product(element.entries, signal_for_outcome[I].entries)
    return total / d**2


def slot_signals(
    povm: Povm, N: int, d: int, clone_slot: int = 1
) -> dict[PortSet, LabeledOperator]:
    """Teleportation signal states matched to each outcome's receiving port."""
    return {
        I: pbt_signal(I.elements[clone_slot - 1], N, d) for I in povm.outcomes
    }


def entanglement_fidelity_choi(
    povm: Povm, clone_slot: int, N: int, M: int, d: int
) -> float:
    """Direct route: feed half of a maximally entangled pair through the
    reduced channel and project the joint output on the maximally entangled
    state. Lives on a d^(N+3)-dimensional space."""
    phi_in = max_entangled(d, input_label(), REFERENCE_LABEL)
    out = _clone_channel(povm, phi_in, N, d, clone_slot)
    phi_out = max_entangled(d, REFERENCE_LABEL, OUTPUT_LABEL)
    return trace_product(out.entries, phi_out.entries)


def haar_average_check(
    povm: Povm,
    clone_slot: int,
    samples: int,
    seed: int,
    N: int,
    d: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the average pure-input fidelity.

    Returns (estimate, standard error). Haar sampling draws normalized
    complex Gaussian vectors with a fixed-seed generator. The channel is
    linear, so it is evaluated once on the matrix units |i><j|, and each
    sample's output is sum_ij psi_i conj(psi_j) Lambda(|i><j|).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    vecs = np.empty((samples, d), dtype=complex)
    for s in range(samples):
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        vecs[s] = vec / np.linalg.norm(vec)
    x_layout = SubsystemLayout([input_label()], [d])
    units = np.array([
        single_clone_output(povm, LabeledOperator(x_layout, unit), N, d, clone_slot).entries
        for unit in np.eye(d * d).reshape(d * d, d, d)
    ])  # Lambda(|i><j|) at position i * d + j
    rhos = np.einsum("si,sj->sij", vecs, vecs.conj()).reshape(samples, d * d)
    outs = np.tensordot(rhos, units, axes=1)
    vals = np.real(np.einsum("si,sij,sj->s", vecs.conj(), outs, vecs))
    stderr = vals.std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
    return float(vals.mean()), float(stderr)


def _engine_inputs(protocol: str, N: int, M: int, d: int):
    """The protocol as inputs of `_sector_fidelities`: layout, input slots,
    ensemble members as (outcome, signal builder), target keys per outcome
    and retained slot, target builders, and the input dimension."""
    if protocol in ("std-pbt", "std-pbtc"):
        outcomes = enumerate_unordered(N, M)
        members = [(I, partial(pbtc_signal_entries, I, N, d)) for I in outcomes]
        targets = {i: partial(pbt_signal_entries, i, N, d) for i in range(1, N + 1)}
        slots = {I: I.elements for I in outcomes}
        return pbt_layout(N, d), [input_label()], members, slots, targets, d
    layout = mpbt_layout(N, M, d)
    x_labels = [input_label(k) for k in range(1, M + 1)]
    ordered = enumerate_ordered(N, M)
    members = [(J, partial(mpbt_signal_entries, J, N, d)) for J in ordered]
    if protocol == "mpbt":
        return layout, x_labels, members, {J: (J,) for J in ordered}, dict(members), d**M
    # clone-mpbt: ordered outcomes with one underlying set form one outcome
    members = [(J.as_set(), build) for J, build in members]
    targets = {i: partial(cloned_signal_entries, i, N, M, d) for i in range(1, N + 1)}
    slots = {I: I.elements for I in enumerate_unordered(N, M)}
    return layout, x_labels, members, slots, targets, d


def _sector_fidelities(layout, x_labels, members, slots, targets, d_in):
    """Discrimination-sum fidelity of every retained slot k, summed over the
    weight sectors in which every operator involved is block-diagonal:

        F_k = d_in^-2 [ sum_J Tr(R eta_J R tau_{c(J),k}) / n_J
                        + sum_c Tr((1 - P) tau_{c,k}) / n_c ]

    over ensemble members J with outcome c(J), and outcomes c. R is the
    inverse square root of the average signal state and P its support
    projector; the second sum is the completion element's part.

    Only the first outcome c0 is evaluated, n_c times over: a port permutation
    maps it onto any outcome c with members and targets in order, keeps every
    sector and commutes with the average of all members, hence with R and P.

    Returns the per-slot F, the completion part of F_1, and the sector sizes.
    """
    sectors = weight_sectors(layout, x_labels)
    n_J, n_c = len(members), len(slots)
    roots, projectors = psd_inv_sqrt_blocks(
        [sum(build(idx) for _, build in members) / n_J for idx in sectors]
    )
    c0 = next(iter(slots))
    own = [build for c, build in members if c == c0]
    main, completion = np.zeros(len(slots[c0])), np.zeros(len(slots[c0]))
    for idx, root, proj in zip(sectors, roots, projectors):
        kernel = np.eye(len(idx)) - proj
        eta = sum(build(idx) for build in own)
        for k, key in enumerate(slots[c0]):
            tau = targets[key](idx)
            main[k] += trace_product(eta, root @ tau @ root)
            completion[k] += trace_product(kernel, tau)
    per_slot = (n_c * main / n_J + completion) / d_in**2
    return list(per_slot), completion[0] / d_in**2, [len(idx) for idx in sectors]


def _port_report(protocol: str, N: int, M: int, d: int) -> FidelityReport:
    start = time.perf_counter()
    inputs = _engine_inputs(protocol, N, M, d)
    d_in = inputs[-1]
    per_slot_F, delta_contribution, sizes = _sector_fidelities(*inputs)
    F = float(per_slot_F[0])
    return FidelityReport(
        protocol=protocol,
        d=d,
        N=N,
        M=M,
        F=F,
        f=avg_fidelity(F, d_in),
        per_clone_f=tuple(avg_fidelity(float(Fk), d_in) for Fk in per_slot_F),
        delta_contribution=float(delta_contribution),
        runtime_ms=(time.perf_counter() - start) * 1e3,
        input_dim=d_in,
        n_blocks=len(sizes),
        max_block_dim=max(sizes),
    )


def _clone_report(M: int, d: int) -> FidelityReport:
    """Pure optimal cloning with no teleportation: dense single-clone fidelity."""
    start = time.perf_counter()
    x_layout = SubsystemLayout([input_label()], [d])
    basis0 = np.zeros((d, d), dtype=complex)
    basis0[0, 0] = 1.0
    out_labels = [f"c{k}" for k in range(1, M + 1)]
    cloned = clone_map(LabeledOperator(x_layout, basis0), M, d, out_labels)
    marginal = partial_trace(cloned, out_labels[1:])
    f = float(np.real(marginal.entries[0, 0]))
    F = (f * (d + 1) - 1) / d
    runtime_ms = (time.perf_counter() - start) * 1e3
    return FidelityReport(
        protocol="clone",
        d=d,
        N=0,
        M=M,
        F=F,
        f=f,
        per_clone_f=(f,) * M,
        delta_contribution=0.0,
        runtime_ms=runtime_ms,
        n_blocks=1,
        max_block_dim=cloned.dim,
    )


def protocol_fidelity(protocol: str, d: int, N: int, M: int) -> FidelityReport:
    """Evaluate one protocol at one parameter point."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    if protocol == "clone":
        return _clone_report(M, d)
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if protocol == "std-pbt" and M != 1:
        raise ValueError("std-pbt transfers a single state; use M=1")
    return _port_report(protocol, N, M, d)
