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
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from math import comb

import numpy as np

from portclone.cloning import optimal_clone_fidelity
from portclone.measurements import Povm
from portclone.states import (
    cloned_signal_factor,
    counted_entries,
    input_label,
    max_entangled,
    mpbt_signal_factor,
    mpbt_signal_nonzeros,
    pbt_layout,
    pbtc_signal,
    pbtc_signal_factor,
    pbtc_signal_nonzeros,
)
from portclone.symmetry import enumerate_ordered, enumerate_unordered, port_label
from portclone.tensor_core import (
    BlockGroup,
    LabeledOperator,
    SubsystemLayout,
    check_basis_table,
    check_cap,
    check_dims,
    partial_trace,
    sector_sizes,
    support_spectra,
    trace_product,
    weight_sectors,
)

OUTPUT_LABEL = "B"
REFERENCE_LABEL = "Xref"

F_CONSISTENCY_TOL = 1e-12

SPLIT_MIN = 100  # blocks at most this wide are decomposed whole, not in character pieces

PROTOCOLS = ("std-pbtc", "clone-mpbt", "std-pbt", "mpbt", "clone")


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
    n_orbits: int = 0  # blocks actually decomposed, one per level-permutation orbit
    kept_rank: int = 0  # eigenvalues of the average state above the cutoff, all blocks; 0 for clone
    n_pieces: int = 0  # matrices decomposed: character pieces of the evaluated blocks
    max_piece_dim: int = 0  # dimension of the largest of them

    def __post_init__(self):
        dim = self.input_dim if self.input_dim else self.d
        # avg_fidelity also refuses an F outside [0, 1]
        if abs(self.f - avg_fidelity(self.F, dim)) > F_CONSISTENCY_TOL:
            raise ValueError("report fields F and f violate the conversion identity")

    def to_json_dict(self) -> dict:
        """The fields in declaration order, but input_dim, per_clone_f as a list."""
        doc = dict(vars(self), per_clone_f=list(self.per_clone_f))
        del doc["input_dim"]
        return doc


def avg_fidelity(F: float, d: int) -> float:
    """Average pure-input fidelity from entanglement fidelity: (F d + 1) / (d + 1)."""
    if not -1e-10 <= F <= 1 + 1e-10:
        raise ValueError(f"entanglement fidelity {F} out of [0, 1]")
    return (F * d + 1) / (d + 1)


def _check_povm(povm: Povm, N: int, d: int, clone_slot: int) -> None:
    """Refuse a POVM that is not on [X, A1..AN] of dimension d, or a clone
    slot outside its outcomes."""
    expected = pbt_layout(N, d)
    if povm.layout != expected:
        raise ValueError(f"POVM layout {povm.layout} does not match canonical {expected}")
    M = len(next(iter(povm.outcomes)))
    if not 1 <= clone_slot <= M:
        raise ValueError(f"clone slot {clone_slot} out of range 1..{M}")


def _clone_channel(
    povm: Povm, state: LabeledOperator, N: int, d: int, clone_slot: int
) -> LabeledOperator:
    """The reduced single-clone channel applied to the X slot of `state`,
    which comes first; its other slots pass through, in front of the output
    slot B.

    For each outcome I the receiving port b is the clone_slot-th smallest
    element of I. With every other receiver discarded, the resource is Phi+
    on (A_b, B) and maximally mixed on the other sender ports, so the channel
    reads the elements only through their sum E_b over the outcomes sharing
    b, with those ports traced out: the d^2 x d^2 marginal
    m_b = Tr_{A_j, j != b}[E_b] / d^(N-1) on [X, A_b]. Each port then adds
    one contraction of m_b with the state and Phi+; the resource and the
    state-and-resource operator are never formed.
    """
    _check_povm(povm, N, d, clone_slot)
    receiver = {I: I[clone_slot - 1] for I in povm.outcomes}
    kept = state.layout.restricted(state.layout.labels[1:])
    layout = SubsystemLayout(kept.labels + (OUTPUT_LABEL,), kept.dims + (d,))
    s = state.entries.reshape(d, kept.dim, d, kept.dim)
    phi = max_entangled(d, port_label(1), OUTPUT_LABEL).entries.reshape(d, d, d, d)
    out = 0
    for b in dict.fromkeys(receiver.values()):  # in order of first use, one sum at a time
        e = reduce(np.add, (el.entries for I, el in povm.outcomes.items() if receiver[I] == b))
        rest = [port_label(j) for j in range(1, N + 1) if j != b]
        m = partial_trace(LabeledOperator(povm.layout, e), rest).entries / d ** (N - 1)
        out = out + np.einsum("xayc,yPxQ,cBaC->PBQC", m.reshape(d, d, d, d), s, phi)
    return LabeledOperator(layout, out.reshape(layout.dim, layout.dim))


def single_clone_output(
    povm: Povm,
    input_state: LabeledOperator,
    N: int,
    d: int,
    clone_slot: int = 1,
) -> LabeledOperator:
    """Output of one retained clone slot for an input state on X."""
    if input_state.layout != SubsystemLayout([input_label()], [d]):
        raise ValueError("input must live on the single slot X with dimension d")
    return _clone_channel(povm, input_state, N, d, clone_slot)


def entanglement_fidelity_formula(
    povm: Povm, signal_for_outcome: dict[tuple[int, ...], LabeledOperator]
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
) -> dict[tuple[int, ...], LabeledOperator]:
    """Teleportation signal states matched to each outcome's receiving port;
    the outcomes that share a port share its one signal."""
    _check_povm(povm, N, d, clone_slot)
    ports = {I[clone_slot - 1] for I in povm.outcomes}
    signals = {b: pbtc_signal((b,), N, d) for b in ports}
    return {I: signals[I[clone_slot - 1]] for I in povm.outcomes}


def entanglement_fidelity_choi(
    povm: Povm, clone_slot: int, N: int, M: int, d: int
) -> float:
    """Direct route: feed half of a maximally entangled pair through the
    reduced channel and project the joint output on the maximally entangled
    state. The channel (`_clone_channel`) reads the POVM through one
    two-slot marginal per receiving port and never forms the resource."""
    size = len(next(iter(povm.outcomes)))
    if size != M:
        raise ValueError(f"POVM outcomes are sets of {size} ports, not M={M}")
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
    linear, so each sample's output is sum_ij psi_i conj(psi_j)
    Lambda(|i><j|), and all d^2 of the Lambda(|i><j|) are read off one
    Choi state, the channel applied to half of Phi+.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    check_cap(samples * d * d, f"{samples} Haar samples of {d}^2 entries")  # before any draw
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(samples, 2, d))  # per sample: d real parts, then d imaginary
    vecs = draws[:, 0] + 1j * draws[:, 1]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    choi = _clone_channel(povm, max_entangled(d, input_label(), REFERENCE_LABEL), N, d, clone_slot)
    # Lambda(|i><j|) = d <i|_Xref choi |j>_Xref, at position i * d + j
    units = d * choi.entries.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d, d)
    rhos = np.einsum("si,sj->sij", vecs, vecs.conj()).reshape(samples, d * d)
    outs = np.tensordot(rhos, units, axes=1)
    vals = np.real(np.einsum("si,sij,sj->s", vecs.conj(), outs, vecs))
    stderr = vals.std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
    return float(vals.mean()), float(stderr)


def _engine_inputs(protocol: str, N: int, M: int, d: int):
    """The protocol as inputs of `_sector_fidelities`: slot dimensions, the
    number of leading input slots, the factor builder of the representative
    outcome c0's signal (the mean of its members), the builder of the average
    signal state, the factor builder of c0's target at slot 1 (the signal's
    builder itself where the two are one state), and the input dimension.
    Each builder takes a `tensor_core.BlockGroup` and enumerates the outcomes
    it reads only when called, so that `_sector_fidelities` refuses a point
    from counts before any outcome list exists. The slots are [X, A1..AN], or
    [X1..XM, A1..AN] for the multi-slot protocols. c0 is the outcome on ports
    1..M, in that order for `mpbt`."""
    first = tuple(range(1, M + 1))
    if protocol in ("std-pbt", "std-pbtc"):
        signal = partial(pbtc_signal_factor, first)
        average = lambda group: pbtc_signal_nonzeros(enumerate_unordered(N, M), group)
        # with M = 1, c0's port is the target's, and one builder serves both
        target = signal if M == 1 else partial(pbtc_signal_factor, (1,))
        return (d,) * (N + 1), 1, signal, average, target, d
    dims = (d,) * (M + N)
    average = lambda group: mpbt_signal_nonzeros(enumerate_ordered(N, M), group)
    if protocol == "mpbt":
        signal = partial(mpbt_signal_factor, [first])
        return dims, M, signal, average, signal, d**M
    # clone-mpbt: the M! orderings of one port set are the members of one outcome
    signal = lambda group: mpbt_signal_factor(enumerate_ordered(M, M), group)
    target = partial(cloned_signal_factor, 1, M)
    return dims, M, signal, average, target, d


def _gather(vecs: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(V^T F)^T for F given as rows of positions: F is the sum over the rows
    of the 0/1 matrices with a one at (row entry, column), so row c of the
    result sums the rows of `vecs` at column c's entries, one row of
    `positions` at a time."""
    out = vecs[positions[0]]
    for pos in positions[1:]:
        out += vecs[pos]
    return out


def _block_terms(vals, vecs, keep, signal, target, rows):
    """Tr(R eta R tau) and Tr((1 - P) tau) of one block or character piece,
    from its spectrum `vals`, `vecs` with support mask `keep`, and the factors
    (c, F) of eta = c F F^T and of tau in the block's basis. A piece's
    eigenvectors are read in the block's basis through its row map
    rows = (at, 1 / w) of `_character_pieces`: block row b is row at[b] of
    [V / w; -V / w; 0], so F's positions map through `at` and the gathers
    stay plain row gathers. A whole block has no row map.

    With G = V^T F and R = V_kept lambda^-1/2 V_kept^T,
    Tr(R eta R tau) = c_eta c_tau ||F_tau^T R F_eta||^2
                    = c_eta c_tau ||(lambda^-1/2 G_eta,kept)^T G_tau,kept||^2
    and, with 1 - P = V_dropped V_dropped^T,
    Tr((1 - P) tau) = c_tau ||G_tau,dropped||^2,
    which is >= 0 term by term and exactly 0 on a block of full rank.
    """
    (c_eta, f_eta), (c_tau, f_tau) = signal, target
    if rows is not None:
        at, inv_root = rows
        scaled = vecs * inv_root[:, None]
        vecs = np.vstack([scaled, -scaled, np.zeros((1, len(vals)))])
        f_eta, f_tau = at[f_eta], at[f_tau]
    scaled_eta = _gather(vecs, f_eta)[:, keep] / np.sqrt(vals[keep])
    g_tau = _gather(vecs, f_tau)
    main = c_eta * c_tau * np.sum((scaled_eta @ g_tau[:, keep].T) ** 2)
    return main, c_tau * np.sum(g_tau[:, ~keep] ** 2)


def _character_pieces(nonzeros, group, n_free):
    """The average on the one block of `group`, a `tensor_core.BlockGroup`,
    given by its nonzeros (lists, divisor, prefactor) (see
    `states.pbtc_signal_nonzeros`), split by the characters of the swaps of
    the last `n_free` slots two by two, r = n_free // 2 >= 1 pairs from the
    first of them. Returns one piece per number s = 0..r of pairs in the
    character, S = the first s pairs, as (C(r, s), piece, row map) (see
    `_block_terms`); empty pieces are left out. The lists are read one at a
    time.

    The swaps generate G = (Z_2)^r. The G-orbit O of a basis state has
    a representative with each pair's digits ascending, and |O| = w^2 =
    2^(pairs whose digits differ). The vectors |O|^-1/2 sum_{b in O}
    eps_S(b) e_b, with eps_S(b) = (-1)^(pairs of S on which b descends), over
    the orbits whose digits differ on every pair of S, are an orthonormal
    basis of character S. An operator A that commutes with G has in it the
    entries A_S[i, j] = (w_j / w_i) sum_{b in O_i} eps_S(b) A[b, b_j] at the
    representatives b_j. So every nonzero (b, b_j) of the block whose column
    is a representative adds eps_S(b) times its count to piece S at
    (orbit of b, orbit of b_j), for each S on whose pairs both differ; the
    signs are summed as exact integers before the divisions, and the block
    itself is never formed. Row b of the piece's eigenvectors in the block's
    basis is eps_S(b) / w(b) times the row of b's orbit, and zero outside
    the piece's orbits: the row map's at[b] is b's orbit, plus the piece's
    width where eps_S(b) = -1, or twice the width outside the piece.

    A permutation of the pairs maps character S onto every character with
    as many pairs, and commutes with every operator the engine traces, so
    the first s pairs stand for all C(r, s) of them.
    """
    n_pairs = n_free // 2
    lists, divisor, prefactor = nonzeros
    paired = slice(len(group.dims) - n_free, len(group.dims) - n_free + 2 * n_pairs)
    digits, strides = group.digits[paired], group.strides[paired, None]  # one row per paired slot
    low, high = digits[0::2], digits[1::2]
    descends = low > high
    step = (high - low) * descends * (strides[0::2] - strides[1::2])
    orbit_reps, orbit = np.unique(group.positions(0, group.idx + step.sum(axis=0)),
                                  return_inverse=True)
    root_size = 2.0 ** (np.count_nonzero(low != high, axis=0) / 2)  # w of each state's orbit
    # the number of leading pairs on which a state's digits differ, so the
    # state is in pieces s = 0..lead (r is far below 128 under the cap)
    k = len(group.idx)
    lead = np.argmin(np.vstack([low != high, np.zeros(k, dtype=bool)]), axis=0).astype(np.int8)
    flips = np.cumsum(np.vstack([np.zeros(k, dtype=int), descends]), axis=0)
    is_rep = orbit_reps[orbit] == np.arange(k)
    maps = []  # per piece: its representatives, orbit positions, row keys, row map, eps_S
    for s in range(n_pairs + 1):
        member = lead >= s
        reps = orbit_reps[member[orbit_reps]]
        if not len(reps):
            break
        w = len(reps)
        at = np.cumsum(member[orbit_reps])[orbit] - 1  # read at members only
        sign = 1.0 - 2 * (flips[s] % 2)
        maps.append((reps, at, at * w, np.where(member, at + w * (sign < 0), 2 * w), sign))
    sums = [np.zeros(len(reps) ** 2, dtype=float if s else np.intp)
            for s, (reps, *_) in enumerate(maps)]
    for rows, cols, _ in lists:
        # only the representatives' columns enter (positions, not a mask:
        # gathers are faster), and the list is dropped before they are counted
        keep = np.flatnonzero(is_rep[cols])
        rows, cols = rows[keep], cols[keep]
        reach = np.minimum(lead[rows], lead[cols])
        for s, (reps, at, row_key, _, sign) in enumerate(maps):
            if s:
                keep = np.flatnonzero(reach >= s)
                rows, cols, reach = rows[keep], cols[keep], reach[keep]
            key = row_key[rows]
            key += at[cols]
            weights = sign[rows] if s else None
            sums[s] += np.bincount(key, weights=weights, minlength=len(reps) ** 2)
    pieces = []
    for s, ((reps, _, _, row_map, _), counts) in enumerate(zip(maps, sums)):
        w = len(reps)
        ratio = root_size[reps] / root_size[reps, None]
        piece = prefactor * (counts.reshape(w, w) / divisor) * ratio
        pieces.append((comb(n_pairs, s), piece, (row_map, 1 / root_size[reps])))
    return pieces


def _sector_fidelities(dims, n_conj, n_free, signal, average, target, d_in):
    """Discrimination-sum fidelity of one retained slot, summed over the
    weight sectors in which every operator involved is block-diagonal:

        F = d_in^-2 sum_sectors [ Tr(R eta_c0 R tau_1) + Tr((1 - P) tau_1) ]

    R is the inverse square root of the average signal state, P its support
    projector, eta_c0 the mean of the representative outcome c0's members and
    tau_1 c0's target at slot 1; the second term is the completion element's
    part. Both are read from eigenvector gathers (`_block_terms`), so R, P and
    the dense eta_c0 and tau_1 are never formed.

    Only c0 is evaluated. A port permutation maps c0 onto any outcome c with
    members and targets in order, keeps every sector and commutes with the
    average state, hence with R and P, so all n_c outcomes contribute alike.
    The PGM element of c0 is R (sum of its members / n_J) R plus 1/n_c of the
    completion, with n_J members in all; n_c outcomes of n_J / n_c members
    each turn the first part into R eta_c0 R and cancel the 1/n_c.

    Only slot 1 is evaluated, and its F is every clone's: a permutation of
    c0's ports fixes eta_c0 and commutes with R and P, so it fixes c0's PGM
    element and completion share, and it maps tau_1 onto any slot's target.

    Only one sector per level-permutation orbit is evaluated too, the one
    whose weight vector w is non-increasing, counted once per distinct
    permutation of w. A level permutation applied to every slot is a real
    permutation matrix, so it commutes with every signal and target and maps
    the sector of w onto the sector of the permuted w. Blocks of one orbit
    are permutation-similar, so lambda_max, the cutoff and the PSD check of
    `support_spectra` are those of all blocks.

    The builders `signal`, `average` and `target` take a group of blocks
    (`tensor_core.BlockGroup`) and build all of them in one pass. Every block
    at most SPLIT_MIN wide is in one group; each wider block is a group of
    its own, so that no list of the average's nonzeros holds more than one
    wide block.

    A block wider than SPLIT_MIN is decomposed in pieces instead
    (`_character_pieces`, one block at a time), each built from the
    average's nonzeros without forming the block. The `n_free` ports outside
    c0 are the last slots; swaps of them two by two fix eta_c0 and tau_1 and
    commute with the average, so every operator is block-diagonal in the
    swaps' characters, and R, P and both traces split over the pieces. The
    pieces hold every eigenvalue of the block, each piece counted C(r, s)
    times, so lambda_max, the cutoff and the PSD check stay global. Narrower
    blocks, and every block when fewer than two ports are outside c0, are
    one piece each (`states.counted_entries`), where splitting costs more
    than it saves or has no pair to split by. The pieces of all blocks are
    decomposed in one `support_spectra` call and their terms summed in
    sector order, block by block.

    The dimension cap applies to the basis table of `weight_sectors`
    (`tensor_core.check_basis_table`) and to the largest block, which is
    formed only when it is not split; both are sized before the table is
    built.

    Returns the `FidelityReport` fields of the point by name: F and f, F's
    completion part, d_in, the number and largest size of all sectors, the
    number of sectors evaluated, the orbit-weighted count of eigenvalues kept
    above the cutoff, and the number and largest width of the matrices
    decomposed.
    """
    check_dims(dims)
    check_basis_table(dims)
    sizes = sector_sizes(dims, n_conj)
    check_cap(max(sizes) ** 2, f"largest block {max(sizes)}")
    weights, sectors = weight_sectors(dims, n_conj)
    # every distinct permutation of w is a sector, so the sectors counted per
    # sorted w are its orbit's size, d! / prod_v m_v!
    orbit_size, orbits = Counter(), []
    for w, idx in zip(weights.tolist(), sectors):
        key = tuple(sorted(w, reverse=True))
        orbit_size[key] += 1
        if list(key) == w:
            orbits.append((key, idx))
    narrow = [i for i, (_, idx) in enumerate(orbits) if len(idx) <= SPLIT_MIN]
    groups = [(narrow, False)] if narrow else []
    groups += [([i], n_free >= 2) for i, (_, idx) in enumerate(orbits) if len(idx) > SPLIT_MIN]
    records = []  # per piece: its orbit, orbit size x count, piece, row map, eta and tau factors
    for members, split in groups:
        group = BlockGroup([orbits[i][1] for i in members], dims)
        if split:
            blocks = [_character_pieces(average(group), group, n_free)]
        else:
            blocks = [[(1, block, None)] for block in counted_entries(average(group), group.widths)]
        c_eta, etas = signal(group)
        c_tau, taus = (c_eta, etas) if target is signal else target(group)
        for i, pieces, f_eta, f_tau in zip(members, blocks, etas, taus):
            size = orbit_size[orbits[i][0]]
            records += [(i, size * count, piece, piece_rows, (c_eta, f_eta), (c_tau, f_tau))
                        for count, piece, piece_rows in pieces]
    records.sort(key=lambda record: record[0])  # stable, so each block's pieces stay in order
    pieces = [piece for _, _, piece, *_ in records]
    spectra = support_spectra(pieces)
    main = completion = 0.0
    kept_rank = 0
    for (_, weight, _, piece_rows, eta, tau), (vals, vecs, keep) in zip(records, spectra):
        piece_main, piece_completion = _block_terms(vals, vecs, keep, eta, tau, piece_rows)
        main += weight * piece_main
        completion += weight * piece_completion
        kept_rank += weight * int(np.count_nonzero(keep))
    F = float((main + completion) / d_in**2)
    return dict(F=F, f=avg_fidelity(F, d_in), delta_contribution=float(completion / d_in**2),
                input_dim=d_in, n_blocks=len(sizes), max_block_dim=max(sizes),
                n_orbits=len(orbits), kept_rank=kept_rank, n_pieces=len(pieces),
                max_piece_dim=max(map(len, pieces)))


def _clone_fields(M: int, d: int) -> dict:
    """Pure optimal cloning with no teleportation: f of `optimal_clone_fidelity`
    (Werner's closed form) and F = (f (d + 1) - 1) / d; nothing is formed, so sizes read 0."""
    if M < 1:
        raise ValueError(f"need M >= 1, got M={M}")
    check_dims([d])
    f = optimal_clone_fidelity(M, d)
    return dict(F=(f * (d + 1) - 1) / d, f=f, delta_contribution=0.0)


def protocol_fidelity(protocol: str, d: int, N: int, M: int) -> FidelityReport:
    """Evaluate one protocol at one parameter point. This is the one place a
    `FidelityReport` is built; `clone` uses no ports and reports N = 0."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    if protocol != "clone" and not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if protocol == "std-pbt" and M != 1:
        raise ValueError("std-pbt transfers a single state; use M=1")
    start = time.perf_counter()
    if protocol == "clone":
        N, fields = 0, _clone_fields(M, d)
    else:
        dims, n_conj, signal, average, target, d_in = _engine_inputs(protocol, N, M, d)
        fields = _sector_fidelities(dims, n_conj, N - M, signal, average, target, d_in)
    f = fields["f"]
    return FidelityReport(
        protocol=protocol, d=d, N=N, M=M, per_clone_f=(f,) * (1 if protocol == "mpbt" else M),
        runtime_ms=(time.perf_counter() - start) * 1e3, **fields,
    )
