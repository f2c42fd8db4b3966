"""Numerical simulator for port-based telecloning protocols.

Exact fidelities of pretty good measurements over partially symmetrized
signal states, block by block on the weight sectors with dense matrices as
the independent route, for the standard and clone-and-teleport protocols,
and a certification suite for the identities the asymptotics rely on.
"""

from portclone.tensor_core import (
    SubsystemLayout,
    LabeledOperator,
    Spectrum,
    kron_compose,
    partial_trace,
    hermitian_eig,
    psd_inv_sqrt,
)
from portclone.symmetry import (
    enumerate_unordered,
    enumerate_ordered,
    permutation_unitary,
    symmetric_projector,
    stirling_first,
    sym_dim,
)
from portclone.states import (
    max_entangled,
    mpbt_signal,
    pbtc_signal,
    ensemble_average,
)
from portclone.measurements import Povm, pgm, complete, std_pbtc_povm, clone_mpbt_povm
from portclone.channels import (
    FidelityReport,
    single_clone_output,
    entanglement_fidelity_formula,
    entanglement_fidelity_choi,
    avg_fidelity,
    haar_average_check,
    protocol_fidelity,
)
from portclone.verification import CheckResult, combinatorial_disjoint_overlap, run_suite

__version__ = "0.1.0"

__all__ = [
    "SubsystemLayout", "LabeledOperator", "Spectrum", "kron_compose",
    "partial_trace", "hermitian_eig", "psd_inv_sqrt",
    "enumerate_unordered", "enumerate_ordered", "permutation_unitary",
    "symmetric_projector", "stirling_first", "sym_dim",
    "max_entangled", "mpbt_signal", "pbtc_signal",
    "ensemble_average",
    "Povm", "pgm", "complete", "std_pbtc_povm", "clone_mpbt_povm",
    "FidelityReport", "single_clone_output",
    "entanglement_fidelity_formula", "entanglement_fidelity_choi",
    "avg_fidelity", "haar_average_check", "protocol_fidelity",
    "CheckResult", "combinatorial_disjoint_overlap", "run_suite",
]
