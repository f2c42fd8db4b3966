"""Numerical simulator for port-based telecloning protocols.

Dense linear-algebra construction of pretty good measurements over
partially symmetrized signal states, fidelity evaluation for the
standard and clone-and-teleport style protocols, and a numerical
certification suite for the identities the asymptotic analysis relies on.
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
    PortSet,
    OrderedPorts,
    enumerate_unordered,
    enumerate_ordered,
    permutation_unitary,
    symmetric_projector,
    stirling_first,
    sym_dim,
)
from portclone.states import (
    max_entangled,
    pbt_signal,
    mpbt_signal,
    pbtc_signal,
    ensemble_average,
)
from portclone.measurements import Povm, pgm, complete, std_pbtc_povm, clone_mpbt_povm
from portclone.channels import (
    FidelityReport,
    clone,
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
    "PortSet", "OrderedPorts", "enumerate_unordered",
    "enumerate_ordered", "permutation_unitary", "symmetric_projector",
    "stirling_first", "sym_dim",
    "max_entangled", "pbt_signal", "mpbt_signal", "pbtc_signal",
    "ensemble_average",
    "Povm", "pgm", "complete", "std_pbtc_povm", "clone_mpbt_povm",
    "FidelityReport", "clone", "single_clone_output",
    "entanglement_fidelity_formula", "entanglement_fidelity_choi",
    "avg_fidelity", "haar_average_check", "protocol_fidelity",
    "CheckResult", "combinatorial_disjoint_overlap", "run_suite",
]
