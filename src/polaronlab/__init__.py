"""Numerical laboratory for discretized fiber Hamiltonians of a particle
coupled to a quantized boson field, truncated in boson number.

The package assembles the truncated operators on a momentum grid, computes
low-lying spectra, builds the Schur-complement reduction onto the vacuum
and one-boson sectors, and verifies the operator identities behind that
reduction with explicit residual reports.
"""

from .errors import (
    CacheCorruptionError,
    ConfigError,
    DimensionCapError,
    IndefiniteOperatorError,
    SolverError,
)
from .fock import (
    FockBasis,
    SparseOperator,
    annihilator,
    assemble_hamiltonian,
    creator,
    enumerate_basis,
    field_operator,
    fock_dimension,
    one_boson_vector,
)
from .grid import (
    FormFactor,
    MomentumGrid,
    build_grid,
    sample_form_factor,
    triple_norm,
)
from .identities import (
    IDENTITY_IDS,
    IdentityReport,
    run_suite,
    schur_equivalence_report,
    verify_c0_identity,
    verify_energy_derivatives,
    verify_lambda_identity,
    verify_norm_identity,
    verify_pullthrough,
    verify_rearrangement,
    verify_resolvent_identities,
    verify_vacuum_schur,
)
from .reduction import ReductionBundle, ReductionWorkspace, build_workspace
from .spectral import (
    SolverConfig,
    count_below,
    ground_energy,
    lowest_eigenpairs,
    nu,
    spectrum_summary,
)

__version__ = "0.1.0"

__all__ = [
    "CacheCorruptionError",
    "ConfigError",
    "DimensionCapError",
    "FockBasis",
    "FormFactor",
    "IDENTITY_IDS",
    "IdentityReport",
    "IndefiniteOperatorError",
    "MomentumGrid",
    "ReductionBundle",
    "ReductionWorkspace",
    "SolverConfig",
    "SolverError",
    "SparseOperator",
    "annihilator",
    "assemble_hamiltonian",
    "build_grid",
    "build_workspace",
    "count_below",
    "creator",
    "enumerate_basis",
    "field_operator",
    "fock_dimension",
    "ground_energy",
    "lowest_eigenpairs",
    "nu",
    "one_boson_vector",
    "run_suite",
    "sample_form_factor",
    "schur_equivalence_report",
    "spectrum_summary",
    "triple_norm",
    "verify_c0_identity",
    "verify_energy_derivatives",
    "verify_lambda_identity",
    "verify_norm_identity",
    "verify_pullthrough",
    "verify_rearrangement",
    "verify_resolvent_identities",
    "verify_vacuum_schur",
    "__version__",
]
