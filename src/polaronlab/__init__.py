"""Numerical laboratory for discretized fiber Hamiltonians of a particle
coupled to a quantized boson field, truncated in boson number.

The package assembles the truncated operators on a momentum grid, computes
low-lying spectra, builds the Schur-complement reduction onto the vacuum
and one-boson sectors, and verifies the operator identities behind that
reduction with explicit residual reports.

Every public name, and every layer module (``pl.grid``, ``pl.fock``, ...),
loads on first use (PEP 562), so ``import polaronlab`` itself imports
nothing beyond the standard library.
"""

import importlib

__version__ = "0.1.0"

#: layer module -> the public names it defines
_EXPORTS = {
    "errors": (
        "CacheCorruptionError",
        "ConfigError",
        "DimensionCapError",
        "IndefiniteOperatorError",
        "SolverError",
    ),
    "fock": (
        "FockBasis",
        "SparseOperator",
        "annihilator",
        "assemble_hamiltonian",
        "creator",
        "enumerate_basis",
        "field_operator",
        "fock_dimension",
    ),
    "grid": ("FormFactor", "MomentumGrid", "build_grid", "sample_form_factor"),
    "identities": (
        "IDENTITY_IDS",
        "IdentityReport",
        "run_suite",
        "schur_equivalence_report",
        "verify_c0_identity",
        "verify_energy_derivatives",
        "verify_lambda_identity",
        "verify_norm_identity",
        "verify_pullthrough",
        "verify_rearrangement",
        "verify_resolvent_identities",
        "verify_vacuum_schur",
    ),
    "reduction": ("ReductionBundle", "ReductionWorkspace", "build_workspace"),
    "spectral": (
        "SolverConfig",
        "count_below",
        "ground_energy",
        "lowest_eigenpairs",
        "nu",
        "spectrum_summary",
    ),
}
_SUBMODULES = ("cli", "storage", *_EXPORTS)
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_ORIGIN), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
