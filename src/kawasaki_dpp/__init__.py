"""Gamma-kernel determinantal point processes with Kawasaki swap dynamics.

A library for the two-parameter family of projection-kernel point processes
on the half-integer lattice, finite-window determinantal machinery (exact
probabilities, enumeration, sampling), swap Radon-Nikodym ratios, reversible
Kawasaki jump dynamics, and exact generator/Dirichlet-form analysis on small
windows.  See README.md for a tour; the `kawasaki-dpp` CLI exposes the main
operations and the bundled verification suites.
"""

from .dpp import (
    Configuration,
    Pmf,
    config_probability,
    correlation,
    empirical_correlation,
    enumerate_distribution,
    sample,
    sample_many,
)
from .dynamics import (
    ProximityKind,
    ProximitySpec,
    RateKind,
    RateModel,
    Trajectory,
    proximity_u,
    rate,
    simulate,
    symmetry_check,
    total_jump_rate,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    DuplicateSiteError,
    EmptyInputError,
    KawasakiDppError,
    NotReversibleError,
    NumericalError,
    PoleError,
    SamePointError,
    SizeError,
    WindowMismatchError,
    ZeroProbabilityError,
)
from .exact import (
    GeneratorMatrix,
    SpectrumResult,
    build_generator,
    check_reversibility,
    dirichlet_form,
    spectrum,
    transition_matrix,
)
from .kernel import (
    AdmissiblePair,
    Branch,
    KernelMatrix,
    ProjectionReport,
    Site,
    Window,
    ab_values,
    difference_operator_matrix,
    is_admissible,
    kernel_entry,
    kernel_matrix,
    spectral_projection_check,
)
from .rn import (
    StabilizationRow,
    StabilizationTable,
    SwapPair,
    apply_transposition,
    rn_derivative,
    rn_stabilization,
)
from .rng import SeededRng

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePair",
    "Branch",
    "Configuration",
    "GeneratorMatrix",
    "KernelMatrix",
    "Pmf",
    "ProjectionReport",
    "ProximityKind",
    "ProximitySpec",
    "RateKind",
    "RateModel",
    "SeededRng",
    "Site",
    "SpectrumResult",
    "StabilizationRow",
    "StabilizationTable",
    "SwapPair",
    "Trajectory",
    "Window",
    "ab_values",
    "apply_transposition",
    "build_generator",
    "check_reversibility",
    "config_probability",
    "correlation",
    "difference_operator_matrix",
    "dirichlet_form",
    "empirical_correlation",
    "enumerate_distribution",
    "is_admissible",
    "kernel_entry",
    "kernel_matrix",
    "proximity_u",
    "rate",
    "rn_derivative",
    "rn_stabilization",
    "sample",
    "sample_many",
    "simulate",
    "spectral_projection_check",
    "spectrum",
    "symmetry_check",
    "total_jump_rate",
    "transition_matrix",
    # error types
    "KawasakiDppError",
    "PoleError",
    "DomainError",
    "SizeError",
    "WindowMismatchError",
    "DuplicateSiteError",
    "SamePointError",
    "EmptyInputError",
    "ZeroProbabilityError",
    "NumericalError",
    "DimensionMismatchError",
    "NotReversibleError",
]
