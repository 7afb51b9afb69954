"""Gramian-based actuator placement for linear dynamical networks.

Given stable dynamics x' = A x and a finite menu of candidate input
columns, every supported placement metric — trace of the controllability
Gramian, a weighted trace, or the squared H2 norm — is additive across
candidates.  The subset score is therefore modular and the exact optimal
k-subset falls out of sorting per-candidate weights, which this package
exploits for ranking, selection, centrality analysis and minimum-energy
input synthesis.
"""

__version__ = "0.1.0"

from .exceptions import (
    DegenerateGramianWarning,
    DimensionError,
    DomainError,
    EnumerationCapError,
    GramselError,
    NonFiniteError,
    NumericalError,
    ProblemFormatError,
    StabilityError,
    TopologyError,
    UnreachableStateError,
)
from .numerics import (
    STABILITY_MARGIN,
    eigenvalues,
    matrix_exponential,
    real_schur,
    spectral_abscissa,
)
from .gramian import (
    LyapunovSolver,
    finite_horizon_gramian,
    lyapunov_residual,
)
from .metrics import (
    InputTrajectory,
    MetricSpec,
    TransferResult,
    evaluate_metric,
    simulate_transfer,
    synthesize_min_energy_input,
)
from .placement import (
    CandidateSet,
    ModularityReport,
    PlacementResult,
    brute_force_best,
    controllability_centrality,
    ranked,
    select_top_k,
    verify_modularity,
)
from .models import (
    GridModel,
    Problem,
    build_swing_matrix,
    frequency_selector,
    grid_model,
    hvdc_candidates,
    load_problem,
    random_hurwitz_system,
    ring_grid,
    ring_problem_dict,
    state_labels,
    system_problem_dict,
    write_problem,
)

__all__ = [
    "__version__",
    # exceptions
    "GramselError", "DimensionError", "DomainError", "NonFiniteError",
    "ProblemFormatError", "TopologyError", "EnumerationCapError",
    "NumericalError", "StabilityError", "UnreachableStateError",
    "DegenerateGramianWarning",
    # numerics
    "STABILITY_MARGIN", "eigenvalues", "spectral_abscissa",
    "matrix_exponential", "real_schur",
    # gramian
    "LyapunovSolver", "lyapunov_residual", "finite_horizon_gramian",
    # metrics
    "MetricSpec", "evaluate_metric", "InputTrajectory",
    "synthesize_min_energy_input", "TransferResult", "simulate_transfer",
    # placement
    "CandidateSet", "PlacementResult", "ModularityReport", "ranked",
    "select_top_k", "brute_force_best", "verify_modularity",
    "controllability_centrality",
    # models
    "GridModel", "grid_model", "build_swing_matrix",
    "state_labels", "frequency_selector", "hvdc_candidates", "ring_grid",
    "random_hurwitz_system", "Problem", "load_problem", "write_problem",
    "system_problem_dict", "ring_problem_dict",
]
