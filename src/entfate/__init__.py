"""entfate: geometry of entanglement fates in two-qubit open systems.

Propagates (possibly time-dependent) Lindblad dynamics, locates states
relative to the separable set, computes asymptotic sets, classifies the
dynamics into one of six classes, and measures ensemble proportions of
entanglement fates.
"""

from .asymptotics import (
    AsymptoticSet,
    TheoremClass,
    asymptotic_set,
    asymptotic_set_nonautonomous,
    catalog_generator,
    classify_generator,
    classify_theorem_class,
    membership_residual,
    stationary_set_autonomous,
)
from .dynamics import (
    ConstantRate,
    ExponentialRate,
    Generator,
    SolverOptions,
    Trajectory,
    evolve_state,
    liouvillian_matrix,
    make_generator,
    propagate,
    propagator_matrices,
    propagator_matrix,
)
from .errors import (
    BadParams,
    DimensionMismatch,
    EntfateError,
    HorizonTooShort,
    Inconclusive,
    NoTraceOneElement,
    NotAState,
    NotConverged,
    OscillatoryAsymptotics,
    PositivityLost,
    StepFailure,
    UnsupportedDimension,
    UnsupportedEnsemble,
)
from .fate import (
    FateRecord,
    FateStats,
    detect_fate,
    fate_of_trajectory,
    fate_statistics,
    margin_curve,
    wilson_interval,
)
from .geometry import (
    Region,
    classify_region,
    concurrence,
    min_pt_eigenvalue,
    min_pt_eigenvalues,
)
from .states import (
    EnsembleSpec,
    QState,
    basis_state,
    max_entangled,
    new_state,
    partial_transpose,
    sample,
    split_seed,
    trace_distance,
)

__version__ = "0.1.0"
