"""Identification of Koopman invariant subspaces and eigenfunctions from
snapshot data, via forward-backward EDMD matching and symmetric subspace
decomposition."""

from .dictionary import (
    DerivedDictionary,
    MonomialDictionary,
    evaluate,
    evaluate_factor,
    monomials_up_to_degree,
    restrict,
)
from .edmd import (
    KoopmanMatrix,
    MatchedEvolution,
    check_linear_evolution,
    edmd_matrix,
    forward_backward_eigenpairs,
    relative_residual,
)
from .errors import (
    ArtifactIOError,
    AssumptionViolation,
    EvaluationOverflow,
    InternalInvariantViolation,
    InvalidInput,
    KoopidError,
    RankError,
    RankWarning,
)
from .numerics import (
    DEFAULT_TOL,
    EigenpairSet,
    SnapshotFactor,
    ToleranceConfig,
    eig,
    null_space_basis,
    numerical_rank,
    one_blas_thread,
    orthonormal_range,
    principal_angles,
    pseudo_inverse,
    snapshot_factor,
    subspace_equal,
)
from .ssd import (
    EigenfunctionGrid,
    ReducedKoopman,
    SsdResult,
    approximate_ssd,
    eigenfunction_grid,
    lift_eigenvectors,
    reduced_koopman,
    ssd,
)
from .systems import (
    SnapshotSet,
    SnapshotStream,
    SystemSpec,
    generate,
    read_snapshot_csv,
    sample_uniform,
    step,
    write_snapshot_csv,
)

__version__ = "0.1.0"
