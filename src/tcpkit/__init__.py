"""Structural quantities of strictly semi-positive tensors and desk-scale
tensor complementarity solvers: the activity margin and classification,
orthant/Pareto eigenpair enumeration, operator-norm bounds, exact and
iterative complementarity solving, and a harness verifying the closed-form
sandwich bounds on solution norms."""

from .config import RunConfig, DEFAULT_CONFIG
from .tensor import (
    Tensor,
    TensorFormatError,
    contract_m1,
    contract_m1_batch,
    jacobian_m1,
    principal_subtensor,
    identity_tensor,
    diagonal_tensor,
    symmetrize,
    pos_part,
    power_component,
    tensor_from_dict,
    tensor_to_dict,
    load_tensor,
    save_tensor,
)
from .operators import (
    OP_SCALED,
    OP_ROOT,
    NormReport,
    apply_operator,
    norm_bound,
    estimate_norm,
)
from .semipositive import (
    BetaResult,
    Classification,
    STRICTLY_SEMI_POSITIVE,
    SEMI_POSITIVE_ONLY,
    NOT_SEMI_POSITIVE,
    UNDETERMINED,
    beta,
    classify,
    is_copositive,
)
from .eigen import (
    EigenRecord,
    SpectrumSummary,
    DeltaResult,
    EIGEN_KINDS,
    h_plus_eigenpairs,
    h_plusplus_eigenpairs,
    z_plus_eigenpairs,
    z_plusplus_eigenpairs,
    pareto_h_eigenvalues,
    pareto_z_eigenvalues,
    delta_h_plus,
    delta_z_plus,
    spectrum,
    distinct_values,
)
from .tcp import (
    TcpInstance,
    TcpSolution,
    ResidualRecord,
    NonConvergenceError,
    verify_solution,
    solve_enumeration,
    solve_iterative,
)
from .bounds import (
    GeneratorSpec,
    BoundEntry,
    BoundsReport,
    BoundViolationError,
    GENERATOR_FAMILIES,
    SANDWICH_TOL,
    generate,
    min_pareto_h,
    min_pareto_z,
    upper_bounds,
    lower_bounds,
    evaluate_instance,
    verify_bounds,
    reports_to_jsonl,
    reports_to_csv,
)

__version__ = "0.1.0"
