"""quadfock: exact and floating-point computation in the quadratic Fock space.

Inner products of n-particle and exponential vectors, quadratic
quantization of weighted-composition operators, and executable checks of
the self-adjointness characterization, the exact boundedness of
Gamma_2(T), and the dilation counter-example.
"""

from .errors import (
    DomainError,
    NonInjectiveError,
    QuadFockError,
    UnconvergedError,
)
from .fock import (
    FockConfig,
    MomentSequence,
    exp_inner_closed,
    exp_inner_series,
    exp_vector_exists,
    gram_matrix,
    moments,
    n_particle_inner_partition,
    n_particle_inner_rec,
    n_particle_table,
    partition_coefficient,
    partition_terms,
    partitions_multiplicity,
)
from .quantization import (
    BoundednessReport,
    CounterexampleReport,
    QuadOperator,
    SelfAdjointNumericReport,
    SelfAdjointReport,
    adjoint_operator,
    apply_operator,
    boundedness_report,
    check_l2_contraction,
    check_selfadjoint_numeric,
    check_selfadjoint_structure,
    counterexample_report,
    dilation_operator,
    gamma2_matrix_element,
    lemma4_derivative_check,
    window_radius,
)
from .scalars import ExactComplex
from .stepfn import (
    IntervalSet,
    PiecewiseAffineMap,
    StepFunction,
    compose,
    inner,
    map_invert,
)

__all__ = [
    "BoundednessReport",
    "CounterexampleReport",
    "DomainError",
    "ExactComplex",
    "FockConfig",
    "IntervalSet",
    "MomentSequence",
    "NonInjectiveError",
    "PiecewiseAffineMap",
    "QuadFockError",
    "QuadOperator",
    "SelfAdjointNumericReport",
    "SelfAdjointReport",
    "StepFunction",
    "UnconvergedError",
    "adjoint_operator",
    "apply_operator",
    "boundedness_report",
    "check_l2_contraction",
    "check_selfadjoint_numeric",
    "check_selfadjoint_structure",
    "compose",
    "counterexample_report",
    "dilation_operator",
    "exp_inner_closed",
    "exp_inner_series",
    "exp_vector_exists",
    "gamma2_matrix_element",
    "gram_matrix",
    "inner",
    "lemma4_derivative_check",
    "map_invert",
    "moments",
    "n_particle_inner_partition",
    "n_particle_inner_rec",
    "n_particle_table",
    "partition_coefficient",
    "partition_terms",
    "partitions_multiplicity",
    "window_radius",
]

__version__ = "0.1.0"
