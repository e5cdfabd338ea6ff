"""quadfock: exact and floating-point computation in the quadratic Fock space.

Inner products of n-particle and exponential vectors, quadratic
quantization of weighted-composition operators, and executable checks of
the self-adjointness characterization, the exact boundedness of
Gamma_2(T), and the dilation counter-example.

``import quadfock`` loads no module of the package: each export is read
from its defining module when it is first used (``__getattr__`` below), so
a process loads only the layers it runs.
"""

import importlib

# Each export and the module that defines it.
_HOME = {
    "BoundednessReport": "quantization",
    "CounterexampleReport": "quantization",
    "DomainError": "errors",
    "ExactComplex": "scalars",
    "FockConfig": "fock",
    "IntervalSet": "stepfn",
    "MomentSequence": "fock",
    "NonInjectiveError": "errors",
    "PiecewiseAffineMap": "stepfn",
    "QuadFockError": "errors",
    "QuadOperator": "quantization",
    "SelfAdjointNumericReport": "quantization",
    "SelfAdjointReport": "quantization",
    "StepFunction": "stepfn",
    "UnconvergedError": "errors",
    "adjoint_operator": "quantization",
    "apply_operator": "quantization",
    "boundedness_report": "quantization",
    "check_l2_contraction": "quantization",
    "check_selfadjoint_numeric": "quantization",
    "check_selfadjoint_structure": "quantization",
    "compose": "stepfn",
    "counterexample_report": "quantization",
    "dilation_operator": "quantization",
    "exp_inner_closed": "fock",
    "exp_inner_series": "fock",
    "exp_vector_exists": "fock",
    "gamma2_matrix_element": "quantization",
    "gram_matrix": "fock",
    "inner": "stepfn",
    "lemma4_derivative_check": "quantization",
    "map_invert": "stepfn",
    "moments": "fock",
    "n_particle_inner_partition": "fock",
    "n_particle_inner_rec": "fock",
    "n_particle_table": "fock",
    "partition_coefficient": "fock",
    "partition_terms": "fock",
    "partitions_multiplicity": "fock",
    "window_radius": "quantization",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """The export ``name``, read from its module on every access: nothing is
    cached here, so a name rebound in its module is seen at once."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
