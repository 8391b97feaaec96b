"""Exact-arithmetic Takiff algebras, lifted invariants, and Killing-field
decompositions of invariant-annihilating polynomial vector fields."""

from .errors import (
    DecompositionRefused,
    InternalConsistencyError,
    StructuralError,
    TakiffError,
    ValidationError,
)
from .matrices import Scalar
from .poly import (
    PARAMETER,
    STATE,
    Monomial,
    Polynomial,
    Ring,
    Var,
    VariableBlock,
    VectorField,
    matrix_apply,
    substitute_curve,
)
from .lie import (
    BilinearForm,
    LieAlgebra,
    Representation,
    abelian,
    adjoint_rep,
    algebra_from_matrices,
    coadjoint_rep,
    conjugate_representation,
    gl_n,
    killing_form,
    make_standard,
    sl2,
    so_n,
    so_pq,
)
from .takiff_algebra import (
    LiftedRepresentation,
    TakiffContext,
    build_lift,
    build_takiff,
    flip_involution,
    lift_bilinear_form,
    lift_representation,
    verify_flip_identity,
)
from .invariants import (
    InvariantFamily,
    apply_killing,
    cylindrical_invariance_check,
    extract_linear_part,
    faa_di_bruno_lift,
    is_invariant,
    lift_family,
    lift_invariant,
    quadratic_invariant,
    tangency_check,
)
from .decompose import (
    BaseSolver,
    Decomposition,
    QuadraticBaseSolver,
    TrivialBaseSolver,
    annihilates_invariants,
    builtin_solver,
    field_from_coefficients,
    quadratic_base_solve,
    takiff_decompose,
    transport_decomposition,
    transport_field,
    verify_decomposition,
)
from .randgen import SplitMix64, generate_instance
from .suites import Report, RunConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
