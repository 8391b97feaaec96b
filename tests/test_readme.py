"""The README's library example runs as documented, and the public API is pinned."""

import re
from pathlib import Path

import takiff

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


PUBLIC_API = [
    "BaseSolver", "BilinearForm", "Decomposition", "DecompositionRefused",
    "InternalConsistencyError", "InvariantFamily", "LieAlgebra", "LiftedRepresentation",
    "Monomial", "PARAMETER", "Polynomial", "QuadraticBaseSolver", "Report",
    "Representation", "Ring", "RunConfig", "STATE", "Scalar", "SplitMix64",
    "StructuralError", "TakiffContext", "TakiffError", "TrivialBaseSolver",
    "ValidationError", "Var", "VariableBlock", "VectorField", "abelian", "adjoint_rep",
    "algebra_from_matrices", "annihilates_invariants", "build_lift",
    "build_takiff", "builtin_solver", "coadjoint_rep", "conjugate_representation",
    "cylindrical_invariance_check", "decompose", "errors", "extract_linear_part",
    "faa_di_bruno_lift", "field_from_coefficients",
    "generate_instance", "gl_n", "invariants", "is_invariant", "jsonio", "killing_form",
    "killing_residuals", "lie", "lift_bilinear_form", "lift_family", "lift_invariant", "lift_representation",
    "make_standard", "matrices", "matrix_apply", "poly", "quadratic_invariant",
    "randgen", "run_suite", "sl2", "so_n", "so_pq", "substitute_curve", "suites",
    "takiff_algebra", "takiff_decompose", "tangency_check", "transport_decomposition",
    "transport_field", "verify_decomposition", "verify_flip_identity",
]


def test_public_api_is_pinned():
    # a name added to or removed from ``takiff.__all__`` is a deliberate API change
    assert sorted(takiff.__all__) == PUBLIC_API
