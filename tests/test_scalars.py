"""The one exact-scalar rule: every entry point refuses floats and malformed
strings, and stores an integral value as an int."""

from fractions import Fraction

import pytest

from takiff import jsonio
from takiff import matrices as mx
from takiff.decompose import builtin_solver
from takiff.errors import StructuralError
from takiff.invariants import quadratic_invariant, tangency_check
from takiff.lie import BilinearForm, LieAlgebra, Representation, abelian, killing_form, sl2, so_n
from takiff.poly import PARAMETER, STATE, Polynomial, Ring, VariableBlock, VectorField
from takiff.takiff_algebra import build_takiff

X2 = Ring.of(VariableBlock("x", 2, STATE))
WX2 = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("x", 2, STATE))


def _rotation_field():
    x0, x1 = (Polynomial.variable(WX2, ("x", i)) for i in range(2))
    w = Polynomial.variable(WX2, ("w", 0))
    return VectorField(WX2, (-w * x1, w * x0))


FLOAT_INPUTS = {
    "mat": lambda: mx.mat([[0.1]]),
    "solve-rhs": lambda: mx.solve(mx.identity(1), [0.5]),
    "algebra": lambda: LieAlgebra(("x",), (((0.0,),),)),
    "representation": lambda: Representation(abelian(1)[0], (((0.5,),),)),
    "form": lambda: BilinearForm(((0.5,),)),
    "builtin-solver": lambda: builtin_solver(so_n(2)[1], [[0.5, 0], [0, 0.5]]),
    "quadratic-invariant": lambda: quadratic_invariant([[0.5, 0], [0, 1]], X2),
    "tangency-point": lambda: tangency_check(so_n(2)[1], _rotation_field(), [(0.5, 0)],
                                             parameter_values=[(1,)]),
    "tangency-parameter": lambda: tangency_check(so_n(2)[1], _rotation_field(), [(1, 0)],
                                                 parameter_values=[(0.5,)]),
    "scalar-to-str": lambda: jsonio.scalar_to_str(0.1),
}


@pytest.mark.parametrize("build", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS.keys())
def test_float_entries_are_structural_errors(build):
    with pytest.raises(StructuralError, match="not an exact scalar"):
        build()


@pytest.mark.parametrize("text", ["abc", "1/0", "", "1/2/3"])
def test_malformed_scalar_strings_are_structural_errors(text):
    with pytest.raises(StructuralError, match="not a rational scalar"):
        Polynomial.constant(X2, text)
    with pytest.raises(StructuralError, match="not a rational scalar"):
        mx.mat([[text]])


def _canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_integral_entries_are_stored_as_int():
    g, rho = so_n(3)
    entries = [x for m in rho.matrices for row in m for x in row]
    entries += [x for plane in build_takiff(g, 2).algebra.c for row in plane for x in row]
    entries += [x for row in killing_form(sl2()[0]).gram for x in row]
    entries += [x for m in jsonio.representation_from_json(
        jsonio.representation_to_json(rho)).matrices for row in m for x in row]
    entries += [x for row in mx.inverse(mx.mat([[2, 0], [0, 1]])) for x in row]
    entries += list(mx.mat([[Fraction(4, 2), "6/3", "1/2", True]])[0])
    assert all(map(_canonical, entries))
    assert mx.mat([[Fraction(4, 2), "6/3", "1/2", True]]) == ((2, 2, Fraction(1, 2), 1),)
