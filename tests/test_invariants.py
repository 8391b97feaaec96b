"""Killing fields, invariant lifting, linear structure, tangency."""

import random
from fractions import Fraction

import pytest

from takiff import matrices as mx
from takiff.decompose import _block_sum, _block_velocities
from takiff.errors import InternalConsistencyError, StructuralError, ValidationError
from takiff.invariants import (
    InvariantFamily,
    apply_killing,
    cylindrical_invariance_check,
    extract_linear_part,
    faa_di_bruno_lift,
    is_invariant,
    killing_velocity,
    lift_family,
    lift_invariant,
    quadratic_invariant,
    tangency_check,
)
from takiff.lie import adjoint_rep, killing_form, sl2, so_n
from takiff.poly import (
    PARAMETER,
    STATE,
    Monomial,
    Polynomial,
    Ring,
    VariableBlock,
    VectorField,
    matrix_apply,
)
from takiff.takiff_algebra import build_lift

from matrix_reference import add


def state_ring(n, name="x"):
    return Ring.of(VariableBlock(name, n, STATE))


def rand_poly(rng, ring, max_degree, terms):
    vars_ = list(ring.variables())
    out = {}
    for _ in range(terms):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            v = rng.choice(vars_)
            exps[v] = exps.get(v, 0) + 1
        m = Monomial.from_map(exps)
        out[m] = out.get(m, Fraction(0)) + Fraction(rng.randint(-3, 3))
    return Polynomial(ring, out)


def test_killing_velocity_of_rotation():
    _, rho = so_n(2)
    ring = state_ring(2)
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    coords = ring.state_variables()
    assert killing_velocity(rho, 0, ring, coords) == (-x1, x0)
    with pytest.raises(StructuralError):
        killing_velocity(rho, 0, ring, coords[:1])


def test_apply_killing_rotation():
    _, rho = so_n(2)
    ring = state_ring(2)
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    assert apply_killing(rho, 0, x0) == -x1
    q = quadratic_invariant(mx.identity(2), ring)
    assert apply_killing(rho, 0, q).is_zero()
    with pytest.raises(StructuralError):
        apply_killing(rho, 1, x0)


def test_standard_quadratics_are_invariant():
    for n in (2, 3, 4):
        _, rho = so_n(n)
        ring = state_ring(n)
        assert is_invariant(rho, quadratic_invariant(mx.identity(n), ring))
        assert not is_invariant(rho, Polynomial.variable(ring, ("x", 0)))
    g, _ = sl2()
    ad = adjoint_rep(g)
    ring = state_ring(3)
    killing_quadratic = quadratic_invariant(killing_form(g).gram, ring)
    assert is_invariant(ad, killing_quadratic)


def test_killing_combination_and_field():
    _, rho = so_n(3)
    ring = state_ring(3)
    coeffs = [Polynomial.constant(ring, c) for c in (1, 0, 2)]
    velocity = _block_velocities(rho, ring, ring.state_blocks())
    combo = _block_sum(rho, ring, [coeffs], velocity, 0)
    manual = add(rho.matrices[0], mx.scale(rho.matrices[2], Fraction(2)))
    xs = tuple(Polynomial.variable(ring, ("x", i)) for i in range(3))
    assert combo == matrix_apply(manual, xs)
    with pytest.raises(StructuralError):
        _block_sum(rho, ring, [coeffs[:2]], velocity, 0)
    with pytest.raises(StructuralError):
        _block_sum(rho, ring, [coeffs + coeffs[:1]], velocity, 0)


def test_invariant_family_is_verified():
    _, rho = so_n(2)
    ring = state_ring(2)
    q = quadratic_invariant(mx.identity(2), ring)
    family = InvariantFamily(rho, (q,), label="radius")
    assert family.generators == (q,)
    with pytest.raises(ValidationError):
        InvariantFamily(rho, (Polynomial.variable(ring, ("x", 0)),))


def test_quadratic_invariant_shape_check():
    ring = state_ring(2)
    with pytest.raises(StructuralError):
        quadratic_invariant(mx.identity(3), ring)


def test_lift_coefficients_of_the_radius():
    _, rho = so_n(2)
    lifted = build_lift(rho, 2)
    q = quadratic_invariant(mx.identity(2), state_ring(2))
    phis = lift_invariant(lifted, q)
    ring = phis[0].ring
    assert ring.names() == ("f0", "f1", "f2")
    f = {(k, i): Polynomial.variable(ring, (f"f{k}", i))
         for k in range(3) for i in range(2)}
    dot = lambda a, b: sum((f[(a, i)] * f[(b, i)] for i in range(2)),
                           Polynomial.zero(ring))
    assert phis[0] == dot(0, 0) / 2
    assert phis[1] == dot(0, 1)
    assert phis[2] == dot(1, 1) / 2 + dot(0, 2)


def test_lifted_coefficients_are_invariant_for_lifted_action():
    for n, m in ((2, 3), (3, 2)):
        _, rho = so_n(n)
        lifted = build_lift(rho, m)
        q = quadratic_invariant(mx.identity(n), state_ring(n))
        for phi_k in lift_invariant(lifted, q):
            assert is_invariant(lifted.rep, phi_k)


def test_lift_refuses_non_invariant():
    _, rho = so_n(2)
    lifted = build_lift(rho, 1)
    x0 = Polynomial.variable(state_ring(2), ("x", 0))
    with pytest.raises(ValidationError):
        lift_invariant(lifted, x0)
    phis = lift_invariant(lifted, x0, allow_non_invariant=True)
    ring = phis[0].ring
    assert phis[0] == Polynomial.variable(ring, ("f0", 0))
    assert phis[1] == Polynomial.variable(ring, ("f1", 0))


def test_lift_shape_checks():
    _, rho = so_n(2)
    lifted = build_lift(rho, 1)
    q3 = quadratic_invariant(mx.identity(3), state_ring(3))
    with pytest.raises(StructuralError):
        lift_invariant(lifted, q3)


def test_lift_family_is_generator_major():
    _, rho = so_n(2)
    lifted = build_lift(rho, 1)
    ring = state_ring(2)
    q = quadratic_invariant(mx.identity(2), ring)
    family = InvariantFamily(rho, (q, 2 * q))
    out = lift_family(lifted, family)
    assert len(out) == 4
    assert out[2] == 2 * out[0] and out[3] == 2 * out[1]


def test_faa_di_bruno_agrees_with_curve_expansion():
    rng = random.Random(77)
    ring = state_ring(2)
    _, rho = so_n(2)
    for _ in range(12):
        phi = rand_poly(rng, ring, 4, 4)
        m = rng.randint(0, 3)
        lifted = build_lift(rho, m)
        direct = lift_invariant(lifted, phi, allow_non_invariant=True)
        assert faa_di_bruno_lift(phi, m) == direct


def test_faa_di_bruno_handles_name_collision():
    # a source block named like a target block must not capture variables
    ring = state_ring(1, name="f1")
    phi = Polynomial.variable(ring, ("f1", 0)) ** 2
    out = faa_di_bruno_lift(phi, 1)
    target = out[0].ring
    f0 = Polynomial.variable(target, ("f0", 0))
    f1 = Polynomial.variable(target, ("f1", 0))
    assert out[0] == f0 * f0
    assert out[1] == 2 * f0 * f1


def test_extract_linear_part():
    _, rho = so_n(2)
    lifted = build_lift(rho, 2)
    q = quadratic_invariant(mx.identity(2), state_ring(2))
    phis = lift_invariant(lifted, q)
    linear, rest = extract_linear_part(phis[2], 2)
    ring = phis[0].ring
    f = {(k, i): Polynomial.variable(ring, (f"f{k}", i))
         for k in range(3) for i in range(2)}
    assert linear == f[(0, 0)] * f[(2, 0)] + f[(0, 1)] * f[(2, 1)]
    assert rest == (f[(1, 0)] ** 2 + f[(1, 1)] ** 2) / 2
    assert rest.block_degree("f2") == 0
    # coefficient 0 is quadratic in f0, so no affine split exists
    with pytest.raises(InternalConsistencyError):
        extract_linear_part(phis[0], 0)


def test_cylindrical_agreement():
    _, rho = so_n(2)
    lifted = build_lift(rho, 2)
    sub = build_lift(rho, 1)
    q = quadratic_invariant(mx.identity(2), state_ring(2))
    sub_phis = lift_invariant(sub, q)
    theta = sub_phis[0] * sub_phis[1]  # invariant on V_1
    assert cylindrical_invariance_check(lifted, theta) == (True, True)
    bad = Polynomial.variable(sub_phis[0].ring, ("f0", 0))
    assert cylindrical_invariance_check(lifted, bad) == (False, False)


def test_cylindrical_refuses_theta_over_the_full_ring():
    _, rho = so_n(2)
    lifted = build_lift(rho, 1)
    q = quadratic_invariant(mx.identity(2), state_ring(2))
    phis = lift_invariant(lifted, q)  # over (f0, f1)
    with pytest.raises(StructuralError):
        cylindrical_invariance_check(lifted, phis[0])  # free of f1, but over f0, f1
    with pytest.raises(StructuralError):
        cylindrical_invariance_check(lifted, phis[1])  # uses the top block
    with pytest.raises(StructuralError):
        cylindrical_invariance_check(lifted, q)  # one block, but not named f0
    with pytest.raises(StructuralError):
        cylindrical_invariance_check(build_lift(rho, 0), q)


def test_tangency_of_rotation_field():
    _, rho = so_n(2)
    ring = state_ring(2)
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    fld = VectorField(ring, (-x1, x0))
    results = tangency_check(rho, fld, [(1, 0), (2, 3), (0, 0)])
    assert all(r.member for r in results)
    assert results[0].witness == (Fraction(1),)
    assert results[1].witness == (Fraction(1),)
    with pytest.raises(StructuralError, match="without parameters"):
        tangency_check(rho, fld, [(1, 0)], parameter_values=[(5,)])


def test_tangency_of_radial_field():
    _, rho = so_n(2)
    ring = state_ring(2)
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    fld = VectorField(ring, (x0, x1))
    away, origin = tangency_check(rho, fld, [(1, 0), (0, 0)])
    assert not away.member and away.witness is None
    assert origin.member  # both sides vanish at the origin


def test_tangency_with_parameters():
    _, rho = so_n(2)
    ring = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("x", 2, STATE))
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    w = Polynomial.variable(ring, ("w", 0))
    fld = VectorField(ring, (-w * x1, w * x0))
    results = tangency_check(rho, fld, [(1, 0)], parameter_values=[(5,)])
    assert results[0].member and results[0].witness == (Fraction(5),)
    with pytest.raises(StructuralError, match="0 rows for 1 points"):
        tangency_check(rho, fld, [(1, 0)])
    with pytest.raises(StructuralError, match="2 rows for 1 points"):
        tangency_check(rho, fld, [(1, 0)], parameter_values=[(5,), (6,)])
    with pytest.raises(StructuralError):
        tangency_check(rho, fld, [(1, 0, 0)], parameter_values=[(5,)])
