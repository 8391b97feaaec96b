"""Killing fields, invariant lifting, linear structure, tangency."""

import random
import time
from fractions import Fraction

import pytest

from takiff import matrices as mx
from takiff.decompose import _block_sum, field_from_coefficients
from takiff.errors import InternalConsistencyError, StructuralError, ValidationError
from takiff.invariants import (
    MAX_FAA_DI_BRUNO_PARTITIONS,
    InvariantFamily,
    _partition_total,
    _weighted_partitions,
    cylindrical_invariance_check,
    extract_linear_part,
    faa_di_bruno_lift,
    is_invariant,
    killing_residuals,
    lift_family,
    lift_invariant,
    quadratic_invariant,
    tangency_check,
)
from takiff.lie import (
    adjoint_rep,
    conjugate_representation,
    killing_form,
    make_standard,
    sl2,
    so_n,
)
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
from takiff.takiff_algebra import LiftedRepresentation, build_lift

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


def test_killing_residuals_rotation():
    _, rho = so_n(2)
    ring = state_ring(2)
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    # the Killing field of the rotation is (-x1, x0)
    assert killing_residuals(rho, x0) == (-x1,)
    assert killing_residuals(rho, x1) == (x0,)
    q = quadratic_invariant(mx.identity(2), ring)
    assert killing_residuals(rho, q) == (Polynomial.zero(ring),)
    with pytest.raises(StructuralError, match=r"have sizes \[3\], expected one or more of size 2"):
        killing_residuals(rho, Polynomial.variable(state_ring(3), ("x", 0)))


def test_killing_residuals_read_the_representations_sparse_form():
    # ad is derived, so its sparse form is computed on the first read, here
    # by killing_residuals, and kept for the block sum of a decomposition
    g, _ = sl2()
    ad = adjoint_rep(g)
    assert "_sparse_rows" not in vars(ad)
    ring = state_ring(3)
    q = quadratic_invariant(killing_form(g).gram, ring)
    assert is_invariant(ad, q)
    assert vars(ad)["_sparse_rows"] == tuple(mx.sparse_rows(m) for m in ad.matrices)
    # against the dense rows, on a function that is not invariant
    xs = [("x", i) for i in range(3)]
    phi = Polynomial.variable(ring, xs[0]) * Polynomial.variable(ring, xs[1]) + q ** 2
    residuals = killing_residuals(ad, phi)
    assert len(residuals) == 3
    for i, residual in enumerate(residuals):
        dense = Polynomial.combination(ring, (
            (ad.matrices[i][t][s] * Polynomial.variable(ring, xs[s]), phi.derivative(xs[t]))
            for t in range(3) for s in range(3)))
        assert not dense.is_zero()
        assert residual == dense


# (name, base representation): the reference grid of the blockwise Killing
# operators; the last is so(3) conjugated by an integer theta of determinant 3,
# whose matrices have entries in thirds
KILLING_GRID = [
    ("so3", so_n(3)[1]), ("so4", so_n(4)[1]), ("sl2_adjoint", make_standard("sl2_adjoint")[1]),
    ("so3_conjugated", conjugate_representation(so_n(3)[1], ((1, 2, 0), (0, 1, 1), (1, 0, 1)))),
]


def _renamed(p, ring, names):
    """p over ``ring``, each variable v renamed to names.get(v, v)."""
    return Polynomial(ring, {Monomial.from_map({names.get(v, v): e for v, e in mono}): c
                             for mono, c in p.terms.items()})


@pytest.mark.parametrize("rho", [rho for _, rho in KILLING_GRID],
                         ids=[name for name, _ in KILLING_GRID])
@pytest.mark.parametrize("m", range(3))
def test_the_blockwise_killing_operators_are_the_dense_ones(rho, m):
    # phi over f0..fm against phi over one block v of V_m under the dense rho_m
    n, d = rho.space_dim, rho.algebra.dim
    w = VariableBlock("w", 1, PARAMETER)
    ring = Ring.of(*(VariableBlock(f"f{s}", n, STATE) for s in range(m + 1)), w)
    flat = Ring.of(VariableBlock("v", (m + 1) * n, STATE), w)
    to_flat = {(f"f{s}", a): ("v", s * n + a) for s in range(m + 1) for a in range(n)}
    back = {v: f for f, v in to_flat.items()}
    dense = build_lift(rho, m).rep
    rng = random.Random(31 * m + n)
    for _ in range(3):
        phi = rand_poly(rng, ring, 3, 6)
        residuals = killing_residuals(rho, phi)
        assert len(residuals) == (m + 1) * d
        assert residuals == tuple(_renamed(r, ring, back) for r in
                                  killing_residuals(dense, _renamed(phi, flat, to_flat)))
        assert any(not r.is_zero() for r in residuals)
        assert is_invariant(rho, phi) is False


@pytest.mark.parametrize("rho", [rho for _, rho in KILLING_GRID],
                         ids=[name for name, _ in KILLING_GRID])
@pytest.mark.parametrize("m", range(3))
def test_lifted_tangency_reads_the_dense_directions(rho, m):
    # a Killing combination is tangent at every point, and the radial field F
    # at no generic one (dPhi_0 pairs it to B(f_0, f_0) and kills every
    # direction); flags and witnesses, at k = r * dim g + i, are those of the
    # dense rho_m on the field over one block v of V_m
    n, d = rho.space_dim, rho.algebra.dim
    w = VariableBlock("w", 1, PARAMETER)
    ring = Ring.of(*(VariableBlock(f"f{s}", n, STATE) for s in range(m + 1)), w)
    flat = Ring.of(VariableBlock("v", (m + 1) * n, STATE), w)
    to_flat = {(f"f{s}", a): ("v", s * n + a) for s in range(m + 1) for a in range(n)}
    dense = build_lift(rho, m).rep
    rng = random.Random(37 * m + n)
    coefficients = [[rand_poly(rng, ring, 2, 3) for _ in range(d)] for _ in range(m + 1)]
    combination = field_from_coefficients(LiftedRepresentation(rho, m), ring, coefficients)
    radial = VectorField(ring, tuple(Polynomial.variable(ring, v)
                                     for v in ring.state_variables()))
    points = [[rng.randint(-4, 4) for _ in range((m + 1) * n)] for _ in range(3)]
    values = [[rng.randint(-4, 4)] for _ in points]
    for fld, member in ((combination, True), (radial, False)):
        results = tangency_check(rho, fld, points, values)
        assert [r.member for r in results] == [member] * 3
        assert all(len(r.witness) == (m + 1) * d for r in results if member)
        renamed = VectorField(flat, tuple(_renamed(p, flat, to_flat) for p in fld.components))
        assert results == tangency_check(dense, renamed, points, values)


def test_a_function_off_the_lift_layout_is_refused():
    # no state block, a block of the wrong size, V split into blocks whose sizes
    # add up to n, or V_1 as one block of size 2n: neither operator runs, so a
    # parameter-only phi is not vacuously invariant
    _, rho = so_n(3)
    w = Polynomial.variable(Ring.of(VariableBlock("w", 1, PARAMETER)), ("w", 0))
    ragged = Ring.of(VariableBlock("f0", 3, STATE), VariableBlock("f1", 2, STATE))
    split = Ring.of(VariableBlock("a", 1, STATE), VariableBlock("b", 2, STATE))
    for phi, sizes in ((w, r"\[\]"), (Polynomial.variable(ragged, ("f0", 0)), r"\[3, 2\]"),
                       (Polynomial.variable(split, ("a", 0)), r"\[1, 2\]"),
                       (Polynomial.variable(state_ring(6), ("x", 0)), r"\[6\]")):
        for check in (lambda: killing_residuals(rho, phi), lambda: is_invariant(rho, phi)):
            with pytest.raises(StructuralError, match=f"have sizes {sizes}, expected one or "
                                                      "more of size 3"):
                check()
    # the same layouts as fields: tangency refuses V split into three blocks of
    # size 1, and V_1 as one block; a field's state blocks share one size, so
    # the ragged and the (1, 2) split layouts are no fields at all
    thirds = Ring.of(*(VariableBlock(name, 1, STATE) for name in "abc"))
    for ring, sizes in ((thirds, r"\[1, 1, 1\]"), (state_ring(6), r"\[6\]")):
        radial = VectorField(ring, tuple(Polynomial.variable(ring, v)
                                         for v in ring.state_variables()))
        with pytest.raises(StructuralError, match=f"have sizes {sizes}, expected one or "
                                                  "more of size 3"):
            tangency_check(rho, radial, [(1,) * len(radial.components)])
    for ring in (ragged, split):
        with pytest.raises(StructuralError, match="state blocks must share one size"):
            VectorField(ring, tuple(Polynomial.variable(ring, v)
                                    for v in ring.state_variables()))


@pytest.mark.parametrize("m", range(3))
def test_the_gradient_is_taken_once_per_function(monkeypatch, m):
    # (m + 1) n partial derivatives serve all (m + 1) dim g Killing fields
    calls = []
    derivative = Polynomial.derivative

    def counted(self, var):
        calls.append(var)
        return derivative(self, var)

    monkeypatch.setattr(Polynomial, "derivative", counted)
    rng = random.Random(32 + m)
    for _, rho in KILLING_GRID:
        n = rho.space_dim
        ring = Ring.of(*(VariableBlock(f"f{s}", n, STATE) for s in range(m + 1)))
        phi = rand_poly(rng, ring, 3, 6)
        for check in (killing_residuals, is_invariant):
            calls.clear()
            check(rho, phi)
            assert 0 < len(calls) <= (m + 1) * n


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
    combo = _block_sum(rho, ring, [coeffs], 0)
    manual = add(rho.matrices[0], mx.scale(rho.matrices[2], Fraction(2)))
    xs = tuple(Polynomial.variable(ring, ("x", i)) for i in range(3))
    assert combo == matrix_apply(manual, xs)
    # given a start, the same sum is subtracted from it in one accumulation
    assert _block_sum(rho, ring, [coeffs], 0, xs) == tuple(
        x - c for x, c in zip(xs, combo))
    with pytest.raises(StructuralError):
        _block_sum(rho, ring, [coeffs[:2]], 0)
    with pytest.raises(StructuralError):
        _block_sum(rho, ring, [coeffs + coeffs[:1]], 0)


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
        q = quadratic_invariant(mx.identity(n), state_ring(n))
        for phi_k in lift_invariant(LiftedRepresentation(rho, m), q):
            # the level is read from phi_k's blocks f0..fm; rho is the base
            assert is_invariant(rho, phi_k)


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


@pytest.mark.parametrize("m", [-1, 1.0, "2", True, None])
def test_faa_di_bruno_refuses_a_level_that_is_not_an_int(m):
    phi = Polynomial.variable(state_ring(2), ("x", 0)) ** 2
    with pytest.raises(StructuralError) as info:
        faa_di_bruno_lift(phi, m)
    assert str(info.value) == f"level must be an int >= 0, got {m!r}"


def test_faa_di_bruno_bounds_its_partitions_before_enumerating():
    ring = state_ring(1)
    phi = Polynomial.variable(ring, ("x", 0)) ** 2
    assert _partition_total(20, MAX_FAA_DI_BRUNO_PARTITIONS) == 2713
    assert [_partition_total(k, 10 ** 9) for k in range(8)] == [
        sum(1 for j in range(1, k + 1) for _ in _weighted_partitions(j)) for k in range(8)]
    out = faa_di_bruno_lift(phi, 20)
    f = [Polynomial.variable(out[0].ring, (f"f{k}", 0)) for k in range(21)]
    assert out[20] == sum((f[k] * f[20 - k] for k in range(21)), Polynomial.zero(out[0].ring))
    for m in (40, 10 ** 9):
        start = time.perf_counter()
        with pytest.raises(StructuralError,
                           match=f"level {m} needs more than 10000 weighted partitions"):
            faa_di_bruno_lift(phi, m)
        assert time.perf_counter() - start < 0.1


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
