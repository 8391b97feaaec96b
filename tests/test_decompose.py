"""Decomposition of invariant-annihilating fields into Killing coefficients."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff import decompose, invariants, poly
from takiff import matrices as mx
from takiff.decompose import (
    Decomposition,
    QuadraticBaseSolver,
    TrivialBaseSolver,
    VectorField,
    annihilates_invariants,
    builtin_solver,
    field_from_coefficients,
    takiff_decompose,
    transport_decomposition,
    transport_field,
    verify_decomposition,
)
from takiff.errors import (
    DecompositionRefused,
    InternalConsistencyError,
    StructuralError,
    ValidationError,
)
from takiff.invariants import lift_family
from takiff.lie import (
    BilinearForm,
    Representation,
    abelian,
    adjoint_rep,
    coadjoint_rep,
    conjugate_representation,
    gl_n,
    killing_form,
    sl2,
    so_n,
    so_pq,
)
from takiff.poly import (
    PARAMETER,
    STATE,
    Monomial,
    Polynomial,
    Ring,
    VariableBlock,
    _euler_readout,
    matrix_apply,
)
from takiff.randgen import (
    SplitMix64,
    generate_instance,
    random_antisymmetric,
    random_polynomial,
)
from takiff.takiff_algebra import build_lift, build_takiff

from matrix_reference import add, scale


def level_ring(m, n, params=()):
    blocks = [VariableBlock(name, size, PARAMETER) for name, size in params]
    blocks += [VariableBlock(f"f{k}", n, STATE) for k in range(m + 1)]
    return Ring(tuple(blocks))


def base_ring(n):
    return Ring.of(VariableBlock("x", n, STATE))


def variables(ring, name, n):
    return tuple(Polynomial.variable(ring, (name, i)) for i in range(n))


def element_matrix(rep, element):
    """rho(sum_i element[i] x_i) as a dense matrix."""
    n = rep.space_dim
    acc = mx.zeros(n, n)
    for coeff, m in zip(element, rep.matrices):
        acc = add(acc, scale(m, coeff))
    return acc


def test_vector_field_validation():
    ring = level_ring(1, 2)
    zero = Polynomial.zero(ring)
    fld = VectorField(ring, (zero,) * 4)
    assert fld.level == 1 and fld.block_size == 2
    with pytest.raises(StructuralError):
        VectorField(ring, (zero,) * 3)
    only_params = Ring.of(VariableBlock("w", 2, PARAMETER))
    with pytest.raises(StructuralError):
        VectorField(only_params, (Polynomial.zero(only_params),))
    uneven = Ring.of(VariableBlock("f0", 2, STATE), VariableBlock("f1", 3, STATE))
    with pytest.raises(StructuralError):
        VectorField(uneven, (Polynomial.zero(uneven),) * 5)


def test_decomposition_validation():
    ring = level_ring(1, 2)
    zero = Polynomial.zero(ring)
    dec = Decomposition(ring, ((zero,), (zero,)))
    assert dec.level == 1
    with pytest.raises(StructuralError):
        Decomposition(ring, ())
    with pytest.raises(StructuralError):
        Decomposition(ring, ((zero,), (zero, zero)))
    other = level_ring(0, 2)
    with pytest.raises(StructuralError):
        Decomposition(ring, ((Polynomial.zero(other),),))


def test_annihilation_check():
    _, rho = so_n(2)
    lifted = build_lift(rho, 1)
    ring = level_ring(1, 2)
    solver = builtin_solver(rho)
    gens = lift_family(lifted, solver.family)
    f0 = variables(ring, "f0", 2)
    f1 = variables(ring, "f1", 2)
    rotation = VectorField(ring, (-f0[1], f0[0], -f1[1], f1[0]))
    assert annihilates_invariants(rotation, gens) == (True, None)
    radial = VectorField(ring, f0 + f1)
    ok, witness = annihilates_invariants(radial, gens)
    assert not ok and not witness.is_zero()
    with pytest.raises(StructuralError):
        annihilates_invariants(VectorField(base_ring(2), (Polynomial.zero(base_ring(2)),) * 2), gens)


def homotopy(gram, field):
    """The homotopy matrix b with b x = G a."""
    return decompose._homotopy(BilinearForm(gram), field)


def test_homotopy_solve_two_dimensional():
    ring = base_ring(2)
    x = variables(ring, "x", 2)
    fld = VectorField(ring, (-x[1], x[0]))
    b = homotopy(mx.identity(2), fld)
    assert b == [[Polynomial.zero(ring), -Polynomial.constant(ring, 1)],
                 [Polynomial.constant(ring, 1), Polynomial.zero(ring)]]


def test_homotopy_solve_three_dimensional():
    ring = base_ring(3)
    x = variables(ring, "x", 3)
    zero = Polynomial.zero(ring)
    fld = VectorField(ring, (x[1] * x[2], -x[0] * x[2], zero))
    b = homotopy(mx.identity(3), fld)
    assert b[0][1] == x[2] * Fraction(2, 3)
    assert b[0][2] == x[1] / 3
    assert b[1][2] == -x[0] / 3
    for i in range(3):
        assert b[i][i].is_zero()
        for j in range(3):
            assert b[i][j] == -b[j][i]
    # reconstruction identity b x = a (G = I), by hand
    for i in range(3):
        recon = sum((b[i][j] * x[j] for j in range(3)), zero)
        assert recon == fld.components[i]


def test_homotopy_solve_with_weighted_form():
    gram = mx.mat([[1, 0], [0, 2]])
    ring = base_ring(2)
    x = variables(ring, "x", 2)
    fld = VectorField(ring, (-2 * x[1], x[0]))
    b = homotopy(gram, fld)
    zero = Polynomial.zero(ring)
    # a = M x with M = ((0, -2), (1, 0)), so b = G M, antisymmetric for the weighted form
    assert b == [[zero, Polynomial.constant(ring, -2)],
                 [Polynomial.constant(ring, 2), zero]]
    assert matrix_apply(b, x) == matrix_apply(gram, fld.components)


def _sympy_poly(sympy, p, symbols):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(symbols[v] ** e for v, e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


@pytest.mark.parametrize("gram", [((2, 1), (1, 3)), ((2, 1, 0), (1, 3, 1), (0, 1, 2))],
                         ids=["n2", "n3"])
def test_homotopy_solve_matches_sympy_linsolve(gram):
    """Each x-degree d of the homotopy matrix solves the linear system that
    sympy.linsolve sets up on its own: b antisymmetric with b x = c_d,
    where c = G a and the unknowns are the coefficients of b at degree d - 1."""
    sympy = pytest.importorskip("sympy")
    gram = mx.mat(gram)
    n = len(gram)
    ring = base_ring(n)
    x = variables(ring, "x", n)
    xs = [sympy.Symbol(f"x{i}") for i in range(n)]
    symbols = {("x", i): xs[i] for i in range(n)}
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rng = SplitMix64(2026 + n)
    fractional = False
    for _ in range(6):
        drawn = random_antisymmetric(rng, ring, n, max_degree=3, num_terms=3)
        # a = G^-1 drawn x annihilates (1/2) x^T G x
        fld = VectorField(ring, matrix_apply(mx.inverse(gram), matrix_apply(drawn, x)))
        b = homotopy(gram, fld)
        gm = [[_sympy_poly(sympy, b[i][j], symbols) for j in range(n)] for i in range(n)]
        fractional |= any(c.denominator != 1 for row in b for p in row
                          for c in p.terms.values())
        for i in range(n):
            assert gm[i][i] == 0
            for j in range(n):
                assert sympy.expand(gm[i][j] + gm[j][i]) == 0
        c = [sympy.Poly(_sympy_poly(sympy, p, symbols), *xs)
             for p in matrix_apply(gram, fld.components)]
        degrees = {sum(mono) for p in c for mono in p.monoms() if p.coeff_monomial(mono)}
        for d in sorted(degrees):
            monos = [sympy.Mul(*(xs[k] for k in ks))
                     for ks in combinations_with_replacement(range(n), d - 1)]
            unknowns = {(pair, mu): sympy.Symbol(f"u_{pair[0]}{pair[1]}_{k}")
                        for pair in pairs for k, mu in enumerate(monos)}
            entry = {}
            for (p, q) in pairs:
                entry[p, q] = sum(unknowns[(p, q), mu] * mu for mu in monos)
                entry[q, p] = -entry[p, q]
            equations = []
            for i in range(n):
                part = sum((coeff * sympy.Mul(*(v ** e for v, e in zip(xs, mono)))
                            for mono, coeff in c[i].terms() if sum(mono) == d),
                           sympy.Integer(0))
                lhs = sum(entry[i, j] * xs[j] for j in range(n) if (i, j) in entry)
                equations += sympy.Poly(sympy.expand(lhs - part), *xs).coeffs()
            (general,) = sympy.linsolve(equations, list(unknowns.values()))
            # the homotopy's slice is one member of the linsolve family
            degree_slice = [sympy.Poly(gm[p][q], *xs).coeff_monomial(mu)
                            for (p, q), mu in unknowns]
            member = sympy.linsolve([g - h for g, h in zip(general, degree_slice)],
                                    list(unknowns.values()))
            assert member != sympy.EmptySet
    # for n = 2 the antisymmetric b with b x = c is unique, so b is the drawn
    # integral matrix; for n = 3 the 1/(d + 1) weights give fractions
    assert fractional == (n == 3)


def test_homotopy_solve_refuses_radial_field():
    for n in (2, 3):
        ring = base_ring(n)
        x = variables(ring, "x", n)
        with pytest.raises(DecompositionRefused) as info:
            homotopy(mx.identity(n), VectorField(ring, x))
        witness = info.value.witness
        expected = sum((xi * xi for xi in x), Polynomial.zero(ring))
        assert witness == expected


def per_degree_homotopy(gram, field):
    """Reference homotopy: b accumulated one x-degree at a time."""
    ring = field.ring
    (x,) = field.state_blocks
    n = x.size
    by_degree = [p.homogeneous_components(x.name)
                 for p in matrix_apply(gram, field.components)]
    zero = Polynomial.zero(ring)
    b = [[zero] * n for _ in range(n)]
    for d in sorted({d for parts in by_degree for d in parts}):
        for i in range(n):
            ci = by_degree[i].get(d, zero)
            for j in range(i + 1, n):
                cj = by_degree[j].get(d, zero)
                entry = (ci.derivative((x.name, j)) - cj.derivative((x.name, i))) / (d + 1)
                b[i][j] = b[i][j] + entry
                b[j][i] = b[j][i] - entry
    return b


def seeded_base_fields(gram, seed, count=4):
    """Fields G^-1 b x on V with a parameter block, for random antisymmetric b."""
    n = len(gram)
    ring = Ring.of(VariableBlock("w", 2, PARAMETER), VariableBlock("x", n, STATE))
    x = variables(ring, "x", n)
    rng = SplitMix64(seed)
    ginv = mx.inverse(gram)
    return [VectorField(ring, matrix_apply(ginv, matrix_apply(
        random_antisymmetric(rng, ring, n, max_degree=3, num_terms=4), x)))
        for _ in range(count)]


SO3_GRAM, SO4_GRAM = mx.identity(3), mx.identity(4)
SL2_KILLING_GRAM = killing_form(sl2()[0]).gram


@pytest.mark.parametrize("gram", [SO3_GRAM, SO4_GRAM, SL2_KILLING_GRAM],
                         ids=["so3", "so4", "sl2-killing"])
def test_homotopy_solve_equals_the_per_degree_reference(gram):
    fractional = False
    for fld in seeded_base_fields(gram, seed=2026 + len(gram)):
        b = homotopy(gram, fld)
        assert b == per_degree_homotopy(gram, fld)
        fractional |= any(p._den != 1 for row in b for p in row)
    assert fractional  # the 1/(d + 1) weights are exercised


def test_homotopy_solve_refusal_carries_the_syzygy_witness():
    gram = SL2_KILLING_GRAM
    fld = seeded_base_fields(gram, seed=5, count=1)[0]
    ring = fld.ring
    x = variables(ring, "x", 3)
    w0 = Polynomial.variable(ring, ("w", 0))
    # a += w0 x adds w0 B(x, x) to the syzygy B(a, x), which was zero
    bent = VectorField(ring, tuple(a + w0 * xi for a, xi in zip(fld.components, x)))
    with pytest.raises(DecompositionRefused) as info:
        homotopy(gram, bent)
    quadratic = sum((x[i] * x[j] * gram[i][j] for i in range(3) for j in range(3)),
                    Polynomial.zero(ring))
    assert info.value.witness == w0 * quadratic


def test_quadratic_solver_recovers_constant_coefficients():
    g, rho = so_n(3)
    solver = QuadraticBaseSolver(rho, BilinearForm(mx.identity(3)))
    ring = base_ring(3)
    element = (Fraction(1), Fraction(-2), Fraction(3))
    matrix = element_matrix(rho, element)
    x = variables(ring, "x", 3)
    fld = VectorField(ring, matrix_apply(matrix, x))
    coeffs = solver.solve(fld)
    assert coeffs == tuple(Polynomial.constant(ring, c) for c in element)


def test_quadratic_solver_with_killing_gram_on_adjoint():
    g, _ = sl2()
    ad = adjoint_rep(g)
    solver = QuadraticBaseSolver(ad, killing_form(g))
    ring = base_ring(3)
    element = (Fraction(2), Fraction(0), Fraction(-1))
    x = variables(ring, "x", 3)
    fld = VectorField(ring, matrix_apply(element_matrix(ad, element), x))
    coeffs = solver.solve(fld)
    assert coeffs == tuple(Polynomial.constant(ring, c) for c in element)


def test_quadratic_solver_validation():
    _, rho2 = sl2()  # dim 3 acting on dimension 2; so(B) has dimension 1
    with pytest.raises(ValidationError):
        QuadraticBaseSolver(rho2, BilinearForm(mx.identity(2)))
    _, rho = so_n(3)
    with pytest.raises(ValidationError):
        QuadraticBaseSolver(rho, BilinearForm(mx.zeros(3, 3)))
    with pytest.raises(StructuralError):
        QuadraticBaseSolver(rho, BilinearForm(mx.identity(2)))
    # dim(g) = dim so(3), but the basis images span only a line
    a = rho.matrices[0]
    flat_rho = Representation(abelian(3)[0], (a, a, mx.zeros(3, 3)))
    with pytest.raises(ValidationError, match="linearly dependent"):
        QuadraticBaseSolver(flat_rho, BilinearForm(mx.identity(3)))


def test_quadratic_solver_factors_the_basis_images_with_one_elimination(monkeypatch):
    _, rho = so_n(4)
    eliminate = mx._eliminate
    calls = []

    def counted(a, rhs):
        calls.append(mx.shape(a))
        return eliminate(a, rhs)

    monkeypatch.setattr(mx, "_eliminate", counted)
    QuadraticBaseSolver(rho, BilinearForm(mx.identity(4)))
    # the inverse of the 6 x 6 matrix of so(B) coordinates of the images
    assert calls == [(6, 6)]


SO21_GRAM = mx.mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
THETA = mx.mat([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
SOLVER_CASES = {
    "so3": (so_n(3)[1], SO3_GRAM),
    "so4": (so_n(4)[1], SO4_GRAM),
    "sl2-killing": (adjoint_rep(sl2()[0]), SL2_KILLING_GRAM),
    "so21": (so_pq(2, 1)[1], SO21_GRAM),
    # theta rho theta^-1 preserves theta^-T theta^-1; its so(B) coordinate
    # matrix is not symmetric, unlike those of the four cases above
    "so3-conjugated": (conjugate_representation(so_n(3)[1], THETA),
                       mx.mul(mx.transpose(mx.inverse(THETA)), mx.inverse(THETA))),
}
COORDINATES = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def drawn_polynomial(data, ring, variables):
    """A small polynomial with integer coefficients in the given variables."""
    term = st.tuples(st.integers(-4, 4), st.lists(st.sampled_from(variables), max_size=2))
    terms = {}
    for coeff, factors in data.draw(st.lists(term, max_size=3)):
        mono = Monomial.from_map({v: factors.count(v) for v in factors})
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(ring, terms)


def killing_field(rep, ring, coefficients):
    """The components of rho(c) x for polynomial coefficients c."""
    x = variables(ring, "x", rep.space_dim)
    images = [matrix_apply(m, x) for m in rep.matrices]
    return tuple(Polynomial.combination(ring, ((c, image[i]) for c, image in
                                               zip(coefficients, images)))
                 for i in range(rep.space_dim))


@pytest.mark.parametrize("case", list(SOLVER_CASES))
@COORDINATES
@given(data=st.data())
def test_quadratic_solver_reads_the_so_b_coordinates(case, data):
    rep, gram = SOLVER_CASES[case]
    solver = QuadraticBaseSolver(rep, BilinearForm(gram))
    n, d = rep.space_dim, rep.algebra.dim
    ring = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("x", n, STATE))
    w = [("w", 0)]
    # x-free coefficients are the unique coordinates of rho(c) in so(B)
    constant = tuple(drawn_polynomial(data, ring, w) for _ in range(d))
    assert solver.solve(VectorField(ring, killing_field(rep, ring, constant))) == constant
    # x-dependent ones are not unique, but they reconstruct the field
    varying = tuple(drawn_polynomial(data, ring, w + [("x", i) for i in range(n)])
                    for _ in range(d))
    field = killing_field(rep, ring, varying)
    assert killing_field(rep, ring, solver.solve(VectorField(ring, field))) == field


@pytest.mark.parametrize("p, q", [(2, 1), (1, 2)])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_so_pq_instance_decomposes_with_its_standard_gram(p, q, m):
    inst = generate_instance("so_pq", m, seed=40 + m, p=p, q=q)
    assert inst.gram == tuple(tuple((1 if i < p else -1) if i == j else 0
                                    for j in range(p + q)) for i in range(p + q))
    dec = takiff_decompose(inst.lifted, builtin_solver(inst.rep, inst.gram), inst.field)
    assert verify_decomposition(inst.lifted, inst.field, dec)[0]


def test_decompose_through_the_quadratic_solver_never_inverts_the_gram_matrix(monkeypatch):
    def unexpected(a):
        raise AssertionError(f"a matrix was inverted: {a}")

    for kind, params in (("so_n", {"n": 4}), ("sl2_adjoint", {}), ("so_pq", {"p": 2, "q": 1})):
        inst = generate_instance(kind, 2, seed=3, **params)
        solver = builtin_solver(inst.rep, inst.gram)
        with monkeypatch.context() as patch:
            patch.setattr(mx, "inverse", unexpected)
            dec = takiff_decompose(inst.lifted, solver, inst.field)
            assert verify_decomposition(inst.lifted, inst.field, dec)[0]


def test_trivial_solver():
    _, rho = abelian(2)
    solver = TrivialBaseSolver(rho)
    ring = base_ring(2)
    zero = Polynomial.zero(ring)
    assert solver.solve(VectorField(ring, (zero, zero))) == (zero, zero)
    x0 = Polynomial.variable(ring, ("x", 0))
    with pytest.raises(DecompositionRefused) as info:
        solver.solve(VectorField(ring, (x0, zero)))
    assert info.value.witness == x0
    _, rot = so_n(2)
    with pytest.raises(ValidationError):
        TrivialBaseSolver(rot)


def test_builtin_solver_dispatch():
    _, rho = abelian(3)
    assert isinstance(builtin_solver(rho), TrivialBaseSolver)
    _, rot = so_n(2)
    solver = builtin_solver(rot)
    assert isinstance(solver, QuadraticBaseSolver)
    assert solver.form.gram == mx.identity(2)


CONTRACT_CASES = {
    **{case: SOLVER_CASES[case] for case in ("so3", "so4", "sl2-killing", "so21")},
    "trivial-abelian2": (abelian(2)[1], None),
}


@pytest.mark.parametrize("case", list(CONTRACT_CASES))
@COORDINATES
@given(data=st.data())
def test_a_solver_refuses_exactly_the_fields_that_do_not_annihilate_its_family(case, data):
    # the BaseSolver contract, on which takiff_decompose rests its refusals
    rep, gram = CONTRACT_CASES[case]
    solver = builtin_solver(rep, gram)
    n, d = rep.space_dim, rep.algebra.dim
    ring = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("x", n, STATE))
    names = [("w", 0)] + [("x", i) for i in range(n)]
    components = killing_field(rep, ring, [drawn_polynomial(data, ring, names)
                                           for _ in range(d)])
    if data.draw(st.booleans()):
        components = tuple(k + drawn_polynomial(data, ring, names) for k in components)
    field = VectorField(ring, components)
    ok, pairing = annihilates_invariants(field, solver.family.generators)
    if ok:
        assert killing_field(rep, ring, solver.solve(field)) == field.components
    else:
        with pytest.raises(DecompositionRefused) as info:
            solver.solve(field)
        assert info.value.witness == pairing


def check_roundtrip(rho, m, coefficient_builder, params=()):
    lifted = build_lift(rho, m)
    ring = level_ring(m, rho.space_dim, params)
    coefficients = coefficient_builder(ring)
    fld = field_from_coefficients(lifted, ring, coefficients)
    solver = builtin_solver(rho)
    dec = takiff_decompose(lifted, solver, fld)
    ok, residuals = verify_decomposition(lifted, fld, dec)
    assert ok and all(p.is_zero() for p in residuals)
    return lifted, fld, dec


def test_decompose_roundtrip_so2():
    _, rho = so_n(2)

    def build(ring):
        f0 = variables(ring, "f0", 2)
        return ((f0[0] + 2 * f0[1],), (Polynomial.constant(ring, 3),))

    check_roundtrip(rho, 1, build)


def test_decompose_roundtrip_so3_level2():
    _, rho = so_n(3)

    def build(ring):
        f0 = variables(ring, "f0", 3)
        f1 = variables(ring, "f1", 3)
        zero = Polynomial.zero(ring)
        return ((f0[0], zero, f1[2]),
                (zero, f0[1] * f0[2], zero),
                (Polynomial.constant(ring, 1), zero, f0[0] ** 2))

    check_roundtrip(rho, 2, build)


def test_decompose_roundtrip_with_parameter():
    _, rho = so_n(2)

    def build(ring):
        w = Polynomial.variable(ring, ("w", 0))
        f0 = variables(ring, "f0", 2)
        return ((w * f0[0],), (w * w,))

    lifted, fld, dec = check_roundtrip(rho, 1, build, params=(("w", 1),))
    used = {v for p in fld.components for mono, _ in p.terms.items()
            for v in mono.variables()}
    assert ("w", 0) in used


def test_decompose_refuses_with_witness():
    _, rho = so_n(2)
    lifted = build_lift(rho, 1)
    ring = level_ring(1, 2)
    f0 = variables(ring, "f0", 2)
    zero = Polynomial.zero(ring)
    radial = VectorField(ring, (f0[0], f0[1], zero, zero))
    solver = builtin_solver(rho)
    with pytest.raises(DecompositionRefused) as info:
        takiff_decompose(lifted, solver, radial)
    assert info.value.witness is not None
    assert not info.value.witness.is_zero()


def counted_block_sums(monkeypatch):
    """Record the (levels, j, residual?) of every _block_sum call; building a
    variable fails. A residual call is one given a start a, which returns
    a - sum in the same accumulation."""
    calls = []
    original = decompose._block_sum

    def counted(rep, ring, coefficients, j, start=None):
        calls.append((len(coefficients), j, start is not None))
        return original(rep, ring, coefficients, j, start)

    def unexpected(*args):
        raise AssertionError("a velocity polynomial was built")

    monkeypatch.setattr(decompose, "_block_sum", counted)
    monkeypatch.setattr(Polynomial, "variable", unexpected)
    return calls


def test_reconstruction_makes_one_block_sum_per_level(monkeypatch):
    inst = generate_instance("so_n", 3, seed=11, n=3)
    assert not any(p.is_zero() for level in inst.coefficients for p in level)
    calls = counted_block_sums(monkeypatch)
    field = field_from_coefficients(inst.lifted, inst.field.ring, inst.coefficients)
    assert field == inst.field
    # block j sums levels 0..j, with no start
    assert calls == [(j + 1, j, False) for j in range(4)]


def test_decomposition_makes_one_correction_and_one_check_per_level(monkeypatch):
    inst = generate_instance("so_n", 3, seed=11, n=3)
    solver = builtin_solver(inst.rep)
    calls = counted_block_sums(monkeypatch)
    takiff_decompose(inst.lifted, solver, inst.field)
    # level 0 is only checked; level j >= 1 gets its right-hand side as the
    # residual of levels 0..j-1, then is checked as that residual minus
    # rho(b_j) f_0: 2m + 1 calls at m = 3, every one a residual
    assert calls == [(1, 0, True)] + [
        call for j in range(1, 4) for call in ((j, j, True), (1, 0, True))]


def test_a_decomposition_builds_no_difference_derivative_or_degree_split(monkeypatch):
    # every residual, check and homotopy entry is one accumulation, so a whole
    # decompose and verify makes none of the intermediate polynomials
    calls = []

    def spy(name):
        original = getattr(Polynomial, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for kind, params in (("so_n", {"n": 3}), ("sl2_adjoint", {})):
        inst = generate_instance(kind, 2, seed=5, max_degree=3, **params)
        solver = builtin_solver(inst.rep, inst.gram)
        with monkeypatch.context() as patch:
            for name in ("__sub__", "__rsub__", "homogeneous_components", "derivative"):
                patch.setattr(Polynomial, name, spy(name))
            dec = takiff_decompose(inst.lifted, solver, inst.field)
            ok, _ = verify_decomposition(inst.lifted, inst.field, dec)
        assert ok
    assert calls == []


def fractional_instance(kind, m, seed, **params):
    """A generated instance whose level-r coefficients are divided by 3 + 2r."""
    inst = generate_instance(kind, m, seed=seed, max_degree=2, **params)
    coefficients = tuple(tuple(p / (3 + 2 * r) for p in level)
                         for r, level in enumerate(inst.coefficients))
    ring = inst.field.ring
    return inst, coefficients, field_from_coefficients(inst.lifted, ring, coefficients)


@pytest.mark.parametrize("kind, params", [("so_n", {"n": 3}), ("sl2_adjoint", {})],
                         ids=["so3", "sl2-killing"])
def test_verify_residuals_equal_the_field_minus_its_reconstruction(kind, params):
    inst, coefficients, field = fractional_instance(kind, 2, seed=17, **params)
    ring = field.ring
    assert any(c.denominator != 1 for p in field.components for c in p.terms.values())
    dec = takiff_decompose(inst.lifted, builtin_solver(inst.rep, inst.gram), field)
    w = Polynomial.variable(ring, ("w", 0))
    for r in range(3):
        corrupted = [list(level) for level in dec.coefficients]
        corrupted[r][1] = corrupted[r][1] + w / 7
        bad = Decomposition(ring, tuple(map(tuple, corrupted)))
        ok, residuals = verify_decomposition(inst.lifted, field, bad)
        # the two-step reference: the reconstruction, then a subtraction
        recon = field_from_coefficients(inst.lifted, ring, bad.coefficients).components
        assert residuals == tuple(a - b for a, b in zip(field.components, recon))
        assert not ok
        n = inst.rep.space_dim
        assert all(p.is_zero() for p in residuals[:r * n])
        assert any(not p.is_zero() for p in residuals[r * n:(r + 1) * n])


@pytest.mark.parametrize("kind, params", [("so_n", {"n": 3}), ("sl2_adjoint", {})],
                         ids=["so3", "sl2-killing"])
def test_the_residual_block_sum_equals_start_minus_the_block_sum(kind, params):
    inst, coefficients, field = fractional_instance(kind, 2, seed=23, **params)
    ring, rep, n = field.ring, inst.rep, inst.rep.space_dim
    start = tuple(p / 5 for p in field.components[2 * n:3 * n])
    for levels in (coefficients[:1], coefficients[:2], coefficients):
        j = len(levels) - 1
        plain = decompose._block_sum(rep, ring, levels, j)
        fused = decompose._block_sum(rep, ring, levels, j, start)
        assert fused == tuple(a - b for a, b in zip(start, plain))


def test_euler_curl_equals_the_per_degree_reference_over_distinct_denominators():
    # the curl is defined for any c, so c_i is drawn freely with denominator
    # 3, 5, 7, ...: every pair (c_i, c_j) has distinct denominators
    for n in (2, 3, 4):
        rng = SplitMix64(99 + n)
        ring = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("x", n, STATE))
        for _ in range(4):
            c = tuple(random_polynomial(rng, ring, 3, 5) / (3 + 2 * i) for i in range(n))
            assert [p._den for p in c if not p.is_zero()] == [
                3 + 2 * i for i, p in enumerate(c) if not p.is_zero()]
            pairs = mx.identity(n * (n - 1) // 2)
            upper = iter(_euler_readout(c, "x", decompose._readout_rows(mx.identity(n), pairs)))
            reference = per_degree_homotopy(mx.identity(n), VectorField(ring, c))
            for i in range(n):
                for j in range(i + 1, n):
                    assert next(upper) == reference[i][j]
    # and on annihilating fields c = M x, with M_01 integral and 1/3 and 1/5
    # added to M_02 and M_12, so that c_0, c_1 and c_2 have denominators 3, 5
    # and 15
    ring = base_ring(3)
    x = variables(ring, "x", 3)
    rng = SplitMix64(7)
    for gram in (SO3_GRAM, SL2_KILLING_GRAM):
        drawn = random_antisymmetric(rng, ring, 3, max_degree=2, num_terms=3)
        shift = {(0, 1): 0, (0, 2): Fraction(1, 3), (1, 2): Fraction(1, 5)}
        m = [[drawn[i][j] + (shift[i, j] if i < j else -shift[j, i]) if i != j
              else drawn[i][j] for j in range(3)] for i in range(3)]
        fld = VectorField(ring, matrix_apply(mx.inverse(gram), matrix_apply(m, x)))
        assert [p._den for p in matrix_apply(gram, fld.components)] == [3, 5, 15]
        assert homotopy(gram, fld) == per_degree_homotopy(gram, fld)


def test_the_homotopy_folds_the_gram_into_its_rows_and_builds_no_product(monkeypatch):
    # G = I given as fractions and diag(1, 2, 1) are both folded into the
    # readout's rows: no G a, no product and no matrix_apply, whatever the Gram
    def unexpected(*args):
        raise AssertionError("the homotopy built a product")

    form = BilinearForm(tuple(tuple(Fraction(int(i == j)) for j in range(3))
                              for i in range(3)))
    weighted = BilinearForm(((1, 0, 0), (0, 2, 0), (0, 0, 1)))
    for fld in seeded_base_fields(SO3_GRAM, seed=31):
        reference = per_degree_homotopy(SO3_GRAM, fld)
        # a field with the same c = G a under diag(1, 2, 1)
        a = fld.components
        halved = VectorField(fld.ring, (a[0], a[1] / 2, a[2]))
        with monkeypatch.context() as patch:
            patch.setattr(decompose, "matrix_apply", unexpected)
            patch.setattr(Polynomial, "combination", unexpected)
            b = decompose._homotopy(form, fld)
            assert decompose._homotopy(weighted, halved) == b
        assert b == reference


RECONSTRUCTION_CASES = {
    "so2": so_n(2)[1],
    "so3": so_n(3)[1],
    "sl2-adjoint": adjoint_rep(sl2()[0]),
    "gl2": gl_n(2)[1],
}


def dense_block_sums(lifted, ring, coefficients):
    """rho_m(b) F read densely: sum_{r,i} b_r[i] rho_m(x_i T^r) F, all blocks."""
    d = lifted.base_rep.algebra.dim
    F = [Polynomial.variable(ring, v) for v in ring.state_variables()]
    images = [matrix_apply(matrix, F) for matrix in lifted.rep.matrices]
    return tuple(Polynomial.combination(ring, (
        (level[i], images[r * d + i][t]) for r, level in enumerate(coefficients)
        for i in range(d))) for t in range(len(F)))


@pytest.mark.parametrize("case", list(RECONSTRUCTION_CASES))
@COORDINATES
@given(m=st.integers(0, 3), data=st.data())
def test_reconstruction_equals_the_dense_lifted_action(case, m, data):
    # rho_m(b) F = sum_{r,i} b_r[i] rho_m(x_i T^r) F, with rho_m read densely
    rep = RECONSTRUCTION_CASES[case]
    lifted = build_lift(rep, m)
    n, d = rep.space_dim, rep.algebra.dim
    ring = level_ring(m, n, params=[("w", 1)])
    names = list(ring.variables())
    b = [[drawn_polynomial(data, ring, names) for _ in range(d)] for _ in range(m + 1)]
    assert field_from_coefficients(lifted, ring, b).components == \
        dense_block_sums(lifted, ring, b)


@pytest.mark.parametrize("case", ["so3", "sl2-killing", "so3-conjugated"])
def test_the_block_sum_equals_the_dense_lifted_action_over_denominators(case):
    # level r of b over 3 + 2r (3, 5 and 7) and a start over 11; the conjugated
    # so(3) acts by thirds, so every part of the common denominator is used
    rep, _ = SOLVER_CASES[case]
    m, n, d = 2, rep.space_dim, rep.algebra.dim
    lifted = build_lift(rep, m)
    ring = level_ring(m, n, params=[("w", 1)])
    rng = SplitMix64(41)
    b = [[random_polynomial(rng, ring, 2, 3) / (3 + 2 * r) for _ in range(d)]
         for r in range(m + 1)]
    assert {p._den for level in b for p in level if not p.is_zero()} == {3, 5, 7}
    start = [random_polynomial(rng, ring, 2, 3) / 11 for _ in range((m + 1) * n)]
    dense = dense_block_sums(lifted, ring, b)
    for j in range(m + 1):
        block = slice(j * n, (j + 1) * n)
        assert decompose._block_sum(rep, ring, b[:j + 1], j) == dense[block]
        assert decompose._block_sum(rep, ring, b[:j + 1], j, start[block]) == tuple(
            a - s for a, s in zip(start[block], dense[block]))


def test_the_block_sum_resolves_its_entries_without_scalars(monkeypatch):
    # every entry reaches the one accumulation as integers: no exact-scalar
    # read, no triple, and one accumulation per component
    rep, _ = SOLVER_CASES["so3-conjugated"]
    _, coefficients, field = fractional_instance("so_n", 2, seed=23, n=3)
    ring = field.ring
    sums = []
    shifted_sum = decompose._shifted_sum

    def counted(entries):
        sums.append(entries)
        return shifted_sum(entries)

    monkeypatch.setattr(decompose, "_shifted_sum", counted)
    monkeypatch.setattr(poly, "_ratio", _no_scalar)
    monkeypatch.setattr(Polynomial, "variable_combination", _no_scalar)
    out = decompose._block_sum(rep, ring, coefficients, 2, field.components[6:])
    assert len(out) == 3 and len(sums) == 3
    assert all(type(k) is int and type(one) is int for entries in sums for k, one, _ in entries)


def _no_scalar(*_):
    raise AssertionError("the block sum read a scalar or built a triple")


@pytest.mark.parametrize("m", [1, 2])
def test_a_transported_field_decomposes_over_the_conjugated_representation(m):
    # theta so(3) theta^-1 acts by thirds and keeps theta^-T theta^-1
    tau, gram = SOLVER_CASES["so3-conjugated"]
    inst = generate_instance("so_n", m, seed=13, n=3)
    moved = transport_field(inst.field, THETA)
    assert any(type(c) is Fraction for p in moved.components for c in p.terms.values())
    lifted = build_lift(tau, m)
    dec = takiff_decompose(lifted, builtin_solver(tau, gram), moved)
    ok, residuals = verify_decomposition(lifted, moved, dec)
    assert ok and all(p.is_zero() for p in residuals)
    assert field_from_coefficients(lifted, moved.ring, dec.coefficients) == moved


def test_the_so5_base_solve_reads_no_zero_scalar(monkeypatch):
    # for so(n) with G = I the coordinates are U^-1 = -I, resolved into the
    # readout when the solver is built: a solve reads only the 5 unit weights
    # of the syzygy, and no zero
    _, rho = so_n(5)
    solver = builtin_solver(rho)
    assert solver._coordinates == scale(mx.identity(10), -1)
    ring = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("x", 5, STATE))
    w = Polynomial.variable(ring, ("w", 0))
    coefficients = tuple(w + k for k in range(10))
    fld = VectorField(ring, killing_field(rho, ring, coefficients))
    seen = []
    ratio = poly._ratio
    monkeypatch.setattr(poly, "_ratio", lambda value: seen.append(value) or ratio(value))
    assert solver.solve(fld) == coefficients
    assert seen == [1] * 5


READOUT_CASES = {**SOLVER_CASES, "so5": (so_n(5)[1], mx.identity(5))}


def readout_fields(rep, seed, count=4):
    """Seeded Killing fields rho(b) x on V with a parameter block w, b_k over 1..3."""
    n, d = rep.space_dim, rep.algebra.dim
    ring = Ring.of(VariableBlock("w", 2, PARAMETER), VariableBlock("x", n, STATE))
    lifted = build_lift(rep, 0)
    rng = SplitMix64(seed)
    return [field_from_coefficients(lifted, ring, [[
        random_polynomial(rng, ring, 2, 3) / (1 + k % 3) for k in range(d)]])
        for _ in range(count)]


def reference_solve(solver, field):
    """U^-1 applied to the entries above the diagonal of the per-degree homotopy
    H(dc_i/dx_j - dc_j/dx_i), c = G a, built by derivatives and a split by degree."""
    b = per_degree_homotopy(solver.form.gram, field)
    n = len(b)
    return matrix_apply(solver._coordinates, [b[i][j] for i in range(n) for j in range(i + 1, n)])


@pytest.mark.parametrize("case", list(READOUT_CASES))
def test_the_readout_equals_the_derivative_reference(case):
    rep, gram = READOUT_CASES[case]
    solver = QuadraticBaseSolver(rep, BilinearForm(gram))
    n = rep.space_dim
    fractional = False
    for fld in readout_fields(rep, seed=2026 + n):
        ring = fld.ring
        x = variables(ring, "x", n)
        coeffs = solver.solve(fld)
        assert coeffs == reference_solve(solver, fld)
        fractional |= any(p._den != 1 for p in coeffs)
        # the homotopy matrix, through the same kernel, is antisymmetric with b x = G a
        b = decompose._homotopy(solver.form, fld)
        assert all(b[i][j] == -b[j][i] for i in range(n) for j in range(n))
        assert matrix_apply(b, x) == matrix_apply(gram, fld.components)
        # f += p x_0 e_0 adds p x_0 (G x)_0 to the syzygy; the refusal carries
        # the reference syzygy sum_i (G a)_i x_i
        p = Polynomial.variable(ring, ("w", 0)) * 2 + Polynomial.variable(ring, ("w", 1)) / 3
        bent = VectorField(ring, (fld.components[0] + p * x[0],) + fld.components[1:])
        with pytest.raises(DecompositionRefused) as info:
            solver.solve(bent)
        syzygy = Polynomial.combination(ring, zip(matrix_apply(gram, bent.components), x))
        assert not syzygy.is_zero() and info.value.witness == syzygy
    assert fractional


@pytest.mark.parametrize("case", list(READOUT_CASES))
def test_a_solve_is_one_accumulation_per_coefficient_and_one_syzygy(case, monkeypatch):
    rep, gram = READOUT_CASES[case]
    solver = QuadraticBaseSolver(rep, BilinearForm(gram))
    (fld,) = readout_fields(rep, seed=7, count=1)
    sums = []
    shifted_sum = poly._shifted_sum

    def counted(entries):
        sums.append(entries)
        return shifted_sum(entries)

    def unexpected(*args):
        raise AssertionError("the solve built a product")

    monkeypatch.setattr(poly, "_shifted_sum", counted)
    monkeypatch.setattr(poly, "matrix_apply", unexpected)
    monkeypatch.setattr(decompose, "matrix_apply", unexpected)
    monkeypatch.setattr(Polynomial, "combination", unexpected)
    coeffs = solver.solve(fld)
    assert len(coeffs) == rep.algebra.dim and len(sums) == rep.algebra.dim + 1


class StubSolver:
    """The built-in so(3) solver, except on one chosen call of ``solve``."""

    def __init__(self, rep, on_call, action):
        self._inner = builtin_solver(rep)
        self.rep, self.family = self._inner.rep, self._inner.family
        self._on_call, self._action = on_call, action
        self.calls = 0

    def solve(self, field):
        self.calls += 1
        coeffs = self._inner.solve(field)
        if self.calls == self._on_call:
            return self._action(field, coeffs)
        return coeffs


STUB_WITNESS = Polynomial.constant(base_ring(3), 7)


def stub_refusal(field, coeffs):
    raise DecompositionRefused("stub refusal", witness=STUB_WITNESS)


def perturbed_b0(field, coeffs):
    return (coeffs[0] + 1,) + tuple(coeffs[1:])


@pytest.mark.parametrize("level", [0, 1])
def test_a_solver_refusal_is_the_field_refusal_at_every_level(level):
    inst = generate_instance("so_n", 2, seed=11, n=3)
    solver = StubSolver(inst.rep, level + 1, stub_refusal)
    with pytest.raises(DecompositionRefused) as info:
        takiff_decompose(inst.lifted, solver, inst.field)
    assert str(info.value) == "field does not annihilate the lifted invariants"
    cause = info.value.__cause__
    assert isinstance(cause, DecompositionRefused)
    assert str(cause) == "stub refusal" and cause.witness is STUB_WITNESS
    assert info.value.witness == STUB_WITNESS.cast(inst.field.ring)
    assert solver.calls == level + 1


def test_a_wrong_b0_is_an_internal_error_at_level_0_not_a_refusal():
    inst = generate_instance("so_n", 2, seed=11, n=3)
    solver = StubSolver(inst.rep, 1, perturbed_b0)
    # the level-0 check catches the wrong b_0 before the level-1 solve, whose
    # refusal would otherwise blame the field
    with pytest.raises(InternalConsistencyError, match="level-0 coefficients"):
        takiff_decompose(inst.lifted, solver, inst.field)
    assert solver.calls == 1


def test_a_wrong_top_level_b_is_an_internal_error_not_a_wrong_decomposition():
    m = 2
    inst = generate_instance("so_n", m, seed=11, n=3)
    solver = StubSolver(inst.rep, m + 1, perturbed_b0)
    with pytest.raises(InternalConsistencyError,
                       match=f"the level-{m} coefficients do not reconstruct a_{m}"):
        takiff_decompose(inst.lifted, solver, inst.field)
    assert solver.calls == m + 1


def test_decompose_leaves_the_annihilation_check_to_the_solver(monkeypatch):
    inst = generate_instance("so_n", 3, seed=11, n=3)
    solver = builtin_solver(inst.rep)
    solves, refusals = [], []
    solve = solver.solve

    def counted_solve(field):
        solves.append(field)
        try:
            return solve(field)
        except DecompositionRefused:
            refusals.append(len(solves))
            raise

    def unexpected(*args):
        raise AssertionError("the decomposition path checks, lifts or substitutes")

    monkeypatch.setattr(decompose, "annihilates_invariants", unexpected)
    monkeypatch.setattr(solver, "solve", counted_solve)
    monkeypatch.setattr(Polynomial, "substitute", unexpected)
    monkeypatch.setattr(invariants, "substitute_curve", unexpected)
    dec = takiff_decompose(inst.lifted, solver, inst.field)
    assert verify_decomposition(inst.lifted, inst.field, dec)[0]
    # one solve per level, each on the level's base field over f_0
    ring = inst.field.ring
    blocks = ring.state_blocks()
    assert [fld.state_blocks for fld in solves] == [(blocks[0],)] * 4
    assert refusals == []

    # f_3 += p f_0 breaks only Phi_3, whose f_3-gradient is f_0
    f0 = variables(ring, blocks[0].name, 3)
    p = Polynomial.variable(ring, (blocks[1].name, 0)) * 2 + 1
    comps = list(inst.field.components)
    for i in range(3):
        comps[3 * 3 + i] = comps[3 * 3 + i] + p * f0[i]
    solves.clear()
    with pytest.raises(DecompositionRefused) as info:
        takiff_decompose(inst.lifted, solver, VectorField(ring, tuple(comps)))
    assert len(solves) == 4 and refusals == [4]
    assert info.value.witness == p * sum((x * x for x in f0), start=Polynomial.zero(ring))


def flip(p, m):
    """p with every variable f_k renamed to f_{m-k}: the block reversal theta."""
    return Polynomial(p.ring, {
        Monomial.from_map({(f"f{m - int(name[1:])}", i): e for (name, i), e in mono}): c
        for mono, c in p.terms.items()})


def flip_field(fld, m, n):
    """theta a(theta F): blocks reversed, variables renamed f_k -> f_{m-k}."""
    return VectorField(fld.ring, tuple(flip(p, m) for j in reversed(range(m + 1))
                                       for p in fld.components[j * n:(j + 1) * n]))


@pytest.mark.parametrize("g", [so_n(3)[0], sl2()[0]], ids=["so3", "sl2"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_coadjoint_fields_of_g_m_decompose_through_the_flip(g, m):
    # theta rho_m(X) theta = ad*_{g_m}(X) for rho the coadjoint action of g,
    # so a field for ad*_{g_m} is a flipped field for rho_m
    rho = coadjoint_rep(g)
    n = g.dim
    lifted = build_lift(rho, m)
    solver = builtin_solver(rho, mx.inverse(killing_form(g).gram))
    ring = level_ring(m, n)
    rng = SplitMix64(m)
    b = [[random_polynomial(rng, ring, 2, 2) for _ in range(n)] for _ in range(m + 1)]
    coadjoint = flip_field(field_from_coefficients(lifted, ring, b), m, n)

    # the same Killing combination, read densely through ad* of g_m itself
    tau = coadjoint_rep(build_takiff(g, m).algebra)
    F = [Polynomial.variable(ring, v) for v in ring.state_variables()]

    def through_tau(coefficients):
        images = [matrix_apply(matrix, F) for matrix in tau.matrices]
        flat = [flip(c, m) for level in coefficients for c in level]
        return tuple(Polynomial.combination(ring, zip(flat, (image[t] for image in images)))
                     for t in range((m + 1) * n))

    assert coadjoint.components == through_tau(b)

    pulled = flip_field(coadjoint, m, n)
    dec = takiff_decompose(lifted, solver, pulled)
    assert verify_decomposition(lifted, pulled, dec)[0]
    assert coadjoint.components == through_tau(dec.coefficients)


def test_decompose_shape_checks():
    _, rho = so_n(2)
    _, other = so_n(3)
    lifted = build_lift(rho, 1)
    ring = level_ring(1, 2)
    fld = VectorField(ring, (Polynomial.zero(ring),) * 4)
    with pytest.raises(StructuralError):
        takiff_decompose(lifted, builtin_solver(other), fld)
    with pytest.raises(StructuralError):
        takiff_decompose(build_lift(rho, 2), builtin_solver(rho), fld)


def test_verify_decomposition_detects_perturbation():
    _, rho = so_n(2)
    lifted, fld, dec = check_roundtrip(rho, 1, lambda ring: (
        (variables(ring, "f0", 2)[0],), (Polynomial.constant(ring, 1),)))
    broken = Decomposition(dec.ring, (
        tuple(p + 1 for p in dec.coefficients[0]), dec.coefficients[1]))
    ok, residuals = verify_decomposition(lifted, fld, broken)
    assert not ok and any(not p.is_zero() for p in residuals)
    with pytest.raises(StructuralError):
        verify_decomposition(lifted, fld, Decomposition(
            level_ring(1, 2, params=(("w", 1),)),
            ((Polynomial.zero(level_ring(1, 2, params=(("w", 1),))),),) * 2))


def test_transport_roundtrip_and_conjugated_verification():
    _, rho = so_n(2)
    lifted, fld, dec = check_roundtrip(rho, 1, lambda ring: (
        (variables(ring, "f0", 2)[0] + 1,), (variables(ring, "f1", 2)[1],)))
    theta = mx.mat([[1, 2], [1, 3]])
    assert transport_field(transport_field(fld, theta), mx.inverse(theta)) == fld
    tau = conjugate_representation(rho, theta)
    conj_lift = build_lift(tau, 1)
    moved_field = transport_field(fld, theta)
    moved_dec = transport_decomposition(dec, theta)
    ok, _ = verify_decomposition(conj_lift, moved_field, moved_dec)
    assert ok
    with pytest.raises(StructuralError):
        transport_field(fld, mx.identity(3))
