"""Lie algebra construction, validation, and standard examples."""

import re
from fractions import Fraction

import pytest

from takiff import matrices as mx
from takiff.errors import StructuralError, ValidationError
from takiff.lie import (
    BilinearForm,
    LieAlgebra,
    Representation,
    abelian,
    adjoint_rep,
    algebra_from_matrices,
    coadjoint_rep,
    conjugate_representation,
    gl_n,
    homomorphism_defect,
    killing_form,
    make_standard,
    sl2,
    so_n,
    so_pq,
)
from takiff.randgen import SplitMix64, random_invertible

from matrix_reference import add, scale

ZERO2 = (((0, 0), (0, 0)), ((0, 0), (0, 0)))


def test_antisymmetry_enforced():
    # c[0][0] nonzero means [x, x] != 0
    bad = (((1, 0), (0, 0)), ((0, 0), (0, 0)))
    with pytest.raises(ValidationError):
        LieAlgebra(("x", "y"), bad)


def test_jacobi_enforced():
    # [a,b]=c, [b,c]=a, [c,a]=c violates Jacobi on (a,b,c)
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    c[1][2][0], c[2][1][0] = 1, -1
    c[2][0][2], c[0][2][2] = 1, -1
    with pytest.raises(ValidationError):
        LieAlgebra(("a", "b", "c"), c)


def test_shape_errors():
    with pytest.raises(StructuralError):
        LieAlgebra(("x",), ZERO2)
    with pytest.raises(StructuralError):
        LieAlgebra(("x", "y"), (ZERO2[0],))
    # nested too shallowly: a scalar or a string where a row or a plane belongs
    for c in (((0,),), (0,), (("0",),)):
        with pytest.raises(StructuralError, match="1x1x1 array"):
            LieAlgebra(("x",), c)


def test_sl2_bracket_table():
    g, _ = sl2()
    assert g.names == ("e", "h", "f")
    e, h, f = 0, 1, 2
    assert g.c[h][e] == (Fraction(2), Fraction(0), Fraction(0))
    assert g.c[h][f] == (Fraction(0), Fraction(0), Fraction(-2))
    assert g.c[e][f] == (Fraction(0), Fraction(1), Fraction(0))
    assert g.c[e][e] == (Fraction(0),) * 3


def test_so2_generator_is_pinned():
    _, rho = so_n(2)
    assert rho.matrices == (mx.mat([[0, -1], [1, 0]]),)


def test_so_n_dimensions():
    for n in (2, 3, 4, 5):
        g, rho = so_n(n)
        assert g.dim == n * (n - 1) // 2
        assert rho.space_dim == n
        for m in rho.matrices:
            assert mx.transpose(m) == scale(m, Fraction(-1))


def test_so3_bracket_cycle():
    g, _ = so_n(3)
    # basis order r01, r02, r12; [r01, r02] = -r12 for these generators
    idx = {name: k for k, name in enumerate(g.names)}
    out = g.c[idx["r01"]][idx["r02"]]
    assert out[idx["r12"]] != 0


def test_so_pq_preserves_indefinite_form():
    g, rho = so_pq(2, 1)
    assert g.dim == 3
    s = mx.mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    for m in rho.matrices:
        assert add(mx.mul(mx.transpose(m), s), mx.mul(s, m)) == mx.zeros(3, 3)


def test_gl_n_and_abelian():
    g, rho = gl_n(2)
    assert g.dim == 4 and rho.space_dim == 2
    a, arho = abelian(3)
    assert all(not any(any(row) for row in plane) for plane in a.c)
    assert arho.matrices == (mx.zeros(3, 3),) * 3
    with pytest.raises(ValidationError):
        abelian(0)


def test_abelian_rejects_noncommuting_matrices():
    e01 = mx.mat([[0, 1], [0, 0]])
    e10 = mx.mat([[0, 0], [1, 0]])
    with pytest.raises(ValidationError):
        Representation(abelian(2)[0], (e01, e10))


def test_algebra_from_matrices_rejects_open_span():
    # [E01, E10] = E00 - E11 is outside span(E01, E10)
    e01 = mx.mat([[0, 1], [0, 0]])
    e10 = mx.mat([[0, 0], [1, 0]])
    with pytest.raises(ValidationError):
        algebra_from_matrices(("a", "b"), (e01, e10))


def test_algebra_from_matrices_rejects_dependent_basis():
    x = mx.mat([[0, 1], [0, 0]])
    with pytest.raises(ValidationError, match="linearly dependent"):
        algebra_from_matrices(("a", "b"), (x, x))
    e, h, f = sl2()[1].matrices
    with pytest.raises(ValidationError, match="linearly dependent"):
        algebra_from_matrices(("e", "h", "f", "s"), (e, h, f, add(e, f)))


E01_2, E01_3 = mx.mat([[0, 1], [0, 0]]), mx.mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("names, mats, message", [
    ((), (), "at least one basis matrix"),
    (("a",), (((0, 1), (0,)),), "ragged matrix rows"),
    (("a",), (((0, 1, 0), (0, 0, 0)),), "square, equal sizes"),
    (("a", "b"), (E01_2, E01_3), "square, equal sizes"),
], ids=["empty", "ragged", "non-square", "unequal-sizes"])
def test_algebra_from_matrices_refuses_malformed_shapes(names, mats, message):
    with pytest.raises(StructuralError, match=message):
        algebra_from_matrices(names, mats)


@pytest.mark.parametrize("kind, params", [
    ("so_n", {"n": 2}), ("so_n", {"n": 3}), ("so_n", {"n": 4}), ("so_n", {"n": 5}),
    ("so_pq", {"p": 2, "q": 1}), ("sl2", {}), ("gl_n", {"n": 2}), ("gl_n", {"n": 3}),
], ids=["so2", "so3", "so4", "so5", "so21", "sl2", "gl2", "gl3"])
def test_structure_constants_match_sympy_linsolve(kind, params):
    """c[i][j] is the unique solution of flat . c = vec([x_i, x_j])."""
    sympy = pytest.importorskip("sympy")
    g, rho = make_standard(kind, **params)
    n, d = rho.space_dim, g.dim
    mats = [sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in m]) for m in rho.matrices]
    flat = sympy.Matrix.hstack(*(m.reshape(n * n, 1) for m in mats))
    unknowns = sympy.symbols(f"c0:{d}")
    for i in range(d):
        for j in range(d):
            bracket = (mats[i] * mats[j] - mats[j] * mats[i]).reshape(n * n, 1)
            (solution,) = sympy.linsolve((flat, bracket), unknowns)
            assert not any(v.free_symbols for v in solution), (i, j)
            assert list(solution) == [sympy.Rational(x.numerator, x.denominator)
                                      for x in g.c[i][j]], (i, j)


def test_so5_factors_its_basis_with_two_eliminations(monkeypatch):
    eliminate = mx._eliminate
    calls = []

    def counted(a, rhs):
        calls.append(mx.shape(a))
        return eliminate(a, rhs)

    monkeypatch.setattr(mx, "_eliminate", counted)
    so_n(5)
    # the pivot search on the transposed 25 x 10 flattened basis, then the
    # inverse of the 10 x 10 pivot block
    assert calls == [(10, 25), (10, 10)]


def test_representation_homomorphism_enforced():
    g, _ = sl2()
    with pytest.raises(ValidationError):
        Representation(g, (mx.identity(2),) * 3)
    with pytest.raises(StructuralError):
        Representation(g, (mx.identity(2),) * 2)


def test_adjoint_and_coadjoint_agree_with_bracket():
    g, _ = sl2()
    ad = adjoint_rep(g)
    for i in range(3):
        for j in range(3):
            basis_j = tuple(Fraction(int(k == j)) for k in range(3))
            assert mx.mat_vec(ad.matrices[i], basis_j) == g.c[i][j]
    co = coadjoint_rep(g)
    for i in range(3):
        assert co.matrices[i] == scale(mx.transpose(ad.matrices[i]), Fraction(-1))


def test_killing_form_of_sl2():
    g, _ = sl2()
    k = killing_form(g)
    assert k.gram == mx.mat([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert k.is_nondegenerate()
    assert k.is_invariant_for(g)


def test_killing_form_of_so3_is_definite_multiple():
    g, _ = so_n(3)
    k = killing_form(g)
    assert k.gram == scale(mx.identity(3), Fraction(-2))


def test_bilinear_form_checks():
    with pytest.raises(ValidationError):
        BilinearForm(mx.mat([[0, 1], [0, 0]]))
    b = BilinearForm(mx.mat([[1, 0], [0, 0]]))
    assert not b.is_nondegenerate()
    g, _ = sl2()
    with pytest.raises(StructuralError):
        b.is_invariant_for(g)
    # an arbitrary symmetric form is generally not invariant
    assert not BilinearForm(mx.identity(3)).is_invariant_for(g)


def test_conjugate_representation():
    g, rho = sl2()
    theta = mx.mat([[1, 1], [0, 1]])
    tau = conjugate_representation(rho, theta)
    inv = mx.inverse(theta)
    for m, t in zip(rho.matrices, tau.matrices):
        assert t == mx.mul(mx.mul(theta, m), inv)
    with pytest.raises(ValidationError):
        conjugate_representation(rho, mx.mat([[1, 1], [1, 1]]))
    with pytest.raises(StructuralError):
        conjugate_representation(rho, mx.identity(3))


CONJUGATE_KINDS = [("so_n", {"n": 3}), ("so_n", {"n": 5}), ("so_pq", {"p": 1, "q": 2}),
                   ("sl2", {}), ("sl2_adjoint", {}), ("gl_n", {"n": 2}), ("gl_n", {"n": 3}),
                   ("abelian", {"dim": 2})]


@pytest.mark.parametrize("kind, params", CONJUGATE_KINDS,
                         ids=[f"{k}{''.join(map(str, p.values()))}" for k, p in CONJUGATE_KINDS])
def test_a_conjugate_is_derived_and_passes_the_homomorphism_check(kind, params):
    # the conjugate skips the constructor's checks, so check it here: every basis
    # pair, the checked constructor, and exact normalised entries
    _, rho = make_standard(kind, **params)
    rng = SplitMix64(len(CONJUGATE_KINDS))
    for _ in range(5):
        theta = random_invertible(rng, rho.space_dim)
        tau = conjugate_representation(rho, theta)
        rows = [mx.sparse_rows(m) for m in tau.matrices]
        assert all(homomorphism_defect(tau.algebra, rows, i, j) is None
                   for i in range(tau.algebra.dim) for j in range(tau.algebra.dim))
        assert Representation(rho.algebra, tau.matrices) == tau
        assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                   for m in tau.matrices for row in m for x in row)


def test_a_representation_keeps_one_sparse_form():
    # a checked representation keeps the sparse rows of its homomorphism check;
    # a derived one computes them on first read, once
    _, rho = so_n(4)
    assert "_sparse_rows" in vars(rho)
    assert rho._sparse_rows == tuple(mx.sparse_rows(m) for m in rho.matrices)
    for derived in (adjoint_rep(sl2()[0]), conjugate_representation(rho, mx.identity(4))):
        assert "_sparse_rows" not in vars(derived)
        rows = derived._sparse_rows
        assert rows == tuple(mx.sparse_rows(m) for m in derived.matrices)
        assert derived._sparse_rows is rows
    # the kept form is not a field: equality and hashing ignore it
    assert Representation(rho.algebra, rho.matrices) == rho
    assert hash(Representation(rho.algebra, rho.matrices)) == hash(rho)


def test_a_representation_reads_its_action_as_integers_over_one_denominator():
    # theta has determinant 3, so theta so(3) theta^-1 holds thirds
    _, rho = so_n(3)
    tau = conjugate_representation(rho, ((1, 2, 0), (0, 1, 1), (1, 0, 1)))
    assert any(type(x) is Fraction for m in tau.matrices for row in m for x in row)
    for rep, den in ((rho, 1), (tau, 3)):
        assert "_integer_rows" not in vars(rep)
        integer = rep._integer_rows
        assert integer[0] == den and rep._integer_rows is integer
        assert tuple(tuple({s: Fraction(x, den) for s, x in row} for row in rows)
                     for rows in integer[1]) == rep._sparse_rows
    assert Representation(rho.algebra, rho.matrices) == rho


def test_a_conjugate_refuses_a_bad_theta():
    _, rho = so_n(3)
    with pytest.raises(ValidationError, match="singular"):
        conjugate_representation(rho, ((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    for theta in (mx.identity(2), ((1, 0, 0), (0, 1), (0, 0, 1)),
                  ((1.0, 0, 0), (0, 1, 0), (0, 0, 1))):
        with pytest.raises(StructuralError):
            conjugate_representation(rho, theta)


def test_make_standard_dispatch():
    g, rho = make_standard("sl2_adjoint")
    assert rho.space_dim == 3
    assert make_standard("so_n", n=4)[0].dim == 6
    assert make_standard("so_pq", p=1, q=1)[0].dim == 1
    assert make_standard("abelian", dim=2)[0].dim == 2
    assert make_standard("gl_n", n=1)[0].dim == 1
    with pytest.raises(StructuralError):
        make_standard("su_n", n=2)


@pytest.mark.parametrize("build, kind, params", [
    (so_n, "so_n", {"n": 3.0}), (so_n, "so_n", {"n": "3"}), (so_n, "so_n", {"n": True}),
    (so_pq, "so_pq", {"p": 1.0, "q": 2}), (so_pq, "so_pq", {"p": 1, "q": "2"}),
    (gl_n, "gl_n", {"n": 2.0}), (abelian, "abelian", {"dim": 2.0}),
], ids=["so_n-float", "so_n-str", "so_n-bool", "so_pq-float", "so_pq-str", "gl_n-float",
        "abelian-float"])
def test_constructors_refuse_a_size_that_is_not_an_int(build, kind, params):
    with pytest.raises(StructuralError, match="needs an int") as direct:
        build(*params.values())
    with pytest.raises(StructuralError, match=re.escape(str(direct.value))):
        make_standard(kind, **params)
