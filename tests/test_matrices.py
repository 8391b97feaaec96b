"""Exact rational linear algebra helpers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff import matrices as mx
from takiff.errors import StructuralError, ValidationError
from takiff.lie import so_n
from takiff.takiff_algebra import build_lift

from matrix_reference import add, greedy_independent_rows, mat_vec, scale, sub, trace


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return tuple(tuple(Fraction(rng.randint(-5, 5)) for _ in range(m))
                 for _ in range(n))


def test_mat_normalization():
    out = mx.mat([[1, "1/2"], [Fraction(3), 0]])
    assert out == ((Fraction(1), Fraction(1, 2)), (Fraction(3), Fraction(0)))
    with pytest.raises(StructuralError):
        mx.mat([[1, 2], [3]])


def test_basic_shapes_and_arithmetic():
    assert mx.shape(mx.zeros(2, 3)) == (2, 3)
    assert mx.shape(()) == (0, 0)
    a = mx.mat([[1, 2], [3, 4]])
    b = mx.mat([[0, 1], [1, 0]])
    assert add(a, b) == mx.mat([[1, 3], [4, 4]])
    assert sub(a, a) == mx.zeros(2, 2)
    assert scale(a, Fraction(1, 2)) == mx.mat([["1/2", 1], ["3/2", 2]])
    assert mx.mul(a, b) == mx.mat([[2, 1], [4, 3]])
    assert mx.mul(a, mx.identity(2)) == a
    assert mat_vec(a, (Fraction(1), Fraction(1))) == (Fraction(3), Fraction(7))
    assert mx.transpose(a) == mx.mat([[1, 3], [2, 4]])
    with pytest.raises(StructuralError):
        mx.mul(a, mx.zeros(3, 2))


def test_predicates_and_trace():
    assert mx.is_zero(mx.zeros(2, 2))
    assert not mx.is_zero(mx.identity(2))
    assert mx.is_symmetric(mx.mat([[1, 2], [2, 5]]))
    assert not mx.is_symmetric(mx.mat([[1, 2], [3, 5]]))
    assert trace(mx.mat([[1, 9], [9, 4]])) == Fraction(5)
    assert mx.sparse_commutator(mx.sparse_rows(mx.identity(2)),
                                mx.sparse_rows(mx.mat([[1, 2], [3, 4]]))) == {}


def test_det_known_values():
    assert mx.det(mx.mat([[2, 0], [0, 3]])) == Fraction(6)
    assert mx.det(mx.mat([[1, 2], [2, 4]])) == Fraction(0)
    assert mx.det(mx.mat([[0, 1], [1, 0]])) == Fraction(-1)
    with pytest.raises(StructuralError):
        mx.det(mx.zeros(2, 3))


def test_det_is_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        assert mx.det(mx.mul(a, b)) == mx.det(a) * mx.det(b)


def test_inverse():
    rng = random.Random(9)
    found = 0
    while found < 8:
        a = rand_matrix(rng, 3)
        if mx.det(a) == 0:
            continue
        found += 1
        assert mx.mul(a, mx.inverse(a)) == mx.identity(3)
    with pytest.raises(ValidationError):
        mx.inverse(mx.mat([[1, 2], [2, 4]]))
    with pytest.raises(StructuralError):
        mx.inverse(mx.zeros(2, 3))


def test_rank():
    # the rank counts the independent rows, and those are the first ones that
    # raise it
    cases = (((), ()),
             (mx.zeros(3, 3), ()),
             (mx.identity(4), (0, 1, 2, 3)),
             (mx.mat([[1, 2], [2, 4], [3, 6]]), (0,)),
             (mx.mat([[1, 2, 3], [0, 1, 1]]), (0, 1)),
             (mx.mat([[0, 0], [1, 1], [2, 2], [0, 1], [1, 0]]), (1, 3)))
    for a, rows in cases:
        assert mx.independent_rows(a) == rows
        assert mx.rank(a) == len(rows)


ENTRIES = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def matrices_with_dependent_rows(draw):
    """Small rational matrices mixing fresh, zero, repeated and combined rows."""
    cols = draw(st.integers(1, 4))
    rows: list[tuple[Fraction, ...]] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combine")
                                    if rows else ("fresh", "zero")))
        if kind == "fresh":
            rows.append(draw(st.tuples(*[ENTRIES] * cols)))
        elif kind == "zero":
            rows.append((Fraction(0),) * cols)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(ENTRIES)
            rows.append(tuple(x + c * y for x, y in zip(a, b)))
    return tuple(rows)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(matrices_with_dependent_rows())
def test_independent_rows_match_the_greedy_rank_loop(a):
    assert mx.independent_rows(a) == greedy_independent_rows(a)


def test_solve():
    a = mx.mat([[1, 1], [1, -1]])
    x = mx.solve(a, (Fraction(3), Fraction(1)))
    assert x == (Fraction(2), Fraction(1))
    # inconsistent system
    assert mx.solve(mx.mat([[1, 1], [1, 1]]), (Fraction(0), Fraction(1))) is None
    # underdetermined: a particular solution that actually solves the system
    wide = mx.mat([[1, 1, 1]])
    sol = mx.solve(wide, (Fraction(5),))
    assert sol is not None and mat_vec(wide, sol) == (Fraction(5),)
    with pytest.raises(StructuralError):
        mx.solve(a, (Fraction(1),))


def nonzero_entries(a):
    return {(r, c): x for r, row in enumerate(a) for c, x in enumerate(row) if x}


def rand_sparse_matrix(rng, n):
    # about one entry in four nonzero, with small rational values
    return tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       if rng.random() < 0.25 else Fraction(0) for _ in range(n))
                 for _ in range(n))


def test_sparse_commutator_matches_dense_products():
    rng = random.Random(11)
    pairs = []
    for _ in range(60):
        n = rng.randint(1, 7)
        pairs.append((rand_sparse_matrix(rng, n), rand_sparse_matrix(rng, n)))
    _, rho = so_n(4)
    mats = build_lift(rho, 2).rep.matrices
    pairs += [(mats[i], mats[j]) for i in range(len(mats)) for j in range(len(mats))]
    zero_found = False
    for a, b in pairs:
        dense = sub(mx.mul(a, b), mx.mul(b, a))
        sparse = mx.sparse_commutator(mx.sparse_rows(a), mx.sparse_rows(b))
        assert sparse == nonzero_entries(dense)
        assert all(sparse.values())
        zero_found |= not sparse
    assert zero_found


def test_sparse_rows_keep_exactly_the_nonzero_entries():
    a = mx.mat([[0, "1/2", 0], [0, 0, 0], [-3, 0, 1]])
    assert mx.sparse_rows(a) == ({1: Fraction(1, 2)}, {}, {0: Fraction(-3), 2: Fraction(1)})


# mostly zero, with pivots of 1 and -1 and others
SPARSE_ENTRIES = st.sampled_from(
    [0] * 8 + [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)])


@st.composite
def sparse_systems(draw):
    """A mostly zero rational matrix and a right-hand side of its height."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = tuple(tuple(draw(SPARSE_ENTRIES) for _ in range(cols)) for _ in range(rows))
    return a, tuple(draw(SPARSE_ENTRIES) for _ in range(rows))


def is_exact(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(sparse_systems())
def test_the_elimination_kernel_agrees_with_sympy(system):
    sympy = pytest.importorskip("sympy")
    a, b = system

    def rational(x):
        return sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)

    sa = sympy.Matrix([[rational(x) for x in row] for row in a])
    sb = sympy.Matrix([rational(x) for x in b])
    # a row is independent exactly when it raises the rank of the rows before it
    ranks = [sa[:k, :].rank() if k else 0 for k in range(len(a) + 1)]
    assert mx.independent_rows(a) == tuple(k for k in range(len(a)) if ranks[k + 1] > ranks[k])
    x = mx.solve(a, b)
    if sa.rank() < sa.row_join(sb).rank():
        assert x is None
    else:
        # free variables are zero: the pivot columns' part solves the system alone
        pivots = sa.rref()[1]
        (expected,) = sympy.linsolve((sa[:, list(pivots)], sb))
        assert [rational(v) for v in x] == [
            expected[pivots.index(c)] if c in pivots else 0 for c in range(len(a[0]))]
        assert all(map(is_exact, x))
    square = tuple(row[:len(a)] for row in a) if len(a[0]) >= len(a) else None
    if square is not None:
        sq = sympy.Matrix([[rational(x) for x in row] for row in square])
        det = mx.det(square)
        assert rational(det) == sq.det() and is_exact(det)
        if det:
            inverse = mx.inverse(square)
            assert sympy.Matrix([[rational(x) for x in row] for row in inverse]) == sq.inv()
            assert all(is_exact(x) for row in inverse for x in row)
        else:
            with pytest.raises(ValidationError, match="singular"):
                mx.inverse(square)
