"""Truncated current algebras, lifted representations, flip and lifted forms."""

import itertools
import re
import time
from fractions import Fraction

import pytest

from takiff import matrices as mx
from takiff import jsonio, takiff_algebra
from takiff.cli import main
from takiff.errors import StructuralError, ValidationError
from takiff.lie import (
    BilinearForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    gl_n,
    killing_form,
    sl2,
    so_n,
)
from takiff.takiff_algebra import (
    FlipReport,
    LiftedRepresentation,
    build_lift,
    build_takiff,
    lift_bilinear_form,
    lift_representation,
    verify_flip_identity,
)

from matrix_reference import add, sub


def test_level_zero_equals_base():
    g, _ = sl2()
    ctx = build_takiff(g, 0)
    assert ctx.algebra == g


def test_negative_level_rejected():
    g, rho = sl2()
    with pytest.raises(StructuralError):
        build_takiff(g, -1)
    with pytest.raises(StructuralError):
        LiftedRepresentation(rho, -1)


@pytest.mark.parametrize("level", [33, 10 ** 9])
def test_oversized_level_rejected_before_any_allocation(level, monkeypatch):
    # so(3) at level 33 has dimension 102, and 102^3 constants exceed the bound
    def unexpected(*_):
        raise AssertionError("a block matrix was allocated")

    monkeypatch.setattr(takiff_algebra, "_blocks", unexpected)
    g, rho = so_n(3)
    with pytest.raises(StructuralError, match="structure constants"):
        build_takiff(g, level)
    with pytest.raises(StructuralError, match="structure constants"):
        build_lift(rho, level)
    with pytest.raises(StructuralError, match="structure constants"):
        LiftedRepresentation(rho, level)
    assert ((level + 1) * g.dim) ** 3 > takiff_algebra.MAX_STRUCTURE_CONSTANTS


def test_names_and_indexing():
    g, _ = sl2()
    ctx = build_takiff(g, 2)
    assert ctx.algebra.dim == 9
    assert ctx.algebra.names[:4] == ("e", "h", "f", "e.T1")
    assert ctx.algebra.names[8] == "f.T2"


def test_truncated_bracket():
    g, _ = sl2()
    ctx = build_takiff(g, 1)
    c, d = ctx.algebra.c, ctx.algebra.dim
    e, h, f = 0, 1, 2
    # basis element x_i T^r sits at index r * 3 + i
    # [h T^0, e T^1] = 2 e T^1
    assert c[h][3 + e] == tuple(Fraction(2) if k == 3 + e else Fraction(0)
                                for k in range(d))
    # [h T^1, e T^1] dies by truncation
    assert c[3 + h][3 + e] == (Fraction(0),) * d
    # level-0 brackets reproduce the base
    out = c[e][f]
    assert out[:3] == g.c[e][f]
    assert all(x == 0 for x in out[3:])


def test_lift_block_structure():
    g, rho = sl2()
    lifted = build_lift(rho, 1)
    assert lifted.level == 1 and lifted.block_size == 2 and lifted.space_dim == 4
    b = rho.matrices[0]
    z = mx.zeros(2, 2)

    def blocks(m):
        return tuple(tuple(
            tuple(tuple(m[r * 2 + a][s * 2 + c] for c in range(2)) for a in range(2))
            for s in range(2)) for r in range(2))

    # x T^0 acts diagonally, x T^1 shifts one block down
    assert blocks(lifted.rep.matrices[0]) == ((b, z), (z, b))
    assert blocks(lifted.rep.matrices[3]) == ((z, z), (b, z))


def test_lift_rejects_foreign_representation():
    g, _ = sl2()
    _, rho_other = so_n(3)
    ctx = build_takiff(g, 1)
    with pytest.raises(StructuralError):
        lift_representation(ctx, rho_other)


def test_build_lift_is_cached():
    _, rho = so_n(2)
    assert build_lift(rho, 2) is build_lift(rho, 2)


def test_flip_identity_holds():
    for g, _ in (sl2(), so_n(3)):
        for m in (0, 1, 2):
            report = verify_flip_identity(g, m)
            assert report.passed and report.failing_basis is None
            assert report.dim == (m + 1) * g.dim


def test_flip_identity_holds_at_the_largest_level_within_a_budget(monkeypatch):
    # sl2 and so(3) at m = 32: dim g_m = 99, the largest g_m that check_level allows
    monkeypatch.setattr(mx, "mul", _unexpected_product)
    start = time.process_time()
    for g, _ in (sl2(), so_n(3)):
        report = verify_flip_identity(g, 32)
        assert (report.passed, report.dim) == (True, 99)
    assert time.process_time() - start < 5.0


def _unexpected_product(*_):
    raise AssertionError("the flip check multiplies no matrices")


def test_flip_identity_fails_at_the_first_differing_basis(monkeypatch, tmp_path):
    # lift ad where ad* belongs: the two differ for sl2, and agree for so(3),
    # whose ad matrices are antisymmetric
    lift = takiff_algebra.lift_representation
    monkeypatch.setattr(takiff_algebra, "lift_representation",
                        lambda ctx, rho: lift(ctx, adjoint_rep(rho.algebra)))
    g, _ = sl2()
    assert verify_flip_identity(g, 1) == FlipReport(1, 6, False, "e")
    assert verify_flip_identity(so_n(3)[0], 1).passed
    algebra = tmp_path / "g.json"
    algebra.write_text(jsonio.dumps(jsonio.algebra_to_json(g)), encoding="utf-8")
    out = tmp_path / "flip.txt"
    assert main(["verify-flip", "--algebra", str(algebra), "--level", "1",
                 "--human", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "level 1, dim 6: flip identity FAILS at basis e\n"


def test_lifted_bilinear_form():
    g, _ = sl2()
    k = killing_form(g)
    ctx = build_takiff(g, 1)
    lifted = lift_bilinear_form(ctx, k)
    # antidiagonal block layout: levels r and s pair only when r + s = 1
    for i in range(3):
        for j in range(3):
            assert lifted.gram[i][j] == 0
            assert lifted.gram[i][j + 3] == k.gram[i][j]
            assert lifted.gram[i + 3][j] == k.gram[i][j]
            assert lifted.gram[i + 3][j + 3] == 0
    assert lifted.is_nondegenerate()
    assert lifted.is_invariant_for(ctx.algebra)


def trace_form(rho):
    """B(x, y) = tr(rho(x) rho(y)); nondegenerate for sl2, so(3), so(4) and gl(2)."""
    mats = rho.matrices
    return BilinearForm(tuple(tuple(sum(mx.mul(a, b)[k][k] for k in range(rho.space_dim))
                                    for b in mats) for a in mats))


@pytest.mark.parametrize("make", [sl2, lambda: so_n(3), lambda: so_n(4), lambda: gl_n(2)],
                         ids=["sl2", "so3", "so4", "gl2"])
@pytest.mark.parametrize("m", range(4))
def test_layout_matches_the_defining_formulas(make, m):
    """Every entry of g_m, rho_m and B_m, against the formulas written out.

    Basis element (r, i) of g_m and coordinate (s, a) of V_m sit at r*d + i
    and s*n + a.
    """
    g, rho = make()
    d, n = g.dim, rho.space_dim
    form = trace_form(rho)
    ctx = build_takiff(g, m)
    lifted = lift_representation(ctx, rho).rep.matrices
    gram = lift_bilinear_form(ctx, form).gram
    levels = range(m + 1)
    for r, i, s, j, t, k in itertools.product(levels, range(d), repeat=3):
        # [x_i T^r, x_j T^s] = [x_i, x_j] T^{r+s}, and zero past level m
        want = g.c[i][j][k] if t == r + s else 0
        assert ctx.algebra.c[r * d + i][s * d + j][t * d + k] == want
    for r, i, t, a, s, b in itertools.product(levels, range(d), levels, range(n),
                                              levels, range(n)):
        # rho_m(x_i T^r) sends rho(x_i) f_s into block r + s
        want = rho.matrices[i][a][b] if t == r + s else 0
        assert lifted[r * d + i][t * n + a][s * n + b] == want
    for r, i, s, j in itertools.product(levels, range(d), repeat=2):
        # B_m(x_i T^r, x_j T^s) = B(x_i, x_j) when r + s = m
        assert gram[r * d + i][s * d + j] == (form.gram[i][j] if r + s == m else 0)


def test_lifted_form_at_level_zero_is_input():
    g, _ = so_n(3)
    k = killing_form(g)
    ctx = build_takiff(g, 0)
    assert lift_bilinear_form(ctx, k).gram == k.gram


def test_lifted_form_input_validation():
    g, _ = sl2()
    ctx = build_takiff(g, 1)
    with pytest.raises(StructuralError):
        lift_bilinear_form(ctx, BilinearForm(mx.identity(2)))
    with pytest.raises(ValidationError):
        lift_bilinear_form(ctx, BilinearForm(mx.zeros(3, 3)))
    with pytest.raises(ValidationError):
        lift_bilinear_form(ctx, BilinearForm(mx.identity(3)))


def _constants(c):
    return tuple(tuple(tuple(cij) for cij in ci) for ci in c)


def _mutable_constants(g):
    return [[list(cij) for cij in ci] for ci in g.c]


def dense_homomorphism_defect(g, mats):
    """First basis pair and entry where the commutator and the bracket's image differ."""
    n = len(mats[0])
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = sub(mx.mul(mats[i], mats[j]), mx.mul(mats[j], mats[i]))
            rhs = mx.zeros(n, n)
            for k, coeff in enumerate(g.c[i][j]):
                rhs = add(rhs, mx.scale(mats[k], coeff))
            for r in range(n):
                for s in range(n):
                    if lhs[r][s] != rhs[r][s]:
                        return i, j, r, s, lhs[r][s], rhs[r][s]
    return None


def dense_jacobi_failure(c):
    """First triple i < j < k with a nonzero cyclic sum, and that sum, densely."""
    d = len(c)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [Fraction(0)] * d
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(d):
                        for p in range(d):
                            acc[p] += c[b][e][l] * c[a][l][p]
                if any(acc):
                    return (i, j, k), tuple(acc)
    return None


def test_lifted_homomorphism_checks_every_basis_pair(monkeypatch):
    _, rho = so_n(3)
    lifted = build_lift(rho, 2)
    calls = []
    commutator = mx.sparse_commutator

    def counted(a, b):
        calls.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(mx, "sparse_commutator", counted)
    Representation(lifted.context.algebra, lifted.rep.matrices)
    assert len(calls) == 9 * 8 // 2


@pytest.mark.parametrize("p", [0, 4, 8])
def test_flipped_lifted_entry_names_its_pair_and_entry(p):
    _, rho = so_n(3)
    lifted = build_lift(rho, 2)
    g = lifted.context.algebra
    mats = list(lifted.rep.matrices)
    r0, s0 = next((r, s) for r, row in enumerate(mats[p]) for s, x in enumerate(row) if x)
    mats[p] = tuple(tuple(-x if (r, s) == (r0, s0) else x for s, x in enumerate(row))
                    for r, row in enumerate(mats[p]))
    i, j, r, s, lhs, rhs = dense_homomorphism_defect(g, mats)
    assert p in (i, j) or g.c[i][j][p]
    with pytest.raises(ValidationError, match=re.escape(
            f"homomorphism property fails on basis pair ({g.names[i]}, {g.names[j]}): "
            f"entry ({r}, {s}) of the commutator is {lhs}, of the bracket's image {rhs}")):
        Representation(g, tuple(mats))


@pytest.mark.parametrize("i, j, k", [(0, 4, 5), (4, 0, 5), (2, 2, 3), (1, 3, 0)])
def test_changed_structure_constant_fails_antisymmetry(i, j, k):
    g = build_takiff(so_n(3)[0], 1).algebra
    c = _mutable_constants(g)
    c[i][j][k] += 1
    a, b = min(i, j), max(i, j)
    with pytest.raises(ValidationError, match=re.escape(
            f"antisymmetry fails at (i,j,k)=({a},{b},{k}): "
            f"c[{a}][{b}][{k}]={c[a][b][k]} vs -c[{b}][{a}][{k}]={-c[b][a][k]}")):
        LieAlgebra(g.names, _constants(c))


def test_antisymmetric_change_fails_jacobi_with_dense_residual():
    g = build_takiff(so_n(3)[0], 1).algebra
    c = _mutable_constants(g)
    c[0][1][3] += 1
    c[1][0][3] -= 1
    (i, j, k), residual = dense_jacobi_failure(c)
    with pytest.raises(ValidationError, match=re.escape(
            f"Jacobi identity fails at basis triple (i,j,k)=({i},{j},{k}) "
            f"({g.names[i]},{g.names[j]},{g.names[k]}): "
            f"residual ({', '.join(map(str, residual))})")):
        LieAlgebra(g.names, _constants(c))
