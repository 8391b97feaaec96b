"""Finite-dimensional Lie algebras over the rationals, given by structure constants.

An algebra a caller builds is validated eagerly at construction: antisymmetry
of the constants and the Jacobi identity are checked exactly, so every
downstream computation may assume both. Representations are matrices per
basis element, with the homomorphism identity
rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) verified exactly for all basis
pairs. The exceptions are valid by construction and built through
``_derived`` without re-checking: ad is a representation by the Jacobi
identity, ad* = -ad^T is one because X -> -X^T preserves brackets, a
conjugate theta rho theta^(-1) is one because conjugation preserves them, and
a Takiff lift g_m or rho_m is derived from a checked base by a construction
under which the identities carry over. ``LieAlgebra``, ``Representation`` and
``BilinearForm`` first normalise what they are given: nested sequences become
tuples and every entry goes through ``matrices.scalar``, so an entry is an
``int`` or a non-integral ``Fraction``, and a float is refused. Structure
constants of any shape but d x d x d nested tuples or lists are refused before
that.

Both checks visit every basis pair (and every triple, for Jacobi) but do
arithmetic on nonzero entries only: the algebra reads a table of the nonzero
structure constants, and the representation compares the nonzero entries of
each commutator with those of the bracket's image (``matrices.sparse_rows``
and ``matrices.sparse_commutator``). A failed homomorphism check names the
basis pair and the first entry where the two sides differ. A matrix algebra
reads its constants from one factorization of its basis; both checks still run.
A representation keeps those sparse rows (``_sparse_rows``, computed on first
use for a derived one): the Killing residuals and tangency directions of
``invariants`` read them through one helper, and the block sum of the
decomposition as integer numerators over one denominator (``_integer_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Sequence

from . import matrices as mx
from .errors import StructuralError, ValidationError
from .matrices import Matrix, Scalar, scalar


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j][k] with [x_i, x_j] = sum_k c[i][j][k] x_k."""

    names: tuple[str, ...]
    c: tuple[tuple[tuple[Scalar, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        d = len(self.names)
        if d < 1:
            raise ValidationError("algebra dimension must be positive")
        for name in self.names:
            if type(name) is not str or not name:
                raise StructuralError(f"basis name must be a nonempty str, got {name!r}")
        if len(set(self.names)) != d:
            raise ValidationError(f"duplicate basis names: {self.names}")
        c, seq = self.c, (tuple, list)
        if not (isinstance(c, seq) and len(c) == d
                and all(isinstance(ci, seq) and len(ci) == d for ci in c)
                and all(isinstance(cij, seq) and len(cij) == d for ci in c for cij in ci)):
            raise StructuralError(f"structure constants must form a {d}x{d}x{d} array")
        object.__setattr__(self, "c", tuple(tuple(tuple(map(scalar, cij)) for cij in ci)
                                            for ci in c))
        # nonzero[i][j]: the pairs (k, c[i][j][k]) with a nonzero constant
        nonzero = tuple(tuple(tuple((k, x) for k, x in enumerate(cij) if x) for cij in ci)
                        for ci in self.c)
        self._check_antisymmetry(nonzero)
        self._check_jacobi(nonzero)

    @property
    def dim(self) -> int:
        return len(self.names)

    def _check_antisymmetry(self, nonzero):
        # c[i][j] = -c[j][i] exactly when their nonzero entries are negatives
        d = self.dim
        for i in range(d):
            for j in range(i, d):
                if nonzero[i][j] == tuple((k, -x) for k, x in nonzero[j][i]):
                    continue
                k = next(k for k in range(d) if self.c[i][j][k] != -self.c[j][i][k])
                raise ValidationError(
                    f"antisymmetry fails at (i,j,k)=({i},{j},{k}): "
                    f"c[{i}][{j}][{k}]={self.c[i][j][k]} vs "
                    f"-c[{j}][{i}][{k}]={-self.c[j][i][k]}")

    def _check_jacobi(self, nonzero):
        # Given antisymmetry, triples with a repeated index hold identically,
        # so i < j < k suffices.
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc: dict[int, Scalar] = {}
                    for (a, b, e) in ((i, j, k), (j, k, i), (k, i, j)):
                        row_a = nonzero[a]
                        for l, coeff in nonzero[b][e]:
                            for p, x in row_a[l]:
                                acc[p] = acc.get(p, 0) + coeff * x
                    if any(acc.values()):
                        residual = ", ".join(str(acc.get(p, 0)) for p in range(d))
                        raise ValidationError(
                            f"Jacobi identity fails at basis triple (i,j,k)=({i},{j},{k}) "
                            f"({self.names[i]},{self.names[j]},{self.names[k]}): "
                            f"residual ({residual})")


@dataclass(frozen=True)
class Representation:
    """A Lie algebra plus one square rational matrix per basis element."""

    algebra: LieAlgebra
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(map(mx.mat, self.matrices)))
        d = self.algebra.dim
        if len(self.matrices) != d:
            raise StructuralError(f"{len(self.matrices)} matrices for dimension {d}")
        n = len(self.matrices[0])
        if n < 1:
            raise StructuralError("representation space dimension must be positive")
        for m in self.matrices:
            if mx.shape(m) != (n, n):
                raise StructuralError("representation matrices must be square, equal sizes")
        rows = self._sparse_rows
        for i in range(d):
            for j in range(i + 1, d):
                defect = homomorphism_defect(self.algebra, rows, i, j)
                if defect is not None:
                    (r, s), lhs, rhs = defect
                    raise ValidationError(
                        f"homomorphism property fails on basis pair "
                        f"({self.algebra.names[i]}, {self.algebra.names[j]}): "
                        f"entry ({r}, {s}) of the commutator is {lhs}, "
                        f"of the bracket's image {rhs}")

    @property
    def space_dim(self) -> int:
        return len(self.matrices[0])

    @cached_property
    def _sparse_rows(self) -> tuple[mx.SparseRows, ...]:
        """``matrices.sparse_rows`` of every rho(x_i), kept after the check."""
        return tuple(mx.sparse_rows(m) for m in self.matrices)

    @cached_property
    def _integer_rows(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """The sparse rows as integer numerators over one denominator D.

        ``(D, rows)``: ``rows[i][t]`` holds ``(s, D * rho(x_i)_ts)`` for each
        nonzero entry of row t of rho(x_i), and D is the lcm of the entries'
        denominators; derived from ``_sparse_rows`` on first read.
        """
        sparse = self._sparse_rows
        den = lcm(*(x.denominator for rows in sparse for row in rows for x in row.values()))
        return den, tuple(
            tuple(tuple((s, x.numerator * (den // x.denominator)) for s, x in row.items())
                  for row in rows)
            for rows in sparse)


def homomorphism_defect(g: LieAlgebra, rows: Sequence[mx.SparseRows], i: int, j: int,
                        ) -> tuple[tuple[int, int], Scalar, Scalar] | None:
    """Where ``[rho(x_i), rho(x_j)]`` and ``rho([x_i, x_j])`` differ, or None.

    ``rows`` holds ``matrices.sparse_rows`` of every ``rho(x_k)``. A defect is
    the first differing entry ``(row, col)`` with the commutator's value and
    the image's value there.
    """
    lhs = mx.sparse_commutator(rows[i], rows[j])
    rhs: mx.SparseMatrix = {}
    for k, coeff in enumerate(g.c[i][j]):
        if coeff:
            for r, row in enumerate(rows[k]):
                for s, x in row.items():
                    rhs[r, s] = rhs.get((r, s), 0) + coeff * x
    rhs = {key: v for key, v in rhs.items() if v}
    if lhs == rhs:
        return None
    entry = min(e for e in lhs.keys() | rhs.keys() if lhs.get(e) != rhs.get(e))
    return entry, lhs.get(entry, 0), rhs.get(entry, 0)


def _derived(cls: type, **fields):
    """A ``LieAlgebra`` or ``Representation`` with the given fields, without its checks.

    Precondition: every field is already normalised (tuples of exact scalars),
    and the caller derives the fields from an already-validated base by a
    construction that is proved correct, so the checks cannot fail. Input from
    outside the package goes through the public constructors, which check it.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric rational bilinear form given by its Gram matrix."""

    gram: Matrix

    def __post_init__(self):
        object.__setattr__(self, "gram", mx.mat(self.gram))
        if not mx.is_symmetric(self.gram):
            raise ValidationError("Gram matrix must be symmetric")

    @property
    def size(self) -> int:
        return len(self.gram)

    def is_nondegenerate(self) -> bool:
        return mx.det(self.gram) != 0

    def is_invariant_for(self, g: LieAlgebra) -> bool:
        """Exact check of B([z,x],y) + B(x,[z,y]) = 0 on all basis triples."""
        if self.size != g.dim:
            raise StructuralError("form size does not match algebra dimension")
        d = g.dim
        for z in range(d):
            for x in range(d):
                zx = g.c[z][x]
                for y in range(d):
                    zy = g.c[z][y]
                    lhs = sum(zx[k] * self.gram[k][y] for k in range(d) if zx[k])
                    rhs = sum(self.gram[x][k] * zy[k] for k in range(d) if zy[k])
                    if lhs + rhs != 0:
                        return False
        return True


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def algebra_from_matrices(names: Sequence[str], mats: Sequence[Matrix],
                          ) -> tuple[LieAlgebra, Representation]:
    """Structure constants of a matrix Lie algebra with the given basis.

    One factorization: the pivot rows of the flattened basis give a d x d block,
    inverted once; each [x_i, x_j] with i < j reads its coordinates from it,
    checked exactly against the whole basis, and c[j][i] = -c[i][j], c[i][i] = 0.
    An empty basis, or matrices that are not square of one size, are
    structural errors; dependent basis matrices, or a commutator outside
    their span, are validation errors. Returns the algebra with its defining
    representation.
    """
    d = len(names)
    if len(mats) != d:
        raise StructuralError("one matrix per basis name required")
    if not mats:
        raise StructuralError("a matrix algebra needs at least one basis matrix")
    mats = tuple(map(mx.mat, mats))
    n = len(mats[0])
    if any(mx.shape(m) != (n, n) for m in mats):
        raise StructuralError("representation matrices must be square, equal sizes")
    flat_basis = mx.transpose(tuple(
        tuple(m[r][s] for r in range(n) for s in range(n)) for m in mats))
    pivots = mx.independent_rows(flat_basis)
    if len(pivots) < d:
        raise ValidationError("basis matrices are linearly dependent")
    pivot_inverse = mx.inverse(tuple(flat_basis[r] for r in pivots))
    rows = tuple(mx.sparse_rows(m) for m in mats)
    constants = [[(0,) * d] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            bracket = mx.sparse_commutator(rows[i], rows[j])
            target = tuple(bracket.get(divmod(k, n), 0) for k in range(n * n))
            coeffs = mx.mat_vec(pivot_inverse, [target[k] for k in pivots])
            if mx.mat_vec(flat_basis, coeffs) != target:
                raise ValidationError(
                    f"[{names[i]}, {names[j]}] is outside the span of the basis")
            constants[i][j] = coeffs
            constants[j][i] = tuple(-x for x in coeffs)
    algebra = LieAlgebra(names, constants)
    return algebra, Representation(algebra, mats)


def _rotation_generator(n: int, i: int, j: int) -> Matrix:
    # sends e_i to e_j and e_j to -e_i; for (0,1) and n=2 this is [[0,-1],[1,0]]
    rows = [[0] * n for _ in range(n)]
    rows[j][i] = 1
    rows[i][j] = -1
    return tuple(tuple(r) for r in rows)


def _int_param(kind: str, key: str, value) -> int:
    """``value`` when it is an ``int`` (a bool or a float 3.0 is not), else StructuralError."""
    if type(value) is not int:
        raise StructuralError(
            f"constructor kind {kind!r} needs an int {key!r}, got {value!r}")
    return value


def so_n(n: int) -> tuple[LieAlgebra, Representation]:
    """so(n) = so(n, 0), with basis the rotation generators r_ij (i < j, lexicographic)."""
    _int_param("so_n", "n", n)
    if n < 2:
        raise ValidationError(f"so(n) needs n >= 2, got {n}")
    return so_pq(n, 0)


def so_pq(p: int, q: int) -> tuple[LieAlgebra, Representation]:
    """so(p, q) for the diagonal form diag(1,...,1,-1,...,-1)."""
    n = _int_param("so_pq", "p", p) + _int_param("so_pq", "q", q)
    if n < 2 or p < 0 or q < 0:
        raise ValidationError(f"so(p,q) needs p+q >= 2, got p={p}, q={q}")
    sign = [1] * p + [-1] * q
    names = []
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            names.append(f"r{i}{j}")
            base = _rotation_generator(n, i, j)
            mats.append(tuple(tuple(sign[r] * base[r][s] for s in range(n))
                              for r in range(n)))
    return algebra_from_matrices(names, mats)


def sl2() -> tuple[LieAlgebra, Representation]:
    """sl(2) with basis (e, h, f) and its natural two-dimensional representation."""
    e = mx.mat([[0, 1], [0, 0]])
    h = mx.mat([[1, 0], [0, -1]])
    f = mx.mat([[0, 0], [1, 0]])
    return algebra_from_matrices(("e", "h", "f"), (e, h, f))


def gl_n(n: int) -> tuple[LieAlgebra, Representation]:
    """gl(n) with the elementary-matrix basis E_ij, acting on the natural space."""
    _int_param("gl_n", "n", n)
    if n < 1:
        raise ValidationError(f"gl(n) needs n >= 1, got {n}")
    names = []
    mats = []
    for i in range(n):
        for j in range(n):
            names.append(f"E{i}{j}")
            rows = [[0] * n for _ in range(n)]
            rows[i][j] = 1
            mats.append(tuple(tuple(r) for r in rows))
    return algebra_from_matrices(names, mats)


def abelian(dim: int) -> tuple[LieAlgebra, Representation]:
    """Abelian algebra of the given dimension with the zero action on K^dim."""
    _int_param("abelian", "dim", dim)
    if dim < 1:
        raise ValidationError("abelian algebra needs positive dimension")
    names = tuple(f"a{i}" for i in range(dim))
    algebra = LieAlgebra(names, (((0,) * dim,) * dim,) * dim)
    return algebra, Representation(algebra, (mx.zeros(dim, dim),) * dim)


def _param(kind: str, params: dict, key: str) -> int:
    if key not in params:
        raise StructuralError(f"constructor kind {kind!r} needs parameter {key!r}")
    return _int_param(kind, key, params[key])


def make_standard(kind: str, **params) -> tuple[LieAlgebra, Representation]:
    """Dispatch for the named constructors used by the CLI and the generators.

    Kinds: so_n(n), so_pq(p, q), sl2, sl2_adjoint, gl_n(n), abelian(dim)
    (the zero action). A missing parameter, or one that is not an
    ``int`` (a bool or a float 3.0 included), raises StructuralError.
    """
    if kind == "so_n":
        return so_n(_param(kind, params, "n"))
    if kind == "so_pq":
        return so_pq(_param(kind, params, "p"), _param(kind, params, "q"))
    if kind == "sl2":
        return sl2()
    if kind == "sl2_adjoint":
        g, _ = sl2()
        return g, adjoint_rep(g)
    if kind == "gl_n":
        return gl_n(_param(kind, params, "n"))
    if kind == "abelian":
        return abelian(_param(kind, params, "dim"))
    raise StructuralError(f"unknown constructor kind {kind!r}")


def standard_dim(kind: str, **params) -> int:
    """dim g of ``make_standard(kind, **params)``, from the parameters alone.

    Nothing is built, so a caller can bound the size first. A size below its
    range counts as dimension 0, so the constructor still reports it; an
    unknown kind or a missing parameter raises as ``make_standard`` does.
    """
    if kind in ("so_n", "so_pq"):
        n = (_param(kind, params, "n") if kind == "so_n"
             else _param(kind, params, "p") + _param(kind, params, "q"))
        return max(n, 0) * max(n - 1, 0) // 2
    if kind in ("sl2", "sl2_adjoint"):
        return 3
    if kind == "gl_n":
        return max(_param(kind, params, "n"), 0) ** 2
    if kind == "abelian":
        return max(_param(kind, params, "dim"), 0)
    raise StructuralError(f"unknown constructor kind {kind!r}")


# ---------------------------------------------------------------------------
# Derived representations
# ---------------------------------------------------------------------------

def adjoint_rep(g: LieAlgebra) -> Representation:
    """ad(x_i) with column j equal to [x_i, x_j]; a representation by Jacobi."""
    d = g.dim
    mats = tuple(
        tuple(tuple(g.c[i][j][k] for j in range(d)) for k in range(d))
        for i in range(d))
    return _derived(Representation, algebra=g, matrices=mats)


def coadjoint_rep(g: LieAlgebra) -> Representation:
    """Dual action on coefficient vectors: ad*(x_i) = -ad(x_i)^T = -c[i] as a matrix.

    Each distinct row object of the c[i] is negated once per call, and every
    matrix that holds it shares the negated row, as g_m shares its rows.
    """
    negated = {}  # id(row) -> (row, -row); holding the row keeps its id unique

    def negate(row):
        entry = negated.get(id(row))
        if entry is None:
            entry = negated[id(row)] = row, tuple(-x for x in row)
        return entry[1]

    mats = tuple(tuple(map(negate, ci)) for ci in g.c)
    return _derived(Representation, algebra=g, matrices=mats)


def conjugate_representation(rho: Representation, theta: Matrix) -> Representation:
    """Equivalent representation theta . rho(x) . theta^(-1); a representation
    because conjugation by theta preserves brackets."""
    n = rho.space_dim
    theta = mx.mat(theta)
    if mx.shape(theta) != (n, n):
        raise StructuralError(f"theta must be {n}x{n}")
    theta_inv = mx.inverse(theta)  # raises ValidationError when singular
    mats = tuple(mx.mat(mx.mul(mx.mul(theta, m), theta_inv)) for m in rho.matrices)
    return _derived(Representation, algebra=rho.algebra, matrices=mats)


def killing_form(g: LieAlgebra) -> BilinearForm:
    """K(x, y) = trace(ad x . ad y), exactly over the rationals."""
    ad = adjoint_rep(g)
    d = g.dim
    gram = tuple(
        tuple(mx.trace(mx.mul(ad.matrices[i], ad.matrices[j])) for j in range(d))
        for i in range(d))
    return BilinearForm(gram)
