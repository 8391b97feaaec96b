"""The package's one exact-scalar rule, and small exact linear-algebra helpers.

``scalar`` decides what counts as an exact scalar for every value that enters
the package: matrices, algebras, representations, forms, polynomial
coefficients and JSON all go through it. An ``int``, a ``fractions.Fraction``
or a ``'p/q'`` string is returned as an ``int`` when integral, else as a
lowest-terms ``Fraction``; a float, or a string that is not a rational
number, is a StructuralError.

The dense helpers work on tuples of tuples of ``int | Fraction`` entries, the
public Matrix type; ``mat`` builds one through ``scalar``. Sizes stay at desk
scale (a few dozen rows), so plain Gaussian elimination is enough and keeps
all results exact; ``independent_rows`` and one ``inverse`` factor a spanning
set once for the coordinates of every vector.

The sparse validation kernel serves the exhaustive homomorphism checks:
``sparse_rows`` keeps only the nonzero entries of each row, and
``sparse_commutator`` returns the nonzero entries of ``ab - ba``. Lifted
matrices are block-lower-triangular Toeplitz and mostly zero, so the checks
pay for nonzeros only; two dicts of nonzero entries are equal exactly when
the dense matrices are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import StructuralError, ValidationError, digit_limit_error

# An exact rational scalar: an int when integral, else a lowest-terms Fraction.
Scalar = int | Fraction
Matrix = tuple[tuple[Scalar, ...], ...]
Vector = tuple[Scalar, ...]
SparseRows = tuple[dict[int, Scalar], ...]
SparseMatrix = dict[tuple[int, int], Scalar]


def scalar(value) -> Scalar:
    """``value`` as an exact scalar: an int when integral, else a Fraction.

    Accepts an int (a bool is 0 or 1), a Fraction or a rational string such
    as ``'-3'`` or ``'1/2'``; anything else is a StructuralError, and so is a
    string whose numerator or denominator has more digits than the
    interpreter converts from text.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            # an integral string without a Fraction: int accepts exactly the
            # integral spellings Fraction does (sign, surrounding whitespace,
            # _ between digits) and gives the same value
            return int(value)
        except ValueError:
            pass
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            if "integer string conversion" in str(exc):  # CPython's digit limit
                raise digit_limit_error(
                    f"rational scalar {value[:20]}... has a numerator or denominator of"
                ) from exc
            raise StructuralError(f"not a rational scalar: {value!r}") from exc
    elif isinstance(value, int):
        return int(value)  # a bool, or another int subclass
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise StructuralError(f"not an exact scalar: {value!r} (use int, Fraction or 'p/q' string)")


def mat(rows: Sequence[Sequence]) -> Matrix:
    """Nested sequences of exact scalars (see ``scalar``) as a Matrix."""
    out = tuple(tuple(map(scalar, row)) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise StructuralError("ragged matrix rows")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise StructuralError(f"cannot multiply {n}x{k} by {k2}x{m}")
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            s = 0
            for x, y in zip(row, col):
                if x and y:
                    s += x * y
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> Vector:
    nonzero = [(k, y) for k, y in enumerate(v) if y]
    return tuple(sum(row[k] * y for k, y in nonzero if row[k]) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def sparse_rows(a: Matrix) -> SparseRows:
    """One ``{col: value}`` dict of the nonzero entries per row of ``a``."""
    return tuple({c: x for c, x in enumerate(row) if x} for row in a)


def sparse_commutator(a: SparseRows, b: SparseRows) -> SparseMatrix:
    """Nonzero entries ``{(row, col): value}`` of ``ab - ba``.

    Both operands are square and of one size, in ``sparse_rows`` form.
    """
    out: SparseMatrix = {}
    for r, row in enumerate(a):
        for k, x in row.items():
            for c, y in b[k].items():
                out[r, c] = out.get((r, c), 0) + x * y
    for r, row in enumerate(b):
        for k, y in row.items():
            for c, x in a[k].items():
                out[r, c] = out.get((r, c), 0) - y * x
    return {key: v for key, v in out.items() if v}


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def is_symmetric(a: Matrix) -> bool:
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def trace(a: Matrix) -> Scalar:
    return sum(a[i][i] for i in range(len(a)))


def _eliminate(a: Matrix, rhs: Matrix | None):
    """Row-reduce a copy of ``a`` (and ``rhs`` alongside); return rows, pivots."""
    work = [list(row) for row in a]
    extra = [list(row) for row in rhs] if rhs is not None else None
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        if extra is not None:
            extra[r], extra[pivot] = extra[pivot], extra[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        if extra is not None:
            extra[r] = [x * inv for x in extra[r]]
        for i in range(n_rows):
            if i == r or work[i][c] == 0:
                continue
            factor = work[i][c]
            work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
            if extra is not None:
                extra[i] = [x - factor * y for x, y in zip(extra[i], extra[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return work, extra, pivots


def independent_rows(a: Matrix) -> tuple[int, ...]:
    """Indices of the rows of ``a`` outside the span of the rows before them.

    The pivot columns of ``transpose(a)``: the rows a greedy rank loop keeps.
    """
    return tuple(_eliminate(transpose(a), None)[2])


def rank(a: Matrix) -> int:
    return len(independent_rows(a))  # kept for perfbench's layer tracer


def det(a: Matrix) -> Scalar:
    n, m = shape(a)
    if n != m:
        raise StructuralError(f"determinant of non-square {n}x{m} matrix")
    work = [list(row) for row in a]
    result = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            result = -result
        result *= work[c][c]
        inv = Fraction(1) / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] == 0:
                continue
            factor = work[i][c] * inv
            work[i] = [x - factor * y for x, y in zip(work[i], work[c])]
    return result


def inverse(a: Matrix) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise StructuralError(f"inverse of non-square {n}x{m} matrix")
    reduced, inv_rows, pivots = _eliminate(a, identity(n))
    if len(pivots) != n:
        raise ValidationError("matrix is singular")
    assert inv_rows is not None
    return mat(inv_rows)


def solve(a: Matrix, b: Sequence[Scalar]) -> Vector | None:
    """One exact solution of ``a x = b``, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is a particular solution,
    not a canonical one.
    """
    n_rows, n_cols = shape(a)
    if len(b) != n_rows:
        raise StructuralError(f"rhs length {len(b)} != {n_rows} rows")
    _, rhs, pivots = _eliminate(a, tuple((scalar(x),) for x in b))
    assert rhs is not None
    for i in range(len(pivots), n_rows):
        if rhs[i][0] != 0:
            return None
    # reduced row echelon form with free variables set to zero
    x = [0] * n_cols
    for r, c in enumerate(pivots):
        x[c] = rhs[r][0]
    return tuple(x)
