"""The package's one exact-scalar rule, and small exact linear-algebra helpers.

``scalar`` decides what counts as an exact scalar for every value that enters
the package: matrices, algebras, representations, forms, polynomial
coefficients and JSON all go through it. An ``int``, a ``fractions.Fraction``
or a ``'p/q'`` string is returned as an ``int`` when integral, else as a
lowest-terms ``Fraction``; a float, or a string that is not a rational
number, is a StructuralError.

The dense helpers work on tuples of tuples of ``int | Fraction`` entries, the
public Matrix type; ``mat`` builds one through ``scalar``, keeping an ``int``
entry as it is. ``independent_rows``, ``det``, ``inverse``, ``sparse_inverse``
and ``solve`` all run on one elimination kernel, ``_eliminate``: Gauss-Jordan
on rows held as dicts of their nonzero entries, which takes a pivot of 1 or
-1 when a column has one and keeps every integral value an ``int``. So the
unimodular bases of the standard algebras factor in integers, and a
determinant is the signed product of the pivots it records. ``independent_rows``
and one ``sparse_inverse`` factor a spanning set once for the coordinates of
every vector.

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
    """Nested sequences of exact scalars (see ``scalar``) as a Matrix.

    An ``int`` entry is already exact and is kept as it is.
    """
    out = tuple(tuple(x if type(x) is int else scalar(x) for x in row) for row in rows)
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
        if row:
            for k, x in row.items():
                for c, y in b[k].items():
                    out[r, c] = out.get((r, c), 0) + x * y
    for r, row in enumerate(b):
        if row:
            for k, y in row.items():
                for c, x in a[k].items():
                    out[r, c] = out.get((r, c), 0) - y * x
    return {key: v for key, v in out.items() if v}


def is_zero(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def is_symmetric(a: Matrix) -> bool:
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def _eliminate(a: Matrix, rhs: Matrix | None):
    """Gauss-Jordan reduction of ``a``, with ``rhs`` alongside: the one kernel.

    Rows are kept as ``{col: value}`` dicts of their nonzero entries, the
    columns of ``rhs`` after those of ``a``, so an update visits the pivot
    row's nonzero entries only. A pivot of 1 or -1 is taken when the column
    has one, and every integral value stays an ``int``, so a unimodular
    factorization never makes a ``Fraction``. Returns the reduced rows, the
    pivot columns of ``a`` and the product of the pivots signed by the
    parity of the row swaps: the determinant when ``a`` is square and
    nonsingular.
    """
    n_cols = len(a[0]) if a else 0
    rows = [{c: x for c, x in enumerate(row) if x} for row in a]
    if rhs is not None:
        for row, extra in zip(rows, rhs):
            row.update((n_cols + c, x) for c, x in enumerate(extra) if x)
    n_rows = len(rows)
    pivots: list[int] = []
    product: Scalar = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = None
        for i in range(r, n_rows):
            x = rows[i].get(c)
            if x is not None:
                if x == 1 or x == -1:
                    pivot = i
                    break
                if pivot is None:
                    pivot = i
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            product = -product
        row = rows[r]
        p = row[c]
        product *= p
        if p == -1:
            row = rows[r] = {k: -x for k, x in row.items()}
        elif p != 1:
            inv = 1 / Fraction(p)
            row = rows[r] = {k: _exact(x * inv) for k, x in row.items()}
        entries = tuple(row.items())
        for i in range(n_rows):
            other = rows[i]
            factor = other.get(c)
            if factor is None or i == r:
                continue
            for k, y in entries:
                v = other.get(k, 0) - factor * y
                if v:
                    other[k] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
                else:
                    del other[k]
        pivots.append(c)
        r += 1
    return rows, pivots, _exact(product)


def _exact(x: Scalar) -> Scalar:
    """``x`` as an ``int`` when it is an integral ``Fraction``."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def independent_rows(a: Matrix) -> tuple[int, ...]:
    """Indices of the rows of ``a`` outside the span of the rows before them.

    The pivot columns of ``transpose(a)``: the rows a greedy rank loop keeps.
    """
    return tuple(_eliminate(transpose(a), None)[1])


def rank(a: Matrix) -> int:
    return len(independent_rows(a))  # kept for perfbench's layer tracer


def det(a: Matrix) -> Scalar:
    n, m = shape(a)
    if n != m:
        raise StructuralError(f"determinant of non-square {n}x{m} matrix")
    _, pivots, product = _eliminate(a, None)
    return product if len(pivots) == n else 0


def sparse_inverse(a: Matrix) -> SparseRows:
    """The inverse of ``a`` in ``sparse_rows`` form; ValidationError when singular."""
    n, m = shape(a)
    if n != m:
        raise StructuralError(f"inverse of non-square {n}x{m} matrix")
    rows, pivots, _ = _eliminate(a, identity(n))
    if len(pivots) != n:
        raise ValidationError("matrix is singular")
    return tuple({k - n: x for k, x in row.items() if k >= n} for row in rows)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(row.get(k, 0) for k in range(n)) for row in sparse_inverse(a))


def solve(a: Matrix, b: Sequence[Scalar]) -> Vector | None:
    """One exact solution of ``a x = b``, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is a particular solution,
    not a canonical one.
    """
    n_rows, n_cols = shape(a)
    if len(b) != n_rows:
        raise StructuralError(f"rhs length {len(b)} != {n_rows} rows")
    rows, pivots, _ = _eliminate(a, tuple((scalar(x),) for x in b))
    if any(n_cols in row for row in rows[len(pivots):]):
        return None
    # reduced row echelon form with free variables set to zero
    x = [0] * n_cols
    for r, c in enumerate(pivots):
        x[c] = rows[r].get(n_cols, 0)
    return tuple(x)
