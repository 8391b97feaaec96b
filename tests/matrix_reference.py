"""Reference linear algebra for the tests.

Dense entrywise matrix sum, difference and scalar multiple: the library needs
none of them, since its checks run on sparse rows (``matrices``), its sums of
products on polynomials (``poly``), and ad* reads -c[i] directly (``lie``).
A greedy incremental-rank row selection, the reference for
``matrices.independent_rows``.
"""

from takiff.matrices import Matrix, Scalar


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a: Matrix, c: Scalar) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def greedy_independent_rows(a: Matrix) -> tuple[int, ...]:
    """Add the rows of ``a`` one at a time; keep each that raises the rank.

    A row raises the rank when it does not reduce to zero against the rows
    kept so far. Each kept row is stored reduced against the earlier ones and
    scaled to 1 at its pivot column, so one pass of reductions suffices.
    """
    kept: list[int] = []
    basis: list[tuple[int, list]] = []
    for idx, row in enumerate(a):
        v = list(row)
        for col, b in basis:
            if v[col]:
                factor = v[col]
                v = [x - factor * y for x, y in zip(v, b)]
        pivot = next((col for col, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / v[pivot] for x in v]))
            kept.append(idx)
    return tuple(kept)
