"""Dense entrywise matrix sum and difference, the tests' reference arithmetic.

The library needs neither: its checks run on sparse rows (``matrices``) and
its sums of products on polynomials (``poly``).
"""

from takiff.matrices import Matrix


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
