"""Exception types shared across the package, and the error for a number past
the interpreter's limit on int/str conversion."""

from __future__ import annotations

import sys


class TakiffError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(TakiffError):
    """Shape or ring mismatch: incompatible rings, unknown variables, bad sizes."""


class ValidationError(TakiffError):
    """An algebraic validity check failed (antisymmetry, Jacobi, homomorphism,
    invariance, singular matrix, non-commuting generators)."""


class DecompositionRefused(TakiffError):
    """A field failed the invariant-annihilation precondition of a solver.

    Carries an exact nonzero witness polynomial.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalConsistencyError(TakiffError):
    """A derived identity that must hold on valid inputs was observed false.

    Raised from inline assertions in the decomposition's level loop (a base
    solver's level that does not reconstruct its residual), in
    lift_bilinear_form (a lifted form that is degenerate or not invariant) and
    in extract_linear_part (a curve coefficient of degree two or more in its
    top block). Firing one of these indicates a bug or an invalid hand-built
    input, never a legitimate refusal.
    """


def digit_limit_error(what: str) -> StructuralError:
    """The error for a number past the interpreter's limit on int/str conversion.

    ``what`` leads the message, which goes on "more than N digits"; the limit
    itself is kept, since it guards the parser against quadratic-time input.
    """
    return StructuralError(f"{what} more than {sys.get_int_max_str_digits()} digits "
                           "(the interpreter's limit on int/str conversion)")
