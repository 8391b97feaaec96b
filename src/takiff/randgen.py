"""Deterministic pseudo-random instances for property suites and the CLI.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-ratio increment 0x9E3779B97F4A7C15, finalized by two
xor-shift multiplications. It is tiny, well documented, and trivially
reproducible in any language, so instances built from a published seed can be
regenerated outside this package bit for bit. Bounded draws use plain modulo
reduction; the bias is irrelevant here and keeping the reduction trivial is
part of the reproducibility contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices as mx
from .decompose import field_from_coefficients
from .errors import StructuralError, ValidationError
from .invariants import default_lift_blocks
from .lie import LieAlgebra, Representation, killing_form, make_standard, standard_dim
from .matrices import Matrix
from .poly import PARAMETER, Monomial, Polynomial, Ring, VariableBlock, VectorField
from .takiff_algebra import LiftedRepresentation, check_level

# Upper bounds on a generated field, checked before any work starts; the
# largest schedule in the suites, tests and benchmark uses degree 3, 6 terms
# and 1 parameter.
MAX_DEGREE = 8
MAX_TERMS = 64
MAX_PARAMETERS = 8

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The SplitMix64 stream for a 64-bit seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n) by modulo reduction."""
        if n < 1:
            raise StructuralError(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def integer(self, lo: int, hi: int) -> int:
        """Draw from the inclusive range [lo, hi]."""
        if hi < lo:
            raise StructuralError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def nonzero(self, bound: int) -> int:
        """Draw from [-bound, bound] excluding zero."""
        while True:
            v = self.integer(-bound, bound)
            if v:
                return v


def random_polynomial(rng: SplitMix64, ring: Ring, max_degree: int,
                      num_terms: int, coeff_bound: int = 3) -> Polynomial:
    """A sparse polynomial with random monomials of degree at most max_degree.

    Terms may collide or cancel, so the result can have fewer than num_terms
    terms and is occasionally zero; callers that need a nonzero polynomial
    must redraw.
    """
    variables = list(ring.variables())
    terms: dict[Monomial, int] = {}
    for _ in range(num_terms):
        exps: dict = {}
        for _ in range(rng.integer(0, max_degree)):
            var = variables[rng.below(len(variables))]
            exps[var] = exps.get(var, 0) + 1
        mono = Monomial.from_map(exps)
        terms[mono] = terms.get(mono, 0) + rng.integer(-coeff_bound, coeff_bound)
    return Polynomial(ring, terms)


def random_coefficients(rng: SplitMix64, dim: int, levels: int, ring: Ring,
                        max_degree: int, num_terms: int,
                        coeff_bound: int = 3) -> tuple[tuple[Polynomial, ...], ...]:
    """Random Killing coefficients b_0..b_{levels-1}, dim entries each."""
    return tuple(
        tuple(random_polynomial(rng, ring, max_degree, num_terms, coeff_bound)
              for _ in range(dim))
        for _ in range(levels))


def random_antisymmetric(rng: SplitMix64, ring: Ring, n: int, max_degree: int,
                         num_terms: int) -> tuple[tuple[Polynomial, ...], ...]:
    """A random antisymmetric n x n polynomial matrix over the ring."""
    zero = Polynomial.zero(ring)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = random_polynomial(rng, ring, max_degree, num_terms)
            rows[i][j] = p
            rows[j][i] = -p
    return tuple(tuple(r) for r in rows)


def random_invertible(rng: SplitMix64, n: int) -> Matrix:
    """A random integer matrix with entries in [-3, 3] and nonzero determinant, by redrawing."""
    while True:
        rows = tuple(
            tuple(rng.integer(-3, 3) for _ in range(n))
            for _ in range(n))
        if mx.det(rows) != 0:
            return rows


def instance_ring(level: int, block_size: int, parameters: int) -> Ring:
    """The standard ring for fields on V_m: optional w block, then f_0..f_m."""
    w = (VariableBlock("w", parameters, PARAMETER),) if parameters else ()
    return Ring(w + default_lift_blocks(level, block_size))


@dataclass(frozen=True)
class GeneratedInstance:
    """A manufactured decomposable field together with its provenance."""

    kind: str
    seed: int
    algebra: LieAlgebra
    rep: Representation
    lifted: LiftedRepresentation
    gram: Matrix | None
    coefficients: tuple[tuple[Polynomial, ...], ...]
    field: VectorField


def standard_gram(kind: str, rep: Representation, **kind_params) -> Matrix | None:
    """The Gram matrix the built-in solver needs for a standard kind.

    so(n) uses the identity implicitly (None); so(p, q) needs the form
    diag(1 x p, -1 x q) it preserves, and the adjoint of sl2 its Killing form.
    """
    if kind == "so_pq":
        signs = [1] * kind_params["p"] + [-1] * kind_params["q"]
        return tuple(tuple(s if i == j else 0 for j in range(len(signs)))
                     for i, s in enumerate(signs))
    if kind == "sl2_adjoint":
        return killing_form(rep.algebra).gram
    return None


def generate_instance(kind: str, level: int, seed: int, max_degree: int = 2,
                      num_terms: int = 3, parameters: int = 1,
                      coeff_bound: int = 3, **kind_params) -> GeneratedInstance:
    """A deterministic decomposable field rho_m(b) F for a standard kind.

    The level and the size of g_m are bounded from the kind's parameters
    before the base algebra is built, and no dense g_m or rho_m is built.
    The field is a Killing combination by construction, so it annihilates
    every lifted invariant; it is the canonical positive input for the
    decomposition pipeline.
    """
    if type(seed) is not int:
        raise StructuralError(f"seed must be an int, got {seed!r}")
    for name, value, least, most in (("level", level, 0, None),
                                     ("max_degree", max_degree, 0, MAX_DEGREE),
                                     ("num_terms", num_terms, 1, MAX_TERMS),
                                     ("parameters", parameters, 0, MAX_PARAMETERS),
                                     ("coeff_bound", coeff_bound, 1, None)):
        if type(value) is not int:
            raise StructuralError(f"{name} must be an int, got {value!r}")
        if value < least:
            raise ValidationError(f"{name} must be >= {least}, got {value}")
        if most is not None and value > most:
            raise ValidationError(f"{name} must be <= {most}, got {value}")
    check_level(standard_dim(kind, **kind_params), level)
    algebra, rep = make_standard(kind, **kind_params)
    lifted = LiftedRepresentation(rep, level)
    ring = instance_ring(level, rep.space_dim, parameters)
    rng = SplitMix64(seed)
    coefficients = random_coefficients(
        rng, algebra.dim, level + 1, ring, max_degree, num_terms, coeff_bound)
    field = field_from_coefficients(lifted, ring, coefficients)
    return GeneratedInstance(kind, seed, algebra, rep, lifted,
                             standard_gram(kind, rep, **kind_params), coefficients, field)
