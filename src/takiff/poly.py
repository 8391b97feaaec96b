"""Exact sparse multivariate polynomials over the rationals, with variable blocks.

Variables are grouped into named blocks; a variable is addressed as
``(block_name, index)`` with ``0 <= index < block_size``. Blocks carry a role,
``state`` or ``parameter``, which downstream code uses to tell the acted-on
coordinates apart from auxiliary parameters.

A polynomial is stored as integer numerators over one denominator: a map from
monomials to nonzero ``int`` numerators, and one positive ``int`` denominator
coprime to the numerators' content (their gcd); the zero polynomial has
denominator 1. That form is canonical, so equality is equality of ring,
denominator and numerator map. The arithmetic kernels run on ``int`` only:
each scales its inputs to the lcm of their denominators and divides one gcd
out of its result. ``terms`` and ``coefficient`` read the exact value of a
coefficient: an ``int`` when integral, else a ``fractions.Fraction`` in lowest
terms with positive denominator, so every identity test in this package is
exact.

A ``Monomial`` is a tuple of ``(var, exponent)`` pairs sorted by variable. The
product of two monomials is an ordered insertion: each pair of the shorter
factor is placed into the longer one at the position found by bisection,
adding exponents when the variable is already there, so no map is built and
nothing is sorted.

All values are immutable after construction. A ``VectorField`` is a tuple of
polynomials, one per state coordinate; ``Polynomial.directional_derivative``
applies such a velocity to a polynomial.

Every sum of products ``sum a_i * b_i`` in the package, a single product and
a sum or difference included, goes through one kernel,
``Polynomial.combination``: it collects all the products in one numerator
map and constructs only the result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import StructuralError
from .matrices import Scalar, scalar

# A variable is (block name, coordinate index within the block).
Var = tuple[str, int]

STATE = "state"
PARAMETER = "parameter"


def _ratio(value) -> tuple[int, int]:
    """An exact scalar as (numerator, positive denominator) in lowest terms."""
    c = scalar(value)
    return c.numerator, c.denominator


def _quotient(num: int, den: int) -> Scalar:
    """The exact scalar num / den, for a positive den."""
    if den == 1:
        return num
    if num % den == 0:
        return num // den
    return Fraction(num, den)


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """Return ``base`` or the first ``base0``, ``base1``, ... not in ``taken``."""
    used = set(taken)
    if base not in used:
        return base
    k = 0
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


@dataclass(frozen=True)
class VariableBlock:
    """A named group of variables of a fixed size, with a state/parameter role."""

    name: str
    size: int
    role: str = STATE

    def __post_init__(self):
        if type(self.name) is not str or not self.name:
            raise StructuralError(
                f"variable block needs a nonempty str name, got {self.name!r}")
        if type(self.size) is not int:
            raise StructuralError(
                f"block {self.name!r}: size must be an int, got {self.size!r}")
        if self.size < 1:
            raise StructuralError(f"block {self.name!r}: size must be positive, got {self.size}")
        if self.role not in (STATE, PARAMETER):
            raise StructuralError(f"block {self.name!r}: unknown role {self.role!r}")

    def variables(self) -> Iterator[Var]:
        for i in range(self.size):
            yield (self.name, i)


@dataclass(frozen=True)
class Ring:
    """An ordered tuple of variable blocks with unique names."""

    blocks: tuple[VariableBlock, ...]

    def __post_init__(self):
        # name -> block, and the set of all variables; not dataclass fields, so
        # equality and hashing ignore them
        index: dict[str, VariableBlock] = {}
        for b in self.blocks:
            if b.name in index:
                raise StructuralError(f"duplicate block names in ring: {self.names()}")
            index[b.name] = b
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_vars", frozenset(
            v for b in self.blocks for v in b.variables()))

    @staticmethod
    def of(*blocks: VariableBlock) -> "Ring":
        return Ring(tuple(blocks))

    def block(self, name: str) -> VariableBlock:
        b = self._index.get(name)
        if b is None:
            raise StructuralError(f"no block named {name!r} in ring {self.names()}")
        return b

    def has_block(self, name: str) -> bool:
        return name in self._index

    def names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.blocks)

    def has_var(self, var: Var) -> bool:
        return var in self._vars

    def variables(self) -> Iterator[Var]:
        for b in self.blocks:
            yield from b.variables()

    def state_blocks(self) -> tuple[VariableBlock, ...]:
        return tuple(b for b in self.blocks if b.role == STATE)

    def parameter_blocks(self) -> tuple[VariableBlock, ...]:
        return tuple(b for b in self.blocks if b.role == PARAMETER)

    def state_variables(self) -> list[Var]:
        """State-block variables, flattened in ring order."""
        out: list[Var] = []
        for b in self.state_blocks():
            out.extend(b.variables())
        return out

    def with_role(self, name: str, role: str) -> "Ring":
        """Same ring with one block's role changed; order is preserved."""
        self.block(name)
        return Ring(tuple(
            VariableBlock(b.name, b.size, role) if b.name == name else b
            for b in self.blocks
        ))

    def extended(self, *blocks: VariableBlock) -> "Ring":
        return Ring(self.blocks + tuple(blocks))


class Monomial(tuple):
    """A product of variables with positive integer exponents.

    The tuple holds ``(var, exponent)`` pairs sorted by variable and never a
    zero exponent, so equal monomials are equal tuples; hashing, equality and
    ordering are the tuple's own.
    """

    __slots__ = ()

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT

    @staticmethod
    def of(var: Var, power: int = 1) -> "Monomial":
        if type(power) is not int:
            raise StructuralError(f"exponent {power!r} for {var} is not an int")
        if power < 0:
            raise StructuralError(f"negative exponent {power} for {var}")
        if power == 0:
            return _UNIT
        return Monomial(((var, power),))

    @staticmethod
    def from_map(exps: Mapping[Var, int]) -> "Monomial":
        for v, e in exps.items():
            if type(e) is not int:
                raise StructuralError(f"exponent {e!r} for {v} is not an int")
            if e < 0:
                raise StructuralError("negative exponent in monomial")
        return Monomial(sorted((v, e) for v, e in exps.items() if e))

    def degree(self) -> int:
        return sum(e for _, e in self)

    def block_degree(self, block_name: str) -> int:
        return sum(e for (name, _), e in self if name == block_name)

    def variables(self) -> Iterator[Var]:
        for v, _ in self:
            yield v

    def mul(self, other: "Monomial") -> "Monomial":
        """The product: each pair of the shorter factor inserted into the longer.

        Both factors are sorted, so each insertion point is found by bisection
        to the right of the previous one; a shared variable adds exponents.
        """
        if len(self) < len(other):
            self, other = other, self
        if not other:
            return self
        out = self
        k = 0
        for var, e in other:
            k = bisect_left(out, (var,), k)
            if k < len(out) and out[k][0] == var:
                out = out[:k] + ((var, out[k][1] + e),) + out[k + 1:]
            else:
                out = out[:k] + ((var, e),) + out[k:]
            k += 1
        return Monomial(out)

    def without_block(self, block_name: str) -> "Monomial":
        return Monomial((v, e) for v, e in self if v[0] != block_name)

    def __str__(self) -> str:
        if not self:
            return "1"
        parts = []
        for (name, idx), e in self:
            parts.append(f"{name}.{idx}" if e == 1 else f"{name}.{idx}^{e}")
        return "*".join(parts)


_UNIT = Monomial()


def _require_ring(ring: Ring, p: "Polynomial") -> None:
    # operands nearly always share the ring object; the identity test skips
    # the dataclass __eq__ (3% of a decompose-mix pass, see CHANGES.md)
    if p.ring is not ring and p.ring != ring:
        raise StructuralError(f"ring mismatch: {ring.names()} vs {p.ring.names()}")


class Polynomial:
    """A sparse polynomial over a ring of variable blocks.

    Canonical form: nonzero ``int`` numerators over one positive denominator
    coprime to their content; two polynomials are equal iff their rings,
    denominators and numerator maps are equal. Instances are immutable;
    arithmetic returns new objects and requires identical rings on both sides.
    """

    __slots__ = ("ring", "_num", "_den")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Scalar]):
        for mono in terms:
            if type(mono) is not Monomial:
                raise StructuralError(f"polynomial term key {mono!r} is not a Monomial")
        scalars = [(mono, scalar(coeff)) for mono, coeff in terms.items()]
        den = lcm(*(c.denominator for _, c in scalars))
        self._set(ring, {mono: c.numerator * (den // c.denominator)
                         for mono, c in scalars if c}, den)

    @classmethod
    def _make(cls, ring: Ring, num: dict[Monomial, int], den: int) -> "Polynomial":
        """The polynomial num / den from nonzero numerators and a positive den."""
        p = object.__new__(cls)
        p._set(ring, num, den)
        return p

    def _set(self, ring: Ring, num: dict[Monomial, int], den: int) -> None:
        # every variable must belong to the ring; then divide out the common
        # factor of the denominator and the numerators, once
        ring_vars = ring._vars
        for mono in num:
            for var, _ in mono:
                if var not in ring_vars:
                    raise StructuralError(
                        f"variable {var[0]}.{var[1]} not in ring with blocks {ring.names()}")
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {mono: c // g for mono, c in num.items()}
                den //= g
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def constant(ring: Ring, value) -> "Polynomial":
        return Polynomial(ring, {_UNIT: value})

    @staticmethod
    def variable(ring: Ring, var: Var) -> "Polynomial":
        if not ring.has_var(var):
            raise StructuralError(f"variable {var[0]}.{var[1]} not in ring {ring.names()}")
        return Polynomial(ring, {Monomial.of(var): 1})

    @staticmethod
    def linear(ring: Ring, coeffs: Mapping[Var, Scalar]) -> "Polynomial":
        return Polynomial(ring, {Monomial.of(v): c for v, c in coeffs.items()})

    @staticmethod
    def combination(ring: Ring, pairs: Iterable[tuple]) -> "Polynomial":
        """The sum of a * b over ``pairs`` of (a, b), built as one polynomial.

        Every b, and every a that is a polynomial, lives over ``ring``; an a
        may also be an exact scalar. The numerators of each product are
        accumulated into one map over the lcm of the products' denominators,
        so only the result is constructed.
        """
        out: dict[Monomial, int] = {}
        get = out.get
        den = 1
        for a, b in pairs:
            if isinstance(a, Polynomial):
                _require_ring(ring, a)
                left, d = a._num, a._den
            else:
                n, d = _ratio(a)
                left = {_UNIT: n} if n else {}
            _require_ring(ring, b)
            right = b._num
            if not (left and right):
                continue
            d *= b._den
            if den % d:  # raise the common denominator to lcm(den, d)
                grow = d // gcd(den, d)
                out = {m: c * grow for m, c in out.items()}
                get = out.get
                den *= grow
            scale = den // d
            for m1, c1 in left.items():
                c1 *= scale
                for m2, c2 in right.items():
                    m = m1.mul(m2)
                    out[m] = get(m, 0) + c1 * c2
        return Polynomial._make(ring, {m: c for m, c in out.items() if c}, den)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """Monomial -> exact nonzero coefficient; a new map on each read."""
        den = self._den
        if den == 1:
            return dict(self._num)
        return {mono: _quotient(c, den) for mono, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, mono: Monomial) -> Scalar:
        return _quotient(self._num.get(mono, 0), self._den)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max((m.degree() for m in self._num), default=0)

    def block_degree(self, block_name: str) -> int:
        return max((m.block_degree(block_name) for m in self._num), default=0)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in the canonical deterministic order (by monomial)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.combination(self.ring, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(self.ring, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.combination(self.ring, ((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial.combination(self.ring, ((self, other),))
        if isinstance(other, (int, Fraction)):
            return Polynomial.combination(self.ring, ((other, self),))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero exact scalar: it rescales the denominator."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, d = _ratio(other)
        if n == 0:
            raise ZeroDivisionError("polynomial division by zero")
        if n < 0:
            n, d = -n, -d
        return Polynomial._make(
            self.ring, {m: c * d for m, c in self._num.items()}, self._den * n)

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise StructuralError(f"polynomial power must be a nonnegative int, got {n!r}")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self._den == other._den and self.ring == other.ring
                and self._num == other._num)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var: Var) -> "Polynomial":
        """Exact formal partial derivative with respect to one variable."""
        if not self.ring.has_var(var):
            raise StructuralError(
                f"cannot differentiate by {var[0]}.{var[1]}: not in ring {self.ring.names()}")
        # lowering the exponent of var is injective on the monomials that
        # contain it, so no two terms land on the same monomial
        out: dict[Monomial, int] = {}
        for mono, c in self._num.items():
            for k, (v, e) in enumerate(mono):
                if v == var:
                    lowered = ((var, e - 1),) if e > 1 else ()
                    out[Monomial(mono[:k] + lowered + mono[k + 1:])] = c * e
                    break
        return Polynomial._make(self.ring, out, self._den)

    def directional_derivative(self, velocity: Mapping[Var, "Polynomial"]) -> "Polynomial":
        """The derivation sum_v velocity[v] * d self / d v, exactly.

        Every velocity lives over ``self.ring`` and every key is a variable of
        it. A field annihilates ``self``, or leaves it invariant, exactly when
        this is zero.
        """
        return Polynomial.combination(self.ring, (
            (vel, self.derivative(var))
            for var, vel in velocity.items() if not vel.is_zero()))

    def cast(self, ring: Ring) -> "Polynomial":
        """Reinterpret over another ring containing every variable in use.

        Block roles and ordering may differ; monomials are unchanged. Used to
        move between rings that share blocks, e.g. when a block is re-tagged
        from state to parameter.
        """
        return Polynomial._make(ring, self._num, self._den)

    def substitute(self, mapping: Mapping[Var, "Polynomial"], ring: Ring) -> "Polynomial":
        """Replace mapped variables by polynomials over ``ring``.

        Unmapped variables must exist in the target ring and pass through
        unchanged. Exact, no simplification beyond canonical form.
        """
        for var, image in mapping.items():
            if image.ring != ring:
                raise StructuralError(
                    f"image of {var[0]}.{var[1]} lives in the wrong ring")
        power_cache: dict[tuple[Var, int], Polynomial] = {}

        def var_power(var: Var, e: int) -> Polynomial:
            key = (var, e)
            cached = power_cache.get(key)
            if cached is not None:
                return cached
            if var in mapping:
                value = mapping[var] ** e
            else:
                if not ring.has_var(var):
                    raise StructuralError(
                        f"variable {var[0]}.{var[1]} neither substituted nor present "
                        f"in target ring {ring.names()}")
                value = Polynomial(ring, {Monomial.of(var, e): 1})
            power_cache[key] = value
            return value

        def image(mono: Monomial) -> Polynomial:
            term = Polynomial.constant(ring, 1)
            for var, e in mono:
                term = term * var_power(var, e)
            return term

        total = Polynomial.combination(ring, ((c, image(mono)) for mono, c in self._num.items()))
        if self._den == 1:
            return total
        return Polynomial._make(ring, total._num, total._den * self._den)

    def evaluate(self, assignment: Mapping[Var, Scalar]) -> Scalar:
        """Evaluate at a rational point; every variable in use must be assigned."""
        total = 0
        for mono, c in self._num.items():
            value = c
            for var, e in mono:
                if var not in assignment:
                    raise StructuralError(f"no value for variable {var[0]}.{var[1]}")
                value *= scalar(assignment[var]) ** e
            total += value
        return scalar(Fraction(total, self._den))

    def homogeneous_components(self, block_name: str) -> dict[int, "Polynomial"]:
        """Split by degree in one block, treating other blocks as constants.

        The values sum back to the original polynomial; each value is
        homogeneous of the keyed degree in the named block.
        """
        self.ring.block(block_name)
        buckets: dict[int, dict[Monomial, int]] = {}
        for mono, c in self._num.items():
            d = mono.block_degree(block_name)
            buckets.setdefault(d, {})[mono] = c
        return {d: Polynomial._make(self.ring, t, self._den)
                for d, t in sorted(buckets.items())}

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(str(mono))
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def substitute_curve(phi: Polynomial, blocks: Sequence[VariableBlock]) -> list[Polynomial]:
    """Expand ``phi`` along the polynomial curve ``f_0 + t f_1 + ... + t^m f_m``.

    ``phi`` must live over a single block of size n; ``blocks`` are m+1
    pairwise distinct blocks of the same size n. Substituting
    ``x_i -> sum_r t^r f_{r,i}`` and collecting powers of the internal formal
    variable t yields the returned list: entry k is the exact coefficient of
    t^k, a polynomial over the ring made of the given blocks. Powers of t
    beyond m are discarded (truncation).
    """
    if len(phi.ring.blocks) != 1:
        raise StructuralError(
            f"curve substitution needs a single-block ring, got {phi.ring.names()}")
    source = phi.ring.blocks[0]
    if not blocks:
        raise StructuralError("need at least one target block")
    for b in blocks:
        if b.size != source.size:
            raise StructuralError(
                f"block {b.name!r} has size {b.size}, expected {source.size}")
    m = len(blocks) - 1
    t_name = fresh_name("t", [b.name for b in blocks] + [source.name])
    t_block = VariableBlock(t_name, 1, PARAMETER)
    work = Ring((t_block,) + tuple(blocks))
    t_var: Var = (t_name, 0)

    mapping: dict[Var, Polynomial] = {}
    for i in range(source.size):
        curve = Polynomial(
            work,
            {Monomial.of(t_var, r).mul(Monomial.of((blocks[r].name, i))): 1
             for r in range(m + 1)},
        )
        mapping[(source.name, i)] = curve
    expanded = phi.substitute(mapping, work)

    target = Ring(tuple(blocks))
    by_t = expanded.homogeneous_components(t_name)
    out = []
    for k in range(m + 1):
        comp = by_t.get(k)
        if comp is None:
            out.append(Polynomial.zero(target))
        else:
            stripped = {mono.without_block(t_name): c for mono, c in comp._num.items()}
            out.append(Polynomial._make(target, stripped, comp._den))
    return out


def matrix_apply(matrix: Sequence[Sequence[Scalar]],
                 polys: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Multiply a rational matrix into a vector of polynomials, exactly."""
    if not polys:
        raise StructuralError("matrix_apply needs at least one component")
    out = []
    for row in matrix:
        if len(row) != len(polys):
            raise StructuralError(
                f"matrix row length {len(row)} != vector length {len(polys)}")
        out.append(Polynomial.combination(polys[0].ring, zip(row, polys)))
    return tuple(out)


@dataclass(frozen=True)
class VectorField:
    """A polynomial self-map of the state space, with parameter blocks.

    The ring's state blocks, in order, are the level blocks f_0..f_m of V_m
    (a single block for a field on V itself); components are listed in that
    flattened order and may involve every block of the ring.
    """

    ring: Ring
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        blocks = self.ring.state_blocks()
        if not blocks:
            raise StructuralError("a vector field needs at least one state block")
        n = blocks[0].size
        for b in blocks:
            if b.size != n:
                raise StructuralError(
                    f"state blocks must share one size, got {b.size} and {n}")
        if len(self.components) != n * len(blocks):
            raise StructuralError(
                f"{len(self.components)} components for state dimension {n * len(blocks)}")
        for p in self.components:
            if p.ring != self.ring:
                raise StructuralError("all components must share the field's ring")

    @property
    def state_blocks(self) -> tuple[VariableBlock, ...]:
        return self.ring.state_blocks()

    @property
    def level(self) -> int:
        return len(self.state_blocks) - 1

    @property
    def block_size(self) -> int:
        return self.state_blocks[0].size
