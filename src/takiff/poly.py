"""Exact sparse multivariate polynomials over the rationals, with variable blocks.

Variables are grouped into named blocks; a variable is addressed as
``(block_name, index)`` with ``0 <= index < block_size``. Blocks carry a role,
``state`` or ``parameter``, which downstream code uses to tell the acted-on
coordinates apart from auxiliary parameters. Coefficients are exact: an
``int`` when integral, else a ``fractions.Fraction`` in lowest terms with
positive denominator, so every identity test in this package is exact.

A polynomial is stored as a map from monomials to nonzero coefficients
(canonical form); equality is structural equality of ring and term map. All
values are immutable after construction. A ``VectorField`` is a tuple of
polynomials, one per state coordinate; ``Polynomial.directional_derivative``
applies such a velocity to a polynomial.

Every sum of products ``sum a_i * b_i`` in the package, a single product
included, goes through one kernel, ``Polynomial.combination``: it collects
all the products in one term map and constructs only the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import StructuralError

# Exact rational scalar used everywhere: an int when integral, else a Fraction,
# which guarantees lowest terms and a positive denominator.
Scalar = int | Fraction

# A variable is (block name, coordinate index within the block).
Var = tuple[str, int]

STATE = "state"
PARAMETER = "parameter"


def _as_scalar(value) -> Scalar:
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)  # a bool, or another int subclass
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise StructuralError(f"not an exact scalar: {value!r} (use int, Fraction or 'p/q' string)")


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
        if not self.name:
            raise StructuralError("variable block needs a nonempty name")
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


@dataclass(frozen=True)
class Monomial:
    """A product of variables with positive integer exponents.

    ``exps`` is sorted by variable and never stores a zero exponent, so equal
    monomials are structurally equal and hashable.
    """

    exps: tuple[tuple[Var, int], ...]

    @staticmethod
    def unit() -> "Monomial":
        return Monomial(())

    @staticmethod
    def of(var: Var, power: int = 1) -> "Monomial":
        if power < 0:
            raise StructuralError(f"negative exponent {power} for {var}")
        if power == 0:
            return Monomial(())
        return Monomial(((var, power),))

    @staticmethod
    def from_map(exps: Mapping[Var, int]) -> "Monomial":
        items = tuple(sorted((v, e) for v, e in exps.items() if e != 0))
        for _, e in items:
            if e < 0:
                raise StructuralError("negative exponent in monomial")
        return Monomial(items)

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def block_degree(self, block_name: str) -> int:
        return sum(e for (name, _), e in self.exps if name == block_name)

    def variables(self) -> Iterator[Var]:
        for v, _ in self.exps:
            yield v

    def exponent(self, var: Var) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        if not self.exps:
            return other
        if not other.exps:
            return self
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(tuple(sorted(merged.items())))

    def without_block(self, block_name: str) -> "Monomial":
        return Monomial(tuple((v, e) for v, e in self.exps if v[0] != block_name))

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for (name, idx), e in self.exps:
            parts.append(f"{name}.{idx}" if e == 1 else f"{name}.{idx}^{e}")
        return "*".join(parts)


def _require_ring(ring: Ring, p: "Polynomial") -> None:
    if p.ring != ring:
        raise StructuralError(f"ring mismatch: {ring.names()} vs {p.ring.names()}")


class Polynomial:
    """A sparse polynomial over a ring of variable blocks.

    Canonical form: no zero coefficients stored; two polynomials are equal iff
    their rings and term maps are equal. Instances are immutable; arithmetic
    returns new objects and requires identical rings on both sides.
    """

    __slots__ = ("ring", "terms")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Scalar] = {}
        ring_vars = ring._vars
        for mono, coeff in terms.items():
            c = _as_scalar(coeff)
            if c == 0:
                continue
            for var, _ in mono.exps:
                if var not in ring_vars:
                    raise StructuralError(
                        f"variable {var[0]}.{var[1]} not in ring with blocks {ring.names()}")
            clean[mono] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def constant(ring: Ring, value) -> "Polynomial":
        return Polynomial(ring, {Monomial.unit(): _as_scalar(value)})

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
        may also be an exact scalar. The products are accumulated into one
        term map, so only the result is constructed.
        """
        out: dict[Monomial, Scalar] = {}
        for a, b in pairs:
            if isinstance(a, Polynomial):
                _require_ring(ring, a)
                left = a.terms.items()
            else:
                c = _as_scalar(a)
                left = ((Monomial.unit(), c),) if c else ()
            _require_ring(ring, b)
            for m1, c1 in left:
                for m2, c2 in b.terms.items():
                    m = m1.mul(m2)
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
        return Polynomial(ring, out)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(mono, 0)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(m.degree() for m in self.terms)

    def block_degree(self, block_name: str) -> int:
        if not self.terms:
            return 0
        return max(m.block_degree(block_name) for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in the canonical deterministic order (by monomial)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].exps)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _require_ring(self.ring, other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

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
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_scalar(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise StructuralError(f"polynomial power must be a nonnegative int, got {n!r}")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var: Var) -> "Polynomial":
        """Exact formal partial derivative with respect to one variable."""
        if not self.ring.has_var(var):
            raise StructuralError(
                f"cannot differentiate by {var[0]}.{var[1]}: not in ring {self.ring.names()}")
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self.terms.items():
            e = mono.exponent(var)
            if e == 0:
                continue
            reduced = {v: k for v, k in mono.exps}
            if e == 1:
                del reduced[var]
            else:
                reduced[var] = e - 1
            m = Monomial.from_map(reduced)
            s = out.get(m, 0) + coeff * e
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

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
        return Polynomial(ring, self.terms)

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

        total = Polynomial.zero(ring)
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(ring, coeff)
            for var, e in mono.exps:
                term = term * var_power(var, e)
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[Var, Scalar]) -> Scalar:
        """Evaluate at a rational point; every variable in use must be assigned."""
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var, e in mono.exps:
                if var not in assignment:
                    raise StructuralError(f"no value for variable {var[0]}.{var[1]}")
                value *= _as_scalar(assignment[var]) ** e
            total += value
        return total

    def homogeneous_components(self, block_name: str) -> dict[int, "Polynomial"]:
        """Split by degree in one block, treating other blocks as constants.

        The values sum back to the original polynomial; each value is
        homogeneous of the keyed degree in the named block.
        """
        self.ring.block(block_name)
        buckets: dict[int, dict[Monomial, Scalar]] = {}
        for mono, coeff in self.terms.items():
            d = mono.block_degree(block_name)
            buckets.setdefault(d, {})[mono] = coeff
        return {d: Polynomial(self.ring, t) for d, t in sorted(buckets.items())}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if not mono.exps:
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
            stripped = {mono.without_block(t_name): c for mono, c in comp.terms.items()}
            out.append(Polynomial(target, stripped))
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

    @staticmethod
    def zero(ring: Ring) -> "VectorField":
        total = sum(b.size for b in ring.state_blocks())
        return VectorField(ring, (Polynomial.zero(ring),) * total)
