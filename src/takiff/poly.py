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

A ``Monomial`` is a tuple of ``(var, exponent)`` pairs sorted by variable; that
is its form wherever a monomial enters or leaves a ``Polynomial``. Inside, the
numerator map is keyed by packed exponent vectors (M. Monagan and R. Pearce,
CASC 2007): one ``int`` per monomial, holding the exponent of the ring's k-th
variable, in ring order, in bits [16k, 16k + 16). The top bit of each field is
a guard bit, so an exponent is at most ``MAX_EXPONENT`` = 32767 and two valid
keys add without a carry between fields: the product of two monomials is one
integer addition. Every result key is tested once for a set guard bit, so an
exponent overflow is a ``StructuralError``, never a silently wrong monomial.
Keys are encoded against the ring where monomials come in (construction,
``coefficient``) and decoded, sorted by variable, where monomials go out
(``terms``, ``sorted_terms``, ``substitute``, ``evaluate``). The JSON writer
takes no monomial: it walks each key's fields with ``_fields``, the walk
``_decode`` makes, and labels them from the ring's ``_key_table``.

All values are immutable after construction. A ``VectorField`` is a tuple of
polynomials, one per state coordinate; ``Polynomial.directional_derivative``
applies such a velocity to a polynomial.

Every sum of products ``sum a_i * b_i`` in the package, a single product and
a sum or difference included, goes through one kernel,
``Polynomial.combination``: it collects all the products in one numerator
map and constructs only the result. Every linear action, a sum of
``k * p * v`` over variables v, and a residual a - sum k * p * v, which starts
from a, is accumulated by one kernel, ``_shifted_sum``: its entries are an
integer scale k, v's key and the numerators of p, all over one denominator
taken as an lcm before the sum, so nothing is rescaled. ``variable_combination``
resolves (c, p, v) triples of exact scalars into such entries;
``decompose._block_sum`` hands them in directly from the integer form of the
action; and the base solve's readout, ``_euler_readout``, feeds it the terms
of a field grouped once by their x-monomials, each group divided by one
variable and weighted by integer rows resolved before the solve. ``_make``
tests the keys of a new numerator map and divides out its content; ``_wrap``
takes a map already in canonical form, for a negation or a cast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from json.encoder import encode_basestring as _escape
from math import gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import StructuralError
from .matrices import Scalar, scalar

# A variable is (block name, coordinate index within the block).
Var = tuple[str, int]

STATE = "state"
PARAMETER = "parameter"

# A packed monomial key gives each variable a field of _BITS bits whose top
# bit is a guard bit, so an exponent is at most MAX_EXPONENT.
_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1

# A ring enumerates its variables and packs a field for each into every key,
# so its size is bounded from the block sizes before anything is enumerated.
MAX_VARIABLES = 10_000

# Most terms substitute_curve writes over all its coefficients, counted before
# any is built. On a 2-core VM, x0^8 at m = 50 (268,682 terms, about 3 s and
# 94 MB) fits, and x0^10 at m = 60 (1,743,613 terms, about 29 s) does not.
MAX_CURVE_TERMS = 500_000


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
        # name -> block, variable -> bit offset of its field in a packed key,
        # variables in ring order, the guard bits of all fields, the bound every
        # key stays below, the block layout and the state blocks; not dataclass
        # fields, so equality and hashing ignore them
        index: dict[str, VariableBlock] = {}
        for b in self.blocks:
            if b.name in index:
                raise StructuralError(f"duplicate block names in ring: {self.names()}")
            index[b.name] = b
        size = sum(b.size for b in self.blocks)
        if size > MAX_VARIABLES:
            raise StructuralError(
                f"ring with blocks {self.names()} has {size} variables, "
                f"more than MAX_VARIABLES = {MAX_VARIABLES}")
        order = tuple(self.variables())
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_shift", {v: _BITS * k for k, v in enumerate(order)})
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_guard", sum(1 << (_BITS * k + _BITS - 1)
                                               for k in range(len(order))))
        object.__setattr__(self, "_limit", 1 << (_BITS * len(order)))
        object.__setattr__(self, "_layout", tuple((b.name, b.size) for b in self.blocks))
        object.__setattr__(self, "_state_blocks",
                           tuple(b for b in self.blocks if b.role == STATE))

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
        return var in self._shift

    def variables(self) -> Iterator[Var]:
        for b in self.blocks:
            yield from b.variables()

    def state_blocks(self) -> tuple[VariableBlock, ...]:
        return self._state_blocks

    def parameter_blocks(self) -> tuple[VariableBlock, ...]:
        return tuple(b for b in self.blocks if b.role == PARAMETER)

    def state_variables(self) -> list[Var]:
        """State-block variables, flattened in ring order."""
        out: list[Var] = []
        for b in self.state_blocks():
            out.extend(b.variables())
        return out

    @cached_property
    def _key_table(self) -> tuple[tuple[tuple[int, int, str], ...], bool]:
        """The JSON key of each field of a packed key, ranked; built once per ring.

        Entry k belongs to the ring's k-th variable: its rank in variable
        order, which gives the term order of ``sorted_terms``; its rank in the
        order of the key texts "block.index", the order in which
        ``json.dumps(sort_keys=True)`` writes exponent keys; and its key text
        as a JSON object writes it, '"f0.1": '. The flag says whether the two
        ranks agree, as they do unless a block name or index sorts differently
        as text (``x.10`` before ``x.2``).
        """
        order = self._order
        texts = [f"{name}.{i}" for name, i in order]
        rank = _ranks(sorted(range(len(order)), key=order.__getitem__))
        text_rank = _ranks(sorted(range(len(order)), key=texts.__getitem__))
        return (tuple(zip(rank, text_rank, [f"{_escape(t)}: " for t in texts])),
                rank == text_rank)

    @cached_property
    def _block_texts(self) -> dict[str, str]:
        """The JSON text of the block list by the indent it is written at,
        filled by ``jsonio.dumps`` as it writes the ring."""
        return {}


def _ranks(ordered: list[int]) -> list[int]:
    """The position of each index 0..n-1 in ``ordered``, a permutation of them."""
    rank = [0] * len(ordered)
    for r, k in enumerate(ordered):
        rank[k] = r
    return rank


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
        """The product: the exponent maps merged, then sorted by variable."""
        merged = dict(self)
        for var, e in other:
            merged[var] = merged.get(var, 0) + e
        return Monomial(sorted(merged.items()))

    def __str__(self) -> str:
        if not self:
            return "1"
        parts = []
        for (name, idx), e in self:
            parts.append(f"{name}.{idx}" if e == 1 else f"{name}.{idx}^{e}")
        return "*".join(parts)


_UNIT = Monomial()


def _encode(ring: Ring, mono: Monomial) -> int:
    """The packed key of a monomial over ``ring``."""
    shift = ring._shift
    key = 0
    for var, e in mono:
        s = shift.get(var)
        if s is None:
            raise StructuralError(
                f"variable {var[0]}.{var[1]} not in ring with blocks {ring.names()}")
        if not 0 < e <= MAX_EXPONENT:
            raise StructuralError(
                f"exponent {e} of {var[0]}.{var[1]} is outside 1..{MAX_EXPONENT}")
        key += e << s
    return key


def _fields(key: int, labels: Sequence) -> list[tuple]:
    """The nonzero fields of a packed key as (labels[k], exponent) pairs.

    Field k holds the exponent of the ring's k-th variable; the pairs come
    highest field first. This is the one walk over a key's fields: ``_decode``
    labels them with the ring's variables, the JSON writer with its key table.
    """
    pairs = []
    while key:
        s = (key.bit_length() - 1) // _BITS * _BITS  # the highest nonzero field
        e = key >> s
        pairs.append((labels[s // _BITS], e))
        key -= e << s
    return pairs


def _decode(ring: Ring, key: int) -> Monomial:
    """The monomial of a packed key over ``ring``, its pairs sorted by variable."""
    pairs = _fields(key, ring._order)
    pairs.sort()
    return Monomial(pairs)


def _numerators(coeffs: dict[int, Scalar]) -> tuple[dict[int, int], int]:
    """Exact coefficients by packed key as nonzero numerators over their lcm denominator."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {key: c.numerator * (den // c.denominator)
            for key, c in coeffs.items() if c}, den


def _field_sum(key: int) -> int:
    """The sum of the exponent fields of a packed key."""
    total = 0
    while key:
        total += key & _FIELD
        key >>= _BITS
    return total


def _shifted_sum(entries: Iterable[tuple[int, int, dict[int, int]]]) -> dict[int, int]:
    """The numerator map of sum k * num * v over ``entries`` of (k, one, num).

    k is an integer scale, num a numerator map and ``one`` is added to each of
    its keys: the key of a variable v (1 << its bit offset) multiplies by v, 0
    by 1, and minus that key divides by v where every key holds it. All the
    entries share one denominator. The nonzero sums come back; when every sum
    cancelled, as in each accepted syzygy and each level or reconstruction
    check, one ``any`` over the sums returns the empty map without a filter.
    This is the one accumulation of a linear action: ``variable_combination``,
    ``decompose._block_sum`` and ``_euler_readout`` resolve their entries and
    call it.
    """
    out: dict[int, int] = {}
    get = out.get
    for k, one, num in entries:
        for m, x in num.items():
            m += one
            out[m] = get(m, 0) + k * x
    if not any(out.values()):
        return {}
    return {m: x for m, x in out.items() if x}


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
        # monomials given as unsorted tuples can encode to one key: sum them
        coeffs: dict[int, Scalar] = {}
        for mono, coeff in terms.items():
            if type(mono) is not Monomial:
                raise StructuralError(f"polynomial term key {mono!r} is not a Monomial")
            key = _encode(ring, mono)
            c = scalar(coeff)
            if key in coeffs:
                c += coeffs[key]
            coeffs[key] = c
        self._set(ring, *_numerators(coeffs))

    @classmethod
    def _make(cls, ring: Ring, num: dict[int, int], den: int) -> "Polynomial":
        """The polynomial num / den from nonzero numerators and a positive den."""
        p = object.__new__(cls)
        p._set(ring, num, den)
        return p

    @classmethod
    def _wrap(cls, ring: Ring, num: dict[int, int], den: int) -> "Polynomial":
        """The polynomial num / den, already in canonical form over ``ring``.

        Nothing is tested: the keys must be monomials of ``ring`` and den
        coprime to the numerators' content, as for a negation or a re-encoding
        of a canonical polynomial.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "_num", num)
        object.__setattr__(p, "_den", den)
        return p

    def _set(self, ring: Ring, num: dict[int, int], den: int) -> None:
        # every key must be a monomial of the ring with no exponent field
        # overflowed into its guard bit (keys are nonnegative, so one OR of all
        # of them and their maximum decide it); then divide out the common
        # factor of the denominator and the numerators, once
        if num and (reduce(or_, num) & ring._guard or max(num) >= ring._limit):
            raise StructuralError(
                f"a monomial exponent exceeds {MAX_EXPONENT} in ring with "
                f"blocks {ring.names()}")
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
    def variable_combination(ring: Ring, triples: Iterable[tuple]) -> "Polynomial":
        """The sum of c * p * v over ``triples`` of (c, p, v), built as one polynomial.

        c is an exact scalar, p a polynomial over ``ring`` and v a variable of
        it, or None for "times 1"; p * v adds v's key, 1 << (its bit offset),
        to each key of p, and p * 1 adds nothing. A triple (1, a, None) thus
        starts the sum from a, so a - sum c * p * v is one accumulation. Each
        triple is resolved to an integer scale over the lcm of all the
        denominators and a bit offset, and ``_shifted_sum`` adds them up.
        """
        shift = ring._shift
        resolved = []
        den = 1
        for c, p, v in triples:
            if v is None:
                one = 0
            else:
                s = shift.get(v)
                if s is None:
                    raise StructuralError(
                        f"variable {v[0]}.{v[1]} not in ring with blocks {ring.names()}")
                one = 1 << s
            _require_ring(ring, p)
            n, d = _ratio(c)
            if n and p._num:
                d *= p._den
                den = lcm(den, d)
                resolved.append((n, d, one, p._num))
        return Polynomial._make(ring, _shifted_sum(
            (n * (den // d), one, num) for n, d, one, num in resolved), den)

    @staticmethod
    def combination(ring: Ring, pairs: Iterable[tuple]) -> "Polynomial":
        """The sum of a * b over ``pairs`` of (a, b), built as one polynomial.

        Every b, and every a that is a polynomial, lives over ``ring``; an a
        may also be an exact scalar. The numerators of each product are
        accumulated into one map over the lcm of the products' denominators,
        so only the result is constructed.
        """
        out: dict[int, int] = {}
        get = out.get
        den = 1
        for a, b in pairs:
            if isinstance(a, Polynomial):
                _require_ring(ring, a)
                left, d = a._num, a._den
            else:
                n, d = _ratio(a)
                left = {0: n} if n else {}
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
                    m = m1 + m2
                    out[m] = get(m, 0) + c1 * c2
        return Polynomial._make(ring, {m: c for m, c in out.items() if c}, den)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """Monomial -> exact nonzero coefficient; a new map on each read."""
        ring, den = self.ring, self._den
        return {_decode(ring, key): _quotient(c, den) for key, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, mono: Monomial) -> Scalar:
        """The coefficient of ``mono``; 0 for a monomial this ring cannot hold."""
        try:
            key = _encode(self.ring, mono)
        except StructuralError:
            return 0
        return _quotient(self._num.get(key, 0), self._den)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        return max(map(_field_sum, self._num), default=0)

    def _block_fields(self, block_name: str) -> Iterator[int]:
        """Each term's key cut down to the named block's fields, in term order."""
        size = self.ring.block(block_name).size
        s, mask = self.ring._shift[(block_name, 0)], (1 << (_BITS * size)) - 1
        return ((key >> s) & mask for key in self._num)

    def block_degree(self, block_name: str) -> int:
        """Degree in one block; 0 for a block the ring does not have."""
        if not self.ring.has_block(block_name):
            return 0
        return max(map(_field_sum, self._block_fields(block_name)), default=0)

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
        return Polynomial._wrap(self.ring, {m: -c for m, c in self._num.items()}, self._den)

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
        return (self._den == other._den
                and (self.ring is other.ring or self.ring == other.ring)
                and self._num == other._num)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # -- calculus and substitution ----------------------------------------

    def derivative(self, var: Var) -> "Polynomial":
        """Exact formal partial derivative with respect to one variable."""
        s = self.ring._shift.get(var)
        if s is None:
            raise StructuralError(
                f"cannot differentiate by {var[0]}.{var[1]}: not in ring {self.ring.names()}")
        # lowering the exponent of var is injective on the monomials that
        # contain it, so no two terms land on the same monomial
        one = 1 << s
        out: dict[int, int] = {}
        for key, c in self._num.items():
            e = (key >> s) & _FIELD
            if e:
                out[key - one] = c * e
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
        from state to parameter. Rings with the same block names and sizes in
        the same order share the packed keys; otherwise each key is re-encoded,
        which tests it against ``ring``. The numerators stay canonical.
        """
        num = self._num
        if ring._layout != self.ring._layout:
            num = {_encode(ring, _decode(self.ring, key)): c for key, c in num.items()}
        return Polynomial._wrap(ring, num, self._den)

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

        def image(key: int) -> Polynomial:
            term = Polynomial.constant(ring, 1)
            for var, e in _decode(self.ring, key):
                term = term * var_power(var, e)
            return term

        total = Polynomial.combination(ring, ((c, image(key)) for key, c in self._num.items()))
        if self._den == 1:
            return total
        return Polynomial._make(ring, total._num, total._den * self._den)

    def evaluate(self, assignment: Mapping[Var, Scalar]) -> Scalar:
        """Evaluate at a rational point; every variable in use must be assigned."""
        total = 0
        for key, c in self._num.items():
            value = c
            for var, e in _decode(self.ring, key):
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
        buckets: dict[int, dict[int, int]] = {}
        for (key, c), fields in zip(self._num.items(), self._block_fields(block_name)):
            buckets.setdefault(_field_sum(fields), {})[key] = c
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
    pairwise distinct blocks of the same size n. Entry k of the returned list
    is the exact coefficient of t^k in ``phi(sum_r t^r f_r)``, a polynomial
    over the ring made of the given blocks. Each term of ``phi`` is multiplied
    out as a series in t truncated after t^m, starting from its first factor,
    so no power of t beyond m is ever formed and a term of one factor costs no
    product. An expansion of more than MAX_CURVE_TERMS terms in all is
    refused, counted by ``_curve_term_count`` before any is built; the count
    stops as soon as it passes that bound.
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
    if _curve_term_count(phi, m, MAX_CURVE_TERMS) > MAX_CURVE_TERMS:
        raise StructuralError(f"the curve coefficients of phi to level {m} hold more "
                              f"than {MAX_CURVE_TERMS} terms")
    ring = Ring(tuple(blocks))
    # x_i is the series (f_{0,i}, ..., f_{m,i}): entry r is the coefficient of t^r
    curve = [[Polynomial.variable(ring, (b.name, i)) for b in blocks]
             for i in range(source.size)]

    def times(a: list[Polynomial], b: list[Polynomial]) -> list[Polynomial]:
        return [Polynomial.combination(ring, ((a[r], b[k - r]) for r in range(k + 1)))
                for k in range(m + 1)]

    one = [Polynomial.constant(ring, 1)] + [Polynomial.zero(ring)] * m
    terms = []
    for mono, c in phi.terms.items():
        factors = [curve[i] for (_, i), e in mono for _ in range(e)]
        series = factors[0] if factors else one
        for factor in factors[1:]:
            series = times(series, factor)
        terms.append((c, series))
    return [Polynomial.combination(ring, ((c, series[k]) for c, series in terms))
            for k in range(m + 1)]


def _curve_term_count(phi: Polynomial, m: int, bound: int | None = None) -> int:
    """How many terms ``substitute_curve`` writes for phi at level m.

    The monomials of t-degree w in (sum_r t^r f_r)^e are the multisets of e
    levels that sum to w, one per partition of w into at most e parts. So a
    term prod_i x_i^{e_i} of phi gives sum_{k <= m} [t^k] prod_i P_{e_i}(t)
    monomials, where P_e(t) = sum_w p_{<=e}(w) t^w. Distinct terms of phi
    give disjoint monomials and no coefficient cancels, so the count is exact.

    Given a ``bound``, the count stops as soon as it passes it and returns a
    number above the bound, not the count. Every P_e has all entries >= 1 and
    P_e[0] = 1, so a product's truncated sum is at least each factor's, and a
    factor's sum only grows with each part size added: once a partial P_e, or
    the running total, is past the bound, so is the count. In particular,
    entry w of a product of two or more P_e is >= w + 1, and their truncated
    sum is >= (m+1)(m+2)/2; where that exceeds the bound, the first term of
    two or more factors ends the count, and no O(m^2) product is formed.
    Without a bound the count is exact.
    """
    limit = float("inf") if bound is None else bound

    def times(a: list[int], b: list[int]) -> list[int]:
        return [sum(a[r] * b[k - r] for r in range(k + 1)) for k in range(m + 1)]

    def at_most_parts(e: int) -> list[int]:
        # partitions of w <= m into at most e parts, that is into parts of size <= e
        p = [1] + [0] * m
        for part in range(1, min(e, m) + 1):
            for w in range(part, m + 1):
                p[w] += p[w - part]
            if bound is not None and sum(p) > bound:
                break
        return p

    floor = (m + 1) * (m + 2) // 2
    counts: dict[tuple[int, ...], int] = {}
    total = 0
    for mono in phi.terms:
        exponents = tuple(sorted(e for _, e in mono))
        if len(exponents) > 1 and floor > limit:
            return floor
        if exponents not in counts:
            series = at_most_parts(exponents[0]) if exponents else [1]
            for e in exponents[1:]:
                series = times(series, at_most_parts(e))
            counts[exponents] = sum(series)
        total += counts[exponents]
        if total > limit:
            return total
    return total


def matrix_apply(matrix: Sequence[Sequence[Scalar]],
                 polys: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """Multiply a rational matrix into a vector of polynomials, exactly.

    Every polynomial must share the first one's ring; each row's sum reads
    its nonzero entries only.
    """
    if not polys:
        raise StructuralError("matrix_apply needs at least one component")
    ring = polys[0].ring
    for p in polys:
        _require_ring(ring, p)
    out = []
    for row in matrix:
        if len(row) != len(polys):
            raise StructuralError(
                f"matrix row length {len(row)} != vector length {len(polys)}")
        out.append(Polynomial.combination(ring, ((a, p) for a, p in zip(row, polys) if a)))
    return tuple(out)


def _euler_readout(a: Sequence[Polynomial], block_name: str,
                   rows: Sequence[tuple[int, Sequence[tuple[int, int, int]]]],
                   ) -> tuple[Polynomial, ...]:
    """Each row's sum of (k / D) H(da_l/dx_v) over its entries (l, v, k), x the named block.

    ``a`` holds one polynomial per variable of the block, all over one ring,
    and each row is (D, entries): integer weights k over one denominator D.
    H divides each term of x-degree e by e + 2. The terms of each a_l are
    grouped once by their x-monomial, of x-degree d: on a group with exponent
    e > 0 in x_v, H(da_l/dx_v) is the group times e / (d + 1) with x_v's key
    subtracted from each key. Each such group is resolved once to an integer
    weight over the lcm of the a_l's denominators times the lcm of all the
    weights d + 1, so a row is one ``_shifted_sum`` of its entries' groups,
    reduced once. No derivative, product or split by degree is built, and no
    row reads a scalar. With the rows (i, j) of G_il at (l, j) and -G_jl at
    (l, i), row (i, j) is H(dc_i/dx_j - dc_j/dx_i) for c = G a, the
    homotopy's curl.
    """
    ring = a[0].ring
    n = len(a)
    base = ring._shift[(block_name, 0)]
    mask = (1 << (_BITS * n)) - 1
    # per component: its terms by x-monomial, as (x-fields, weight d + 1, numerators)
    groups = []
    for p in a:
        by_x: dict[int, dict[int, int]] = {}
        for key, x in p._num.items():
            by_x.setdefault((key >> base) & mask, {})[key] = x
        groups.append([(fields, _field_sum(fields) + 1, num) for fields, num in by_x.items()])
    den = lcm(*(p._den for p in a)) * lcm(*(w for g in groups for _, w, _ in g))
    # partial[l][v]: H(da_l/dx_v) as (integer weight over den, numerators) per group
    partial = []
    for p, g in zip(a, groups):
        scale = den // p._den
        by_var: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(n)]
        for fields, w, num in g:
            s = scale // w
            for v in range(n):
                if e := (fields >> (_BITS * v)) & _FIELD:
                    by_var[v].append((s * e, num))
        partial.append(by_var)
    ones = [-1 << (base + _BITS * v) for v in range(n)]
    return tuple(
        Polynomial._make(ring, _shifted_sum([(k * s, ones[v], num) for l, v, k in entries
                                             for s, num in partial[l][v]]), row_den * den)
        for row_den, entries in rows)


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
            if p.ring is not self.ring and p.ring != self.ring:
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
