"""Polynomial core: canonical form, arithmetic, calculus, curve expansion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takiff import jsonio
from takiff.errors import StructuralError
from takiff.poly import (
    MAX_CURVE_TERMS,
    MAX_EXPONENT,
    PARAMETER,
    STATE,
    Monomial,
    Polynomial,
    Ring,
    VariableBlock,
    matrix_apply,
    _curve_term_count,
    substitute_curve,
)

X = Ring.of(VariableBlock("x", 3, STATE))
XW = Ring.of(VariableBlock("x", 2, STATE), VariableBlock("w", 1, PARAMETER))


def var(ring, name, i):
    return Polynomial.variable(ring, (name, i))


def rand_poly(rng, ring, max_degree=3, terms=5, bound=4):
    vars_ = list(ring.variables())
    out = {}
    for _ in range(terms):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            v = rng.choice(vars_)
            exps[v] = exps.get(v, 0) + 1
        m = Monomial.from_map(exps)
        out[m] = out.get(m, Fraction(0)) + Fraction(rng.randint(-bound, bound))
    return Polynomial(ring, out)


def rand_point(rng, ring):
    return {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in ring.variables()}


def test_canonical_form_drops_zeros():
    p = Polynomial(X, {Monomial.of(("x", 0)): Fraction(0), Monomial.unit(): Fraction(2)})
    assert p.terms == {Monomial.unit(): Fraction(2)}
    assert Polynomial.zero(X).is_zero()
    assert (var(X, "x", 0) - var(X, "x", 0)).is_zero()
    one = Polynomial.constant(X, 1)
    half = Polynomial.variable_combination(
        X, [(Fraction(0), one, ("x", 2)), (Fraction(1, 2), one, ("x", 1))])
    assert half == Polynomial(X, {Monomial.of(("x", 1)): Fraction(1, 2)})
    assert half._den == 2 and half._num == {1 << 16: 1}


def test_structural_equality():
    p = var(X, "x", 0) * var(X, "x", 1)
    q = var(X, "x", 1) * var(X, "x", 0)
    assert p == q
    assert p != p + 1
    other = Ring.of(VariableBlock("x", 3, PARAMETER))
    assert p != p.cast(other)  # same terms, different ring


def test_unknown_variable_rejected():
    with pytest.raises(StructuralError):
        Polynomial(X, {Monomial.of(("y", 0)): Fraction(1)})
    with pytest.raises(StructuralError):
        Polynomial.variable(X, ("x", 3))
    one = Polynomial.constant(X, 1)
    with pytest.raises(StructuralError, match=r"variable x\.3 not in ring with blocks \('x',\)"):
        Polynomial.variable_combination(X, [(1, one, ("x", 0)), (2, one, ("x", 3))])


@pytest.mark.parametrize("build, message", [
    (lambda: Monomial.of(("x", 0), 1.5), "not an int"),
    (lambda: Monomial.from_map({("x", 0): 1.5}), "not an int"),
    (lambda: Monomial.from_map({("x", 0): 2.0}), "not an int"),
    (lambda: VariableBlock("y", 2.5), "size must be an int"),
    (lambda: Ring.of(VariableBlock("x", 10**9)), "more than MAX_VARIABLES"),
    (lambda: var(X, "x", 0) ** True, "nonnegative int"),
    (lambda: var(X, "x", 0) ** 2.0, "nonnegative int"),
], ids=["of", "from_map", "from_map-integral-float", "block-size", "ring-size",
        "pow-bool", "pow-float"])
def test_non_int_exponents_and_sizes_are_refused(build, message):
    # an exponent 1.5 would make the derivative's coefficient a float
    with pytest.raises(StructuralError, match=message):
        build()


def test_block_names_must_be_nonempty_strings():
    # jsonio reads a block name back only as a string, so a name 7 would be
    # written and then refused on the way in
    for name in (7, ("x",), ""):
        with pytest.raises(StructuralError, match="nonempty str name"):
            VariableBlock(name, 2)


def test_term_keys_must_be_monomials():
    # a plain tuple of (var, exponent) pairs hashes and compares like a
    # Monomial, so it must be refused where it enters, not merged silently
    with pytest.raises(StructuralError, match="not a Monomial"):
        Polynomial(X, {(("x", 0), 1): 1})
    with pytest.raises(StructuralError, match="not a Monomial"):
        Polynomial(X, {Monomial.of(("x", 0)): 1, (): 2})


def test_monomials_that_encode_to_one_key_are_summed():
    # the tuple constructor does not sort, so x.0*x.1 can arrive in two spellings
    x0, x1 = ("x", 0), ("x", 1)
    mixed, ordered = Monomial(((x1, 1), (x0, 1))), Monomial(((x0, 1), (x1, 1)))
    product = var(X, "x", 0) * var(X, "x", 1)
    assert Polynomial(X, {mixed: 1, ordered: 2}) == 3 * product
    halves = Polynomial(X, {mixed: Fraction(1, 2), ordered: Fraction(1, 2)})
    assert halves == product
    assert_canonical(halves)
    assert Polynomial(X, {mixed: Fraction(1, 2), ordered: Fraction(1, 3)}) == product * 5 / 6
    assert Polynomial(X, {mixed: Fraction(1, 2), ordered: Fraction(-1, 2)}).is_zero()


def test_ring_mismatch_rejected():
    with pytest.raises(StructuralError):
        var(X, "x", 0) + var(XW, "x", 0)


def test_arithmetic_identities():
    x0, x1 = var(X, "x", 0), var(X, "x", 1)
    square = (x0 + x1) ** 2
    assert square == x0 * x0 + 2 * x0 * x1 + x1 * x1
    assert (square - square).is_zero()
    assert (x0 * 2) / 2 == x0
    assert x0 ** 0 == Polynomial.constant(X, 1)
    assert (3 - x0) + (x0 - 3) == Polynomial.zero(X)


def test_power_rejects_negative():
    with pytest.raises(StructuralError):
        var(X, "x", 0) ** -1


def test_degrees():
    x0, x1 = var(X, "x", 0), var(X, "x", 1)
    p = x0 * x0 * x1 + x1
    assert p.degree() == 3
    assert p.block_degree("x") == 3
    assert Polynomial.zero(X).degree() == 0
    q = var(XW, "x", 0) * var(XW, "w", 0)
    assert q.block_degree("w") == 1
    assert q.block_degree("x") == 1


def test_derivative_product_rule():
    rng = random.Random(11)
    for _ in range(20):
        p = rand_poly(rng, X)
        q = rand_poly(rng, X)
        v = ("x", rng.randrange(3))
        lhs = (p * q).derivative(v)
        rhs = p.derivative(v) * q + p * q.derivative(v)
        assert lhs == rhs


def _to_sympy(sympy, p, symbols):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(symbols[v] ** e for v, e in mono))
                for mono, c in p.terms.items()), sympy.Integer(0))


def test_derivation_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(f"{v[0]}{v[1]}") for v in XW.variables()}
    rng = random.Random(2026)
    for _ in range(30):
        phi = rand_poly(rng, XW) / 3
        # some variables get no velocity and some a zero one
        velocity = {v: rand_poly(rng, XW, max_degree=2, terms=rng.randint(0, 3)) / 2
                    for v in XW.variables() if rng.random() < 0.7}
        got = phi.directional_derivative(velocity)
        phi_s = _to_sympy(sympy, phi, symbols)
        want = sum((_to_sympy(sympy, a, symbols) * sympy.diff(phi_s, symbols[v])
                    for v, a in velocity.items()), sympy.Integer(0))
        assert sympy.expand(_to_sympy(sympy, got, symbols) - want) == 0


def test_derivative_and_curve_expansion_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2028)

    def mixed_poly(ring, **kw):
        # integral and non-integral coefficients side by side
        return rand_poly(rng, ring, **kw) / 2 + rand_poly(rng, ring, **kw)

    symbols = {v: sympy.Symbol(f"{v[0]}{v[1]}") for v in XW.variables()}
    for _ in range(20):
        p = mixed_poly(XW)
        v = rng.choice(list(XW.variables()))
        want = sympy.diff(_to_sympy(sympy, p, symbols), symbols[v])
        assert sympy.expand(_to_sympy(sympy, p.derivative(v), symbols) - want) == 0

    xs = {v: sympy.Symbol(f"x{v[1]}") for v in X.variables()}
    t = sympy.Symbol("t")

    def check_curve(phi, names):
        # names[k] is the block of f_k; a target block may share phi's block name
        blocks = tuple(VariableBlock(name, 3, STATE) for name in names)
        fs = {v: sympy.Symbol(f"f{names.index(v[0])}_{v[1]}")
              for v in Ring(blocks).variables()}
        curve = {xs[("x", i)]: sum(t ** k * fs[(name, i)] for k, name in enumerate(names))
                 for i in range(3)}
        expanded = sympy.expand(_to_sympy(sympy, phi, xs).subs(curve, simultaneous=True))
        out = substitute_curve(phi, blocks)
        assert len(out) == len(names)
        for k, coeff in enumerate(out):
            assert coeff.ring == Ring(blocks)
            assert sympy.expand(_to_sympy(sympy, coeff, fs) - expanded.coeff(t, k)) == 0

    fractional = False
    for m in (0, 1, 2, 4):
        names = [f"f{k}" for k in range(m + 1)]
        for _ in range(10 if m == 2 else 3):
            phi = mixed_poly(X, terms=4)
            fractional |= any(type(c) is Fraction for c in phi.terms.values())
            check_curve(phi, names)
    assert fractional
    # a constant term stays in the t^0 coefficient
    check_curve(mixed_poly(X, terms=3) + Fraction(5, 3), ["f0", "f1", "f2"])
    # a target block named like phi's own block is just another block
    check_curve(mixed_poly(X, terms=4), ["x", "f1"])
    check_curve(mixed_poly(X, terms=4), ["f0", "x", "f2"])


def test_sum_of_products_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = {v: sympy.Symbol(f"{v[0]}{v[1]}") for v in XW.variables()}

    def to_s(p):
        if isinstance(p, Fraction):
            return sympy.Rational(p.numerator, p.denominator)
        return _to_sympy(sympy, p, symbols)

    def same(p, expr):
        return sympy.expand(to_s(p) - expr) == 0

    rng = random.Random(2027)
    for _ in range(30):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            # zero factors on either side: a zero scalar and term-free polynomials
            b = rand_poly(rng, XW, terms=rng.randint(0, 4)) / 2
            if rng.random() < 0.3:
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                a = rand_poly(rng, XW, max_degree=2, terms=rng.randint(0, 3))
            pairs.append((a, b))
        if pairs:
            a, b = rng.choice(pairs)
            pairs.append((-a, b))  # cancels one product exactly
        got = Polynomial.combination(XW, pairs)
        assert same(got, sum((to_s(a) * to_s(b) for a, b in pairs), sympy.Integer(0)))
        assert Polynomial.combination(XW, pairs + [(-a, b) for a, b in pairs]).is_zero()

        p, q = rand_poly(rng, XW) / 3, rand_poly(rng, XW, terms=rng.randint(0, 4))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert same(p * q, to_s(p) * to_s(q))
        assert same(p * c, to_s(p) * to_s(c)) and same(c * p, to_s(p) * to_s(c))
        k = rng.randint(0, 4)
        assert same(p ** k, to_s(p) ** k)

        matrix = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3)]
                  for _ in range(2)]
        polys = [rand_poly(rng, XW, max_degree=2, terms=rng.randint(0, 3))
                 for _ in range(3)]
        for row, out in zip(matrix, matrix_apply(matrix, polys)):
            assert same(out, sum((to_s(e) * to_s(u) for e, u in zip(row, polys)),
                                 sympy.Integer(0)))


# -- ring laws, as properties ------------------------------------------------

LAWS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polynomials(ring):
    monomials = st.dictionaries(st.sampled_from(list(ring.variables())),
                                st.integers(1, 2), max_size=2).map(Monomial.from_map)
    return st.dictionaries(monomials, SCALARS, max_size=4).map(
        lambda terms: Polynomial(ring, terms))


PAIRS = st.lists(st.tuples(st.one_of(SCALARS, polynomials(XW)), polynomials(XW)),
                 max_size=4)


@LAWS
@given(polynomials(XW), polynomials(XW), polynomials(XW))
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@LAWS
@given(PAIRS)
def test_combination_is_the_sum_of_products(pairs):
    total = Polynomial.zero(XW)
    for a, b in pairs:
        total = total + b * a
    assert Polynomial.combination(XW, pairs) == total


@LAWS
@given(PAIRS, polynomials(X), st.data())
def test_combination_rejects_a_ring_mismatch_in_any_pair(pairs, alien, data):
    k = data.draw(st.integers(0, len(pairs)), label="pair")
    a, b = pairs[k] if k < len(pairs) else (Fraction(0), Polynomial.zero(XW))
    bad = (alien, b) if data.draw(st.booleans(), label="left") else (a, alien)
    with pytest.raises(StructuralError, match="ring mismatch"):
        Polynomial.combination(XW, pairs[:k] + [bad] + pairs[k + 1:])


# repeated variables and every block of the ring, zero scalars and zero polynomials
TRIPLES = st.lists(st.tuples(
    st.one_of(st.just(Fraction(0)), SCALARS),
    st.one_of(st.just(Polynomial.zero(XW)), polynomials(XW)),
    st.sampled_from(list(XW.variables()))), max_size=6)


@LAWS
@given(TRIPLES)
def test_variable_combination_is_the_combination_with_variables(triples):
    expected = Polynomial.combination(
        XW, ((c * p, Polynomial.variable(XW, v)) for c, p, v in triples))
    assert Polynomial.variable_combination(XW, triples) == expected


def test_variable_combination_keeps_the_guard_bit_and_the_ring_check():
    top = Polynomial(X, {Monomial.of(("x", 0), MAX_EXPONENT): 1})
    assert Polynomial.variable_combination(X, [(1, top, ("x", 1))]).degree() == MAX_EXPONENT + 1
    with pytest.raises(StructuralError, match="exponent exceeds 32767"):
        Polynomial.variable_combination(X, [(1, top, ("x", 0))])
    with pytest.raises(StructuralError, match="ring mismatch"):
        Polynomial.variable_combination(X, [(1, Polynomial.constant(XW, 1), ("x", 0))])


def dict_merge_product(m1, m2):
    """Reference product: merge the exponent maps, then sort by variable."""
    merged = dict(m1)
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


# indices 2 and 10 order differently as numbers and as strings
MONOMIALS = st.dictionaries(
    st.sampled_from([(name, i) for name in ("f0", "f1", "w") for i in (0, 1, 2, 10)]),
    st.integers(1, 4), max_size=7).map(Monomial.from_map)


@LAWS
@given(MONOMIALS, MONOMIALS, MONOMIALS)
def test_monomial_product_is_the_sorted_merge(a, b, c):
    ab = a.mul(b)
    assert type(ab) is Monomial
    assert tuple(ab) == dict_merge_product(a, b)
    variables_ = [v for v, _ in ab]
    assert variables_ == sorted(set(variables_))
    assert all(type(e) is int and e > 0 for _, e in ab)
    assert ab.degree() == a.degree() + b.degree()
    assert ab == b.mul(a)
    assert ab.mul(c) == a.mul(b.mul(c))
    unit = Monomial.unit()
    assert a.mul(unit) == a == unit.mul(a)
    assert type(a.mul(unit)) is Monomial and type(unit.mul(a)) is Monomial


# -- the packed layout, against references on the decoded tuples -----------

# block order is not name order, and indices 2 and 10 occur in every block
WF = Ring.of(VariableBlock("w", 11, PARAMETER), VariableBlock("f1", 11, STATE),
             VariableBlock("f0", 11, STATE))
FW = Ring.of(*(WF.block(name) for name in ("f0", "w", "f1")))
WF_VARS = [(name, i) for name in ("w", "f1", "f0") for i in (0, 1, 2, 10)]
WF_POLYS = st.dictionaries(
    st.dictionaries(st.sampled_from(WF_VARS), st.integers(1, 4), max_size=5).map(
        Monomial.from_map),
    SCALARS, max_size=5).map(lambda terms: Polynomial(WF, terms))


def from_terms(ring, pairs):
    """The polynomial of (monomial, coefficient) pairs, repeated monomials summed."""
    out = {}
    for mono, c in pairs:
        out[mono] = out.get(mono, 0) + c
    return Polynomial(ring, out)


@LAWS
@given(WF_POLYS, st.sampled_from(WF_VARS), st.sampled_from(["w", "f1", "f0"]))
def test_packed_keys_round_trip_through_the_tuple_form(p, v, block):
    assert Polynomial(WF, p.terms) == p
    for mono, c in p.terms.items():
        assert type(mono) is Monomial and mono == Monomial.from_map(dict(mono))
        assert p.coefficient(mono) == c
    assert [m for m, _ in p.sorted_terms()] == sorted(p.terms)
    for ring in (FW, WF.with_role("w", STATE)):
        there = p.cast(ring)
        assert there.ring == ring and there.terms == p.terms
        assert there.cast(WF) == p
    assert p.degree() == max((m.degree() for m in p.terms), default=0)
    assert p.block_degree(block) == max((m.block_degree(block) for m in p.terms), default=0)

    # d/dv of c * prod u^e is c * e * v^(e-1) * prod_{u != v} u^e
    lowered = []
    for mono, c in p.terms.items():
        exps = dict(mono)
        if v in exps:
            e = exps[v]
            exps[v] = e - 1
            lowered.append((Monomial.from_map(exps), c * e))
    assert p.derivative(v) == from_terms(WF, lowered)

    parts = p.homogeneous_components(block)
    by_degree = {}
    for mono, c in p.terms.items():
        by_degree.setdefault(mono.block_degree(block), []).append((mono, c))
    assert parts == {d: from_terms(WF, pairs) for d, pairs in sorted(by_degree.items())}


@LAWS
@given(st.lists(st.tuples(st.one_of(SCALARS, WF_POLYS), WF_POLYS), max_size=4))
def test_packed_combination_is_the_sum_of_merged_products(pairs):
    products = []
    for a, b in pairs:
        left = a.terms if isinstance(a, Polynomial) else {Monomial.unit(): a}
        products.extend((Monomial(dict_merge_product(m1, m2)), c1 * c2)
                        for m1, c1 in left.items() for m2, c2 in b.terms.items())
    assert Polynomial.combination(WF, pairs) == from_terms(WF, products)


def test_exponents_above_the_packed_limit_are_refused():
    x0, x2 = var(X, "x", 0), var(X, "x", 2)
    top = Polynomial(X, {Monomial.of(("x", 0), MAX_EXPONENT): 1})
    assert MAX_EXPONENT == 2 ** 15 - 1
    assert top == x0 ** MAX_EXPONENT and top.degree() == MAX_EXPONENT
    assert top.derivative(("x", 0)) == MAX_EXPONENT * x0 ** (MAX_EXPONENT - 1)
    with pytest.raises(StructuralError, match="exponent 32768 of x.0 is outside 1..32767"):
        Polynomial(X, {Monomial.of(("x", 0), 2 ** 15): 1})
    for v in (x0, x2):  # a low field and the ring's last field
        with pytest.raises(StructuralError, match="exponent exceeds 32767"):
            v ** (2 ** 15)
        half = v ** (2 ** 14)
        with pytest.raises(StructuralError, match="exponent exceeds 32767"):
            half * half
    # a monomial the ring cannot hold has coefficient 0
    assert x0.coefficient(Monomial.of(("y", 0))) == 0
    assert top.coefficient(Monomial.of(("x", 0), 2 ** 15)) == 0
    assert top.coefficient(Monomial.of(("x", 0), 40000)) == 0


def assert_int_when_integral(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (c.denominator == 1)


@LAWS
@given(PAIRS, polynomials(XW), polynomials(XW), polynomials(X),
       SCALARS.filter(bool))
def test_stored_coefficients_are_int_exactly_when_integral(pairs, p, q, phi, c):
    blocks = tuple(VariableBlock(f"f{k}", 3, STATE) for k in range(2))
    results = [p, Polynomial.combination(XW, pairs), p + q, p - q, p / c,
               p.derivative(("x", 0)), p.derivative(("w", 0)),
               *p.homogeneous_components("x").values(),
               *substitute_curve(phi, blocks)]
    for r in results:
        assert_int_when_integral(r)


def assert_canonical(p):
    """The stored form: nonzero int numerators over a positive int denominator
    coprime to their content, read back as int-when-integral coefficients."""
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1
    assert_int_when_integral(p)
    assert Polynomial(p.ring, p.terms) == p


@LAWS
@given(PAIRS, polynomials(XW), polynomials(XW), SCALARS.filter(bool),
       SCALARS.filter(bool))
def test_kernel_results_are_canonical(pairs, p, q, k, h):
    results = [Polynomial.combination(XW, pairs), p + q, p - q, -p, p * k, p / k,
               (p / k) / h, p.derivative(("x", 0)), p.derivative(("w", 0)),
               (p / k).derivative(("x", 1)), *(p / k).homogeneous_components("x").values()]
    for r in results:
        assert_canonical(r)
    assert (p / k) * k == p
    # one value reached by two routes compares equal
    assert Polynomial(XW, {m: c / k for m, c in p.terms.items()}) == p / k
    assert (p + q) / k == p / k + q / k
    assert p - q == p + (-q) == -(q - p)
    assert (p / k) / h == p / (k * h)
    assert Polynomial.combination(XW, [(k, p), (h, q)]) == p * k + q * h
    assert (p / k).derivative(("x", 0)) == p.derivative(("x", 0)) / k


def test_zero_has_denominator_one():
    x0 = var(X, "x", 0)
    for zero in (Polynomial.zero(X), x0 / 3 - x0 / 3, (x0 / 3).derivative(("x", 1)),
                 Polynomial.combination(X, [(Fraction(1, 2), x0), (Fraction(-1, 2), x0)])):
        assert zero.is_zero() and zero._den == 1 and zero == Polynomial.zero(X)
    with pytest.raises(ZeroDivisionError):
        x0 / 0


def test_integral_coefficients_read_the_same_as_int_or_fraction():
    mono = Monomial.of(("x", 0))
    as_int = Polynomial(X, {mono: 3, Monomial.unit(): Fraction(-1, 2)})
    as_fraction = Polynomial(X, {mono: Fraction(3), Monomial.unit(): "-2/4"})
    as_string = Polynomial(X, {mono: "6/2", Monomial.unit(): "-1/2"})
    assert as_int == as_fraction == as_string
    # the term map compares equal to the all-Fraction map of earlier releases
    assert as_int.terms == {mono: Fraction(3), Monomial.unit(): Fraction(-1, 2)}
    assert type(as_fraction.coefficient(mono)) is int
    assert type(as_fraction.coefficient(Monomial.of(("x", 1)))) is int
    for p in (as_int, as_fraction, as_string):
        assert str(p) == "-1/2 + 3*x.0"
        assert jsonio.dumps(jsonio.polynomial_to_json(p)) == jsonio.dumps(
            jsonio.polynomial_to_json(as_int))
    assert '"3"' in jsonio.dumps(jsonio.polynomial_to_json(as_int))


def test_bool_scalars_are_accepted_as_zero_and_one():
    one = Polynomial.constant(X, True)
    assert one == Polynomial.constant(X, 1)
    assert type(one.coefficient(Monomial.unit())) is int
    assert Polynomial.constant(X, False).is_zero()
    x0 = var(X, "x", 0)
    assert x0 * True == x0 and (x0 * False).is_zero()


def test_derivative_unknown_variable():
    with pytest.raises(StructuralError):
        var(X, "x", 0).derivative(("y", 0))


def test_substitute_matches_pointwise_evaluation():
    rng = random.Random(23)
    target = Ring.of(VariableBlock("y", 2, STATE))
    for _ in range(15):
        p = rand_poly(rng, X)
        images = {("x", i): rand_poly(rng, target, 2, 3) for i in range(3)}
        composed = p.substitute(images, target)
        point = rand_point(rng, target)
        direct = p.evaluate({v: images[v].evaluate(point) for v in images})
        assert composed.evaluate(point) == direct


def test_substitute_of_a_fractional_polynomial():
    rng = random.Random(29)
    target = Ring.of(VariableBlock("y", 2, STATE))
    for k in (2, 3, 6):
        p = rand_poly(rng, X)
        images = {("x", i): rand_poly(rng, target, 2, 3) / rng.randint(1, 4) for i in range(3)}
        composed = (p / k).substitute(images, target)
        assert composed == p.substitute(images, target) / k
        point = rand_point(rng, target)
        assert composed.evaluate(point) == (p / k).evaluate(
            {v: images[v].evaluate(point) for v in images})


def test_substitute_requires_target_ring_images():
    p = var(X, "x", 0)
    with pytest.raises(StructuralError):
        p.substitute({("x", 0): var(X, "x", 1)}, Ring.of(VariableBlock("y", 1, STATE)))


def test_evaluate_requires_all_variables():
    p = var(X, "x", 0) * var(X, "x", 1)
    with pytest.raises(StructuralError):
        p.evaluate({("x", 0): Fraction(1)})


def test_evaluate_returns_int_when_integral():
    half_x0 = var(X, "x", 0) / 2
    value = half_x0.evaluate({("x", 0): 4})
    assert value == 2 and type(value) is int
    assert half_x0.evaluate({("x", 0): Fraction(3)}) == Fraction(3, 2)
    assert type(Polynomial.zero(X).evaluate({})) is int


def test_homogeneous_components_reassemble():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, XW)
        parts = p.homogeneous_components("x")
        total = Polynomial.zero(XW)
        for d, comp in parts.items():
            for mono in comp.terms:
                assert mono.block_degree("x") == d
            total = total + comp
        assert total == p


def test_substitute_curve_square():
    source = Ring.of(VariableBlock("x", 1, STATE))
    p = var(source, "x", 0) ** 2
    blocks = (VariableBlock("f0", 1, STATE), VariableBlock("f1", 1, STATE),
              VariableBlock("f2", 1, STATE))
    target = Ring(blocks)
    f = [var(target, f"f{k}", 0) for k in range(3)]
    out = substitute_curve(p, blocks)
    assert out[0] == f[0] * f[0]
    assert out[1] == 2 * f[0] * f[1]
    assert out[2] == f[1] * f[1] + 2 * f[0] * f[2]


def test_substitute_curve_truncates():
    source = Ring.of(VariableBlock("x", 1, STATE))
    p = var(source, "x", 0) ** 3
    blocks = (VariableBlock("f0", 1, STATE), VariableBlock("f1", 1, STATE))
    out = substitute_curve(p, blocks)
    # the t^2 and t^3 parts (3 f0 f1^2, f1^3) are dropped
    assert len(out) == 2
    f0 = Polynomial.variable(Ring(blocks), ("f0", 0))
    f1 = Polynomial.variable(Ring(blocks), ("f1", 0))
    assert out[1] == 3 * f0 * f0 * f1
    # a high power at a low level, against the closed forms of its coefficients
    blocks = tuple(VariableBlock(f"f{k}", 1, STATE) for k in range(3))
    f0, f1, f2 = (Polynomial.variable(Ring(blocks), (f"f{k}", 0)) for k in range(3))
    out = substitute_curve(var(source, "x", 0) ** 200, blocks)
    assert out == [f0 ** 200, 200 * f0 ** 199 * f1,
                   19900 * f0 ** 198 * f1 ** 2 + 200 * f0 ** 199 * f2]


@LAWS
@given(st.dictionaries(st.tuples(*[st.integers(0, 5)] * 3), SCALARS.filter(bool), max_size=4),
       st.integers(0, 5))
def test_curve_term_count_is_the_number_of_terms_written(terms, m):
    phi = Polynomial(X, {Monomial.from_map({("x", i): e for i, e in enumerate(exps)}): c
                         for exps, c in terms.items()})
    blocks = tuple(VariableBlock(f"f{k}", 3, STATE) for k in range(m + 1))
    written = sum(len(p.terms) for p in substitute_curve(phi, blocks))
    assert _curve_term_count(phi, m) == written


def test_substitute_curve_refuses_more_than_its_bound_before_building(monkeypatch):
    x0 = var(Ring.of(VariableBlock("x", 1, STATE)), "x", 0)
    # the sizes that MAX_CURVE_TERMS is set from, and the refused one
    assert [_curve_term_count(x0 ** e, m) for e, m in ((8, 50), (10, 60), (12, 99))] \
        == [268_682, 1_743_613, 179_249_789]
    monkeypatch.setattr(Polynomial, "variable", _unexpected)
    blocks = tuple(VariableBlock(f"f{k}", 1, STATE) for k in range(61))
    with pytest.raises(StructuralError, match=f"to level 60 hold more than {MAX_CURVE_TERMS} "):
        substitute_curve(x0 ** 10, blocks)


def _unexpected(*_):
    raise AssertionError("a polynomial was built before the term count was checked")


def test_substitute_curve_validates_blocks():
    source = Ring.of(VariableBlock("x", 2, STATE))
    p = var(source, "x", 0)
    with pytest.raises(StructuralError):
        substitute_curve(p, (VariableBlock("f0", 3, STATE),))
    two_blocks = Ring.of(VariableBlock("a", 1, STATE), VariableBlock("b", 1, STATE))
    with pytest.raises(StructuralError):
        substitute_curve(Polynomial.variable(two_blocks, ("a", 0)),
                         (VariableBlock("f0", 1, STATE),))


def test_ring_role_operations():
    retagged = XW.with_role("x", PARAMETER)
    assert retagged.block("x").role == PARAMETER
    assert XW.block("x").role == STATE  # original untouched
    assert XW.state_variables() == [("x", 0), ("x", 1)]
    assert retagged.state_variables() == []
    with pytest.raises(StructuralError):
        Ring.of(VariableBlock("x", 1, STATE), VariableBlock("x", 2, STATE))


def test_cast_between_compatible_rings():
    p = var(XW, "x", 0) * var(XW, "x", 1)
    retagged = XW.with_role("x", PARAMETER)
    q = p.cast(retagged)
    assert q.terms == p.terms
    assert q.ring == retagged
    with pytest.raises(StructuralError):
        var(XW, "w", 0).cast(Ring.of(VariableBlock("x", 2, STATE)))


def test_matrix_apply():
    x0, x1 = var(X, "x", 0), var(X, "x", 1)
    rows = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    out = matrix_apply(rows, (x0, x1))
    assert out == (-x1, x0)
    with pytest.raises(StructuralError):
        matrix_apply(((Fraction(1),),), (x0, x1))


def test_string_rendering():
    x0, x1 = var(X, "x", 0), var(X, "x", 1)
    assert str(Polynomial.zero(X)) == "0"
    assert str(x0 * x0 - x1 / 2) == "x.0^2 - 1/2*x.1"
    assert str(Monomial.of(("x", 0), 2)) == "x.0^2"
