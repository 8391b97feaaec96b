"""The JSON term lists of polynomials, fields and decompositions, against plain references.

``jsonio`` writes a term list as text straight from a polynomial's packed
keys and reads one straight into them. The writer is checked byte for byte
against ``json_reference``, which goes through ``Monomial`` and ``Fraction``,
both for the objects themselves, at any depth of a value, and for the dicts
of their ``*_to_json`` functions; the reader's coefficients against
``matrices.scalar``; and both are counted, so that neither goes back through
those types unnoticed.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json_reference as ref
from takiff import jsonio, poly, randgen
from takiff import matrices as mx
from takiff.decompose import Decomposition
from takiff.errors import StructuralError, digit_limit_error
from takiff.poly import (MAX_EXPONENT, PARAMETER, STATE, Monomial, Polynomial, Ring,
                         VariableBlock, VectorField)

# Ring order puts w first; variable order sorts f0 < f10 < f2 < w; key-string
# order also puts "f0.10" before "f0.2". So the three orders all differ.
MIXED_RING = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("f0", 11, STATE),
                     VariableBlock("f2", 11, STATE), VariableBlock("f10", 11, STATE))
MIXED_VARS = list(MIXED_RING.variables())


def test_the_mixed_ring_orders_its_variables_three_ways():
    keys = [f"{name}.{i}" for name, i in MIXED_VARS]
    by_var = [f"{name}.{i}" for name, i in sorted(MIXED_VARS)]
    assert len({tuple(keys), tuple(by_var), tuple(sorted(keys))}) == 3


EXPONENTS = st.one_of(st.integers(1, 3), st.just(MAX_EXPONENT), st.integers(1, MAX_EXPONENT))
# the unit monomial (an empty map) included
MONOMIALS = st.dictionaries(st.sampled_from(MIXED_VARS), EXPONENTS, max_size=4).map(
    Monomial.from_map)
COEFFS = st.one_of(st.integers(-10**30, 10**30),
                   st.fractions(min_value=-50, max_value=50, max_denominator=60))
POLYNOMIALS = st.dictionaries(MONOMIALS, COEFFS, max_size=6).map(
    lambda terms: Polynomial(MIXED_RING, terms))
FIELDS = st.lists(POLYNOMIALS | st.just(Polynomial.zero(MIXED_RING)),
                  min_size=33, max_size=33).map(
    lambda components: VectorField(MIXED_RING, tuple(components)))
DECOMPOSITIONS = st.integers(0, 3).flatmap(lambda width: st.lists(
    st.lists(POLYNOMIALS, min_size=width, max_size=width), min_size=1, max_size=3)).map(
    lambda levels: Decomposition(MIXED_RING, tuple(map(tuple, levels))))
WRITER = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# the object alone, then two and three levels deep, as the command line nests it
NESTINGS = [lambda v: v, lambda v: [v], lambda v: {"field": v},
            lambda v: [[v, v]], lambda v: {"coefficients": [v], "seed": 1},
            lambda v: [{"basis": 0, "residual": v}]]


def _check_written(obj, to_json, want):
    """``to_json(obj)`` is the reference dict ``want``, and ``jsonio.dumps`` writes
    ``obj`` at each depth of ``NESTINGS`` as ``json.dumps`` writes ``want`` there."""
    assert to_json(obj) == want
    assert jsonio.dumps(want) == ref.dumps(want)
    for nest in NESTINGS:
        assert jsonio.dumps(nest(obj)) == ref.dumps(nest(want))


@WRITER
@given(POLYNOMIALS)
def test_polynomial_json_is_written_like_the_monomial_reference(p):
    _check_written(p, jsonio.polynomial_to_json, ref.polynomial_json(p))


@WRITER
@given(FIELDS)
def test_field_json_is_written_like_the_monomial_reference(field):
    _check_written(field, jsonio.field_to_json, ref.field_json(field))


@WRITER
@given(DECOMPOSITIONS)
def test_decomposition_json_is_written_like_the_monomial_reference(dec):
    _check_written(dec, jsonio.decomposition_to_json, ref.decomposition_json(dec))


def test_a_written_term_list_covers_each_edge_of_a_key():
    def var(name, i):
        return Polynomial.variable(MIXED_RING, (name, i))

    top = Polynomial(MIXED_RING, {Monomial.of(("f2", 0), MAX_EXPONENT): Fraction(1, 4)})
    p = (Fraction(-7, 3) + var("w", 0) * var("f0", 10) ** 2 + 3 * var("f0", 2) * var("f0", 10)
         - 5 * var("f0", 2) * var("f10", 1) + top)
    terms = jsonio.polynomial_to_json(p)["terms"]
    assert terms == ref.terms_json(p) == [
        {"coeff": "-7/3", "exps": {}},
        {"coeff": "3", "exps": {"f0.10": 1, "f0.2": 1}},
        {"coeff": "-5", "exps": {"f0.2": 1, "f10.1": 1}},
        {"coeff": "1", "exps": {"f0.10": 2, "w.0": 1}},
        {"coeff": "1/4", "exps": {"f2.0": MAX_EXPONENT}},
    ]
    # the exponent keys come out in key-string order, not variable order
    assert [list(t["exps"]) for t in terms] == [
        [], ["f0.10", "f0.2"], ["f0.2", "f10.1"], ["f0.10", "w.0"], ["f2.0"]]


@pytest.mark.parametrize("part", ["numerator", "denominator"])
@pytest.mark.parametrize("writer", ["polynomial", "field", "dumps-polynomial", "dumps-field",
                                    "dumps-decomposition"])
def test_a_number_past_the_digit_limit_is_a_structural_error(part, writer):
    big = 10 ** sys.get_int_max_str_digits()
    ring = Ring.of(VariableBlock("f0", 1, STATE))
    coeff = big if part == "numerator" else Fraction(1, big)
    p = Polynomial(ring, {Monomial.of(("f0", 0)): coeff})
    field = VectorField(ring, (p,))
    dec = Decomposition(ring, ((Polynomial.zero(ring),), (p,)))
    write = {"polynomial": lambda: jsonio.polynomial_to_json(p),
             "field": lambda: jsonio.field_to_json(field),
             "dumps-polynomial": lambda: jsonio.dumps(p),
             "dumps-field": lambda: jsonio.dumps({"field": field}),
             "dumps-decomposition": lambda: jsonio.dumps([dec])}[writer]
    with pytest.raises(StructuralError) as info:
        write()
    assert str(info.value) == str(digit_limit_error("cannot write a number of"))
    assert not isinstance(info.value, ValueError)


SPELLINGS = ["3", "-3", "1/2", "-1/2", "4/2", "-7/14", "0/5", "-0/3", "+1/2", " 1/2", "1/2 ",
             "1 /2", "1/-2", "1/0", "0/0", "/2", "1/", "1/2/3", "²/3",
             "١/٢", "1_0/3", "1.5", "1e3", ""]


def _scalar_or_error(text):
    try:
        return mx.scalar(text)
    except StructuralError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("text", SPELLINGS, ids=repr)
def test_a_coefficient_is_read_like_matrices_scalar(text):
    ring = Ring.of(VariableBlock("x", 2, STATE))
    x0 = Monomial.of(("x", 0))
    # alone, and beside an integral and a fractional term
    for extra in ([], [{"coeff": "5", "exps": {"x.1": 1}}], [{"coeff": "1/3", "exps": {}}]):
        data = {"ring": jsonio.ring_to_json(ring),
                "terms": [{"coeff": text, "exps": {"x.0": 1}}] + extra}
        try:
            p = jsonio.polynomial_from_json(data)
        except StructuralError as exc:
            assert _scalar_or_error(text) == f"error: {exc}"
            continue
        assert p.coefficient(x0) == _scalar_or_error(text)
        assert type(p.coefficient(x0)) is type(_scalar_or_error(text))
        # canonical form: int numerators over an int denominator
        assert all(type(c) is int for c in p._num.values()) and type(p._den) is int
        assert p == Polynomial(ring, {x0: mx.scalar(text)}) + jsonio.polynomial_from_json(
            {"ring": data["ring"], "terms": extra})


@pytest.fixture
def counted(monkeypatch):
    """Every Monomial and Fraction constructed, by type, while the test runs."""
    made = []
    new_fraction = Fraction.__new__

    def monomial(cls, *args):
        made.append(cls)
        return tuple.__new__(cls, *args)

    def fraction(cls, *args, **kwargs):
        made.append(cls)
        return new_fraction(cls, *args, **kwargs)

    monkeypatch.setattr(poly.Monomial, "__new__", monomial)
    monkeypatch.setattr(Fraction, "__new__", fraction)
    return made


def test_the_counters_count(counted):
    Fraction(1, 2)
    Monomial.of(("f0", 0))
    assert counted == [Fraction, Monomial]


def test_term_lists_are_written_and_read_with_no_monomial_and_no_fraction(counted):
    inst = randgen.generate_instance("so_n", 2, seed=11, n=3)
    assert all(p._den == 1 for p in inst.field.components)  # an all-integer field
    counted.clear()
    text = jsonio.dumps(jsonio.field_to_json(inst.field))
    assert counted == []
    assert jsonio.dumps(inst.field) == text
    assert counted == []
    assert jsonio.field_from_json(jsonio.loads(text)) == inst.field
    assert counted == []
    inst.field.components[0].sorted_terms()  # the reference path does construct them
    assert Monomial in counted


def test_canonical_fractions_are_read_with_no_fraction(counted):
    ring = Ring.of(VariableBlock("x", 1, STATE))
    terms = [{"coeff": c, "exps": e} for c, e in
             [("1/2", {"x.0": 1}), ("-2/3", {}), ("5", {"x.0": 2}), ("1/6", {"x.0": 1})]]
    p = jsonio.polynomial_from_json({"ring": jsonio.ring_to_json(ring), "terms": terms})
    assert counted == []
    x = Polynomial.variable(ring, ("x", 0))
    assert p == (2 * x / 3 - Fraction(2, 3)) + 5 * x * x
