"""JSON interchange, deterministic generation, and the command line."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import takiff
from takiff import cli, jsonio, randgen
from takiff import matrices as mx
from takiff.cli import _parser, main
from takiff.decompose import (
    Decomposition,
    VectorField,
    annihilates_invariants,
    builtin_solver,
    field_from_coefficients,
    takiff_decompose,
)
from takiff.errors import StructuralError, ValidationError
from takiff.invariants import lift_family, lift_invariant, quadratic_invariant
from takiff.lie import (
    BilinearForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    conjugate_representation,
    killing_form,
    sl2,
    so_n,
)
from takiff.poly import PARAMETER, STATE, Monomial, Polynomial, Ring, VariableBlock
from takiff.randgen import (
    SplitMix64,
    generate_instance,
    random_antisymmetric,
    random_invertible,
    random_polynomial,
)
from takiff.takiff_algebra import LiftedRepresentation, build_lift


def test_scalar_strings():
    for text in ("0", "-3", "1/2", "-7/5"):
        assert jsonio.scalar_to_str(jsonio.scalar_from_str(text)) == text
    assert jsonio.scalar_to_str(Fraction(2, 4)) == "1/2"
    with pytest.raises(StructuralError):
        jsonio.scalar_from_str("abc")
    with pytest.raises(StructuralError):
        jsonio.scalar_from_str("1/0")


def test_polynomial_roundtrip():
    ring = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("f0", 2, STATE))
    w = Polynomial.variable(ring, ("w", 0))
    f0 = Polynomial.variable(ring, ("f0", 0))
    f1 = Polynomial.variable(ring, ("f0", 1))
    p = w * f0 * f0 / 2 - 3 * f1 + 7
    data = jsonio.polynomial_to_json(p)
    assert jsonio.polynomial_from_json(data) == p


def test_variable_keys_allow_dotted_block_names():
    ring = Ring.of(VariableBlock("a.b", 2, STATE))
    p = Polynomial.variable(ring, ("a.b", 1)) ** 2
    assert jsonio.polynomial_from_json(jsonio.polynomial_to_json(p)) == p


def test_malformed_variable_keys():
    ring = Ring.of(VariableBlock("x", 4, STATE))
    # ".5" parses as the empty block name, which the ring then rejects
    for key in ("x", "x.", "x.one", ".5"):
        data = {"ring": jsonio.ring_to_json(ring),
                "terms": [{"coeff": "1", "exps": {key: 1}}]}
        with pytest.raises(StructuralError):
            jsonio.polynomial_from_json(data)
    # only the canonical index is read: ASCII digits with no leading zero,
    # so "x.01" beside "x.1" cannot silently drop an exponent
    for key in ("x.\u00b2", "x.\u0663", "x.01", "x.00", "x.+1", "x. 1"):
        data = {"ring": jsonio.ring_to_json(ring),
                "terms": [{"coeff": "1", "exps": {"x.1": 1, key: 2}}]}
        with pytest.raises(StructuralError) as info:
            jsonio.polynomial_from_json(data)
        assert str(info.value) == f"malformed variable key {key!r} (want 'block.index')"


def test_repeated_monomials_in_a_term_list_are_summed():
    ring = Ring.of(VariableBlock("x", 2, STATE))
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    terms = [{"coeff": "1/2", "exps": {"x.0": 1, "x.1": 2}},
             {"coeff": 3, "exps": {}},
             {"coeff": "1/3", "exps": {"x.1": 2, "x.0": 1}},
             {"coeff": "-3", "exps": {}},
             {"coeff": "7", "exps": {"x.0": 1}}]
    p = jsonio.polynomial_from_json({"ring": jsonio.ring_to_json(ring), "terms": terms})
    assert p == x0 * x1 * x1 * Fraction(5, 6) + 7 * x0


def _term(coeff, exponent):
    return {"ring": [{"name": "x", "size": 1, "role": "state"}],
            "terms": [{"coeff": coeff, "exps": {"x.0": exponent}}]}


@pytest.mark.parametrize("reader, data", [
    (jsonio.polynomial_from_json, _term(0.1, 1)),
    (jsonio.polynomial_from_json, _term("1", 1.5)),
    (jsonio.polynomial_from_json, _term("1", True)),
    (jsonio.ring_from_json, [{"name": "x", "size": True, "role": "state"}]),
    (jsonio.ring_from_json, [{"name": "x", "size": 10**9, "role": "state"}]),
    (jsonio.ring_from_json, [{"name": "x", "size": 6000, "role": "state"},
                             {"name": "w", "size": 4001, "role": "parameter"}]),
], ids=["float-coeff", "float-exponent", "bool-exponent", "bool-size",
        "huge-size", "sizes-over-the-bound"])
def test_inexact_or_truncated_json_rejected(reader, data):
    with pytest.raises(StructuralError):
        reader(data)


def _one_term(exps, coeff="1"):
    return {"ring": [{"name": "x", "size": 2, "role": "state"}],
            "terms": [{"coeff": "2", "exps": {"x.0": 1}}, {"coeff": coeff, "exps": exps}]}


@pytest.mark.parametrize("data, message", [
    (_one_term({"x.1.": 1}), "malformed variable key 'x.1.' (want 'block.index')"),
    (_one_term({"x.2": 1}), "variable x.2 not in ring with blocks ('x',)"),
    (_one_term({"y.0": 1}), "variable y.0 not in ring with blocks ('x',)"),
    (_one_term({"x.1": 1.0}), "exponent of 'x.1' must be an integer, got float"),
    (_one_term({"x.1": "2"}), "exponent of 'x.1' must be an integer, got str"),
    (_one_term({"x.1": False}), "exponent of 'x.1' must be an integer, got bool"),
    (_one_term({"x.1": -1}), "negative exponent in monomial"),
    (_one_term({"x.1": 32768}), "exponent 32768 of x.1 is outside 1..32767"),
    (_one_term({"x.1": 1}, 0.5), "scalar must be a string or an integer, got float"),
    (_one_term({"x.1": 1}, None), "scalar must be a string or an integer, got NoneType"),
    (_one_term({"x.1": 1}, True), "scalar must be a string or an integer, got bool"),
    (_one_term({"x.1": 1}, "1/0"), "not a rational scalar: '1/0'"),
    (_one_term({"x.1": 1}, "0x10"), "not a rational scalar: '0x10'"),
    (_one_term({"x.1": 1}, ""), "not a rational scalar: ''"),
], ids=["malformed-key", "index-not-in-ring", "block-not-in-ring", "float-exponent",
        "string-exponent", "bool-exponent", "negative-exponent", "exponent-above-limit",
        "float-coeff", "null-coeff", "bool-coeff", "zero-denominator", "hex-coeff",
        "empty-coeff"])
def test_one_fault_term_lists_name_their_fault(data, message):
    with pytest.raises(StructuralError) as info:
        jsonio.polynomial_from_json(data)
    assert str(info.value) == message


def test_a_zero_exponent_is_omitted_for_any_variable():
    p = jsonio.polynomial_from_json(_one_term({"x.1": 0, "y.0": 0}, "3"))
    assert p == Polynomial(Ring.of(VariableBlock("x", 2, STATE)), {
        Monomial.of(("x", 0)): 2, Monomial.unit(): 3})


def test_algebra_and_representation_roundtrip():
    g, rho = so_n(3)
    assert jsonio.algebra_from_json(jsonio.algebra_to_json(g)) == g
    back = jsonio.representation_from_json(jsonio.representation_to_json(rho))
    assert back == rho
    bad = jsonio.algebra_to_json(g)
    bad["dim"] = 5
    with pytest.raises(StructuralError):
        jsonio.algebra_from_json(bad)
    flat = jsonio.representation_to_json(rho)
    flat["matrices"][0] = flat["matrices"][0][:-1]
    with pytest.raises(StructuralError):
        jsonio.representation_from_json(flat)


def test_what_the_constructors_accept_round_trips():
    # algebra_from_json reads a basis name only as a str and
    # representation_from_json a positive space_dim, so the constructors
    # refuse the rest rather than write what cannot be read back
    g = LieAlgebra(("α", "x.0"), (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    assert jsonio.algebra_from_json(jsonio.algebra_to_json(g)) == g
    for name in (1, None, ""):
        with pytest.raises(StructuralError, match="basis name"):
            LieAlgebra((name,), (((0,),),))
    with pytest.raises(StructuralError, match="dimension must be positive"):
        Representation(LieAlgebra(("a",), (((0,),),)), ((),))


def counted_scalar_reads(monkeypatch):
    """Count every matrices.scalar call, through each module that binds it."""
    calls = []
    original = mx.scalar

    def counted(value):
        calls.append(value)
        return original(value)

    for module in (mx, takiff.lie, takiff.jsonio, takiff.poly, takiff.invariants):
        monkeypatch.setattr(module, "scalar", counted)
    return calls


def test_the_algebra_and_representation_readers_read_each_value_once(monkeypatch):
    g, rho = so_n(5)
    rho_data = json.loads(json.dumps(jsonio.representation_to_json(rho)))
    entry = rho_data["matrices"][0][1]
    rho_data["matrices"][0][1] = "1/2"  # an entry is read once whatever its spelling
    plane = rho_data["algebra"]["c"][0][1]
    plane[4] = int(plane[4])  # a JSON integer, not a string: taken as it is
    plane[0] = "-0"  # a zero spelled otherwise than "0" is read
    constants = [v for plane in rho_data["algebra"]["c"] for row in plane for v in row]
    entries = [v for flat in rho_data["matrices"] for v in flat]

    def read(values):  # one scalar call per string that is not "0"
        return sum(type(v) is str and v != "0" for v in values)

    assert read(constants) == 60 and read(entries) == 20
    calls = counted_scalar_reads(monkeypatch)
    assert jsonio.algebra_from_json(rho_data["algebra"]) == g
    assert len(calls) == read(constants)
    calls.clear()
    with pytest.raises(ValidationError, match="homomorphism"):
        jsonio.representation_from_json(rho_data)
    assert len(calls) == read(constants) + read(entries)
    rho_data["matrices"][0][1] = entry
    calls.clear()
    assert jsonio.representation_from_json(rho_data) == rho
    assert len(calls) == read(constants) + read(entries)


def test_so15_and_its_algebra_document_read_each_nonzero_at_most_once(monkeypatch):
    # so(15) has 2,730 nonzero constants of 1,157,625 and 210 nonzero matrix
    # entries of 23,625: a dense pass through matrices.scalar would show here
    calls = counted_scalar_reads(monkeypatch)
    g, rho = so_n(15)
    constants = sum(len(pairs) for plane in g.brackets for pairs in plane)
    entries = sum(1 for m in rho.matrices for row in m for x in row if x)
    assert (g.dim, constants, entries) == (105, 2730, 210)
    assert len(calls) <= constants + entries
    data = jsonio.algebra_to_json(g)
    calls.clear()
    assert jsonio.algebra_from_json(data) == g
    assert len(calls) <= constants


@pytest.mark.parametrize("bad", [True, 0.5, None, [1]], ids=["bool", "float", "null", "array"])
def test_the_algebra_and_representation_readers_keep_the_json_type_check(bad):
    g, rho = so_n(3)
    message = f"scalar must be a string or an integer, got {type(bad).__name__}"
    data = jsonio.representation_to_json(rho)
    data["algebra"]["c"][2][1][0] = bad
    with pytest.raises(StructuralError, match=f"^{message}$"):
        jsonio.algebra_from_json(data["algebra"])
    data = jsonio.representation_to_json(rho)
    data["matrices"][1][5] = bad
    with pytest.raises(StructuralError, match=f"^{message}$"):
        jsonio.representation_from_json(data)
    with pytest.raises(StructuralError, match=f"^{message}$"):
        jsonio.bilinear_from_json({"size": 2, "gram": [["1", "0"], ["0", bad]]})


def test_bilinear_roundtrip():
    form = killing_form(sl2()[0])
    data = {"size": form.size, "gram": jsonio.matrix_to_json(form.gram)}
    assert jsonio.bilinear_from_json(data).gram == form.gram
    data["size"] = 2
    with pytest.raises(StructuralError):
        jsonio.bilinear_from_json(data)


def test_field_and_decomposition_roundtrip():
    inst = generate_instance("so_n", 1, seed=9, n=3)
    data = jsonio.field_to_json(inst.field)
    assert jsonio.field_from_json(data) == inst.field
    solver = builtin_solver(inst.rep, inst.gram)
    dec = takiff_decompose(inst.lifted, solver, inst.field)
    back = jsonio.decomposition_from_json(jsonio.decomposition_to_json(dec))
    assert back == dec


# -- round trips of fractional values, as properties ---------------------------

ROUND_TRIP = settings(derandomize=True, database=None, max_examples=40, deadline=None)
# two state blocks f0, f1 of size 2 after a parameter block w
LEVEL_RING = Ring.of(VariableBlock("w", 1, PARAMETER), VariableBlock("f0", 2, STATE),
                     VariableBlock("f1", 2, STATE))


def fractional_polynomials(ring):
    monomials = st.dictionaries(st.sampled_from(list(ring.variables())),
                                st.integers(1, 3), max_size=3).map(Monomial.from_map)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return st.dictionaries(monomials, coeffs, max_size=4).map(
        lambda terms: Polynomial(ring, terms))


def assert_round_trip(to_json, from_json, value):
    text = jsonio.dumps(to_json(value))
    back = from_json(jsonio.loads(text))
    assert back == value
    assert jsonio.dumps(to_json(back)) == text


@ROUND_TRIP
@given(fractional_polynomials(LEVEL_RING))
def test_polynomial_json_round_trip(p):
    assert_round_trip(jsonio.polynomial_to_json, jsonio.polynomial_from_json, p)


@ROUND_TRIP
@given(st.lists(fractional_polynomials(LEVEL_RING), min_size=4, max_size=4))
def test_field_json_round_trip(components):
    fld = VectorField(LEVEL_RING, tuple(components))
    assert_round_trip(jsonio.field_to_json, jsonio.field_from_json, fld)


@ROUND_TRIP
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(fractional_polynomials(LEVEL_RING), min_size=width, max_size=width)
    .map(tuple), min_size=1, max_size=3)))
def test_decomposition_json_round_trip(levels):
    dec = Decomposition(LEVEL_RING, tuple(levels))
    assert_round_trip(jsonio.decomposition_to_json, jsonio.decomposition_from_json, dec)


def reference_terms(ring, data):
    """A term list read term by term: a Monomial per term, summed by Polynomial."""
    terms = {}
    for item in data:
        exps = {}
        for key, e in item["exps"].items():
            name, _, index = key.rpartition(".")
            exps[(name, int(index))] = e
        mono = Monomial.from_map(exps)
        terms[mono] = terms.get(mono, 0) + mx.scalar(item["coeff"])
    return Polynomial(ring, terms)


LEVEL_KEYS = [f"{name}.{i}" for name, i in LEVEL_RING.variables()]
COEFF_TEXTS = st.one_of(
    st.integers(-10**20, 10**20),
    st.integers(-10**20, 10**20).map(str),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).map(str),
    st.sampled_from(["+3", " 3 ", "3_000", "1.5", "1e3", "-0", "4/2", "-7/14", "0.25e-1"]))
# few distinct monomials, so repeats are common; exponent keys in any order
TERM_LISTS = st.lists(st.dictionaries(st.sampled_from(LEVEL_KEYS[:3]), st.integers(0, 2),
                                      max_size=3), min_size=1, max_size=3).flatmap(
    lambda monomials: st.lists(st.fixed_dictionaries(
        {"exps": st.sampled_from(monomials), "coeff": COEFF_TEXTS}), max_size=8))


@ROUND_TRIP
@given(st.lists(TERM_LISTS, min_size=4, max_size=4))
def test_term_lists_read_like_the_monomial_reference(components):
    fld = jsonio.field_from_json({"ring": jsonio.ring_to_json(LEVEL_RING),
                                  "components": components})
    for p, data in zip(fld.components, components):
        ref = reference_terms(LEVEL_RING, data)
        # the order of the terms too: later arithmetic iterates in it
        assert list(p.terms.items()) == list(ref.terms.items())
        assert p == ref
        assert all(type(c) is int for c in p._num.values()) and type(p._den) is int


def test_each_variable_key_of_a_document_is_parsed_once(monkeypatch):
    inst = generate_instance("so_n", 3, seed=3, n=4)
    data = jsonio.field_to_json(inst.field)
    occurrences = [key for terms in data["components"] for term in terms
                   for key in term["exps"]]
    calls = []

    def counting(key):
        calls.append(key)
        return parse(key)

    parse = jsonio._var_from_key
    monkeypatch.setattr(jsonio, "_var_from_key", counting)
    assert jsonio.field_from_json(data) == inst.field
    assert sorted(calls) == sorted(set(occurrences))
    assert len(occurrences) > 2 * len(calls)


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def invertible_matrices(n):
    return st.lists(st.lists(RATIONALS, min_size=n, max_size=n).map(tuple),
                    min_size=n, max_size=n).map(tuple).filter(lambda a: mx.det(a) != 0)


# so(n) and the adjoint of sl2, each as given or conjugated by a rational matrix
REPRESENTATIONS = st.one_of(
    st.integers(2, 4).map(lambda n: so_n(n)[1]),
    st.just(adjoint_rep(sl2()[0])),
).flatmap(lambda rep: st.one_of(
    st.just(rep),
    invertible_matrices(rep.space_dim).map(lambda t: conjugate_representation(rep, t))))


@st.composite
def symmetric_forms(draw):
    n = draw(st.integers(1, 4))
    upper = {(i, j): draw(RATIONALS) for i in range(n) for j in range(i, n)}
    return BilinearForm(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n))
                              for i in range(n)))


def bilinear_to_json(form):
    return {"size": form.size, "gram": jsonio.matrix_to_json(form.gram)}


def with_float_entry(data, path):
    """A copy of ``data`` with the scalar string at ``path`` read as a float."""
    data = json.loads(json.dumps(data))
    *outer, last = path
    holder = data
    for key in outer:
        holder = holder[key]
    holder[last] = float(Fraction(holder[last]))
    return data


@ROUND_TRIP
@given(REPRESENTATIONS, st.data())
def test_algebra_and_representation_json_round_trip(rep, data):
    assert_round_trip(jsonio.algebra_to_json, jsonio.algebra_from_json, rep.algebra)
    assert_round_trip(jsonio.representation_to_json, jsonio.representation_from_json, rep)
    d, n = rep.algebra.dim, rep.space_dim
    plane = data.draw(st.integers(0, d - 1), label="plane")
    row = data.draw(st.integers(0, d - 1), label="row")
    col = data.draw(st.integers(0, d - 1), label="col")
    with pytest.raises(StructuralError):
        jsonio.algebra_from_json(with_float_entry(
            jsonio.algebra_to_json(rep.algebra), ["c", plane, row, col]))
    matrix = data.draw(st.integers(0, d - 1), label="matrix")
    entry = data.draw(st.integers(0, n * n - 1), label="entry")
    with pytest.raises(StructuralError):
        jsonio.representation_from_json(with_float_entry(
            jsonio.representation_to_json(rep), ["matrices", matrix, entry]))


@ROUND_TRIP
@given(symmetric_forms(), st.data())
def test_bilinear_form_json_round_trip(form, data):
    text = jsonio.dumps(bilinear_to_json(form))
    back = jsonio.bilinear_from_json(jsonio.loads(text))
    assert back == form
    assert jsonio.dumps(bilinear_to_json(back)) == text
    row = data.draw(st.integers(0, form.size - 1), label="row")
    col = data.draw(st.integers(0, form.size - 1), label="col")
    with pytest.raises(StructuralError):
        jsonio.bilinear_from_json(with_float_entry(bilinear_to_json(form), ["gram", row, col]))


def test_dumps_is_byte_deterministic():
    a = generate_instance("sl2", 2, seed=41)
    b = generate_instance("sl2", 2, seed=41)
    assert a.field == b.field
    text_a = jsonio.dumps(jsonio.field_to_json(a.field))
    text_b = jsonio.dumps(jsonio.field_to_json(b.field))
    assert text_a == text_b
    assert text_a.endswith("\n")
    parsed = json.loads(text_a)
    assert list(parsed) == sorted(parsed)


# -- the serializer against json.dumps --------------------------------------------

def reference_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# non-ASCII letters, control characters, quotes, backslashes and lone surrogates
awkward_text = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u2028", "é",
                     "φ", "\U0001f600", "\ud800", "\udfff"])), max_size=8)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.integers(min_value=2 ** 64, max_value=2 ** 300), awkward_text)
exponent_maps = st.dictionaries(awkward_text, st.integers(0, 2 ** 70), max_size=4)
terms = st.fixed_dictionaries({"coeff": awkward_text, "exps": exponent_maps})
# dicts that look like terms and are not: each one differs from a term in one place
term_lookalikes = st.one_of(
    st.fixed_dictionaries({"coeff": st.integers() | st.booleans() | st.none(),
                           "exps": exponent_maps}),
    st.fixed_dictionaries({"coeff": awkward_text, "exps": st.dictionaries(
        awkward_text, st.booleans() | st.none() | exponent_maps | awkward_text,
        min_size=1, max_size=3)}),
    st.fixed_dictionaries({"coeff": awkward_text, "exps": exponent_maps},
                          optional={"extra": json_scalars, "": json_scalars}),
    st.fixed_dictionaries({"coeff": awkward_text, "exps": st.lists(json_scalars)}),
    st.fixed_dictionaries({"coeff": awkward_text}),
)


def strings_with_one_other(strings_and_value):
    strings, index, other = strings_and_value
    return strings[:index] + [other] + strings[index:]


json_values = st.recursive(
    json_scalars | terms | term_lookalikes,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(awkward_text, children, max_size=4),
        st.lists(awkward_text, max_size=6),
        # a list of strings with one item of another type, placed anywhere
        st.tuples(st.lists(awkward_text, max_size=5), st.integers(0, 5),
                  children).map(strings_with_one_other),
    ),
    max_leaves=20)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(json_values)
def test_dumps_is_json_dumps_byte_for_byte(value):
    assert jsonio.dumps(value) == reference_dumps(value)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]], {"coeff": "1", "exps": {}},
    {"coeff": "1", "exps": {"x.10": 1, "x.2": 3}}, [{"coeff": "-1/2", "exps": {"x.0": 0}}],
    1.5, [1.5, -0.0, 1e300], {"x": float("nan")}, {1: "a", 2: ["b", {3: []}]},
    {"coeff": "1", "exps": {1: 2}}, {"a": {"b": ("c", 2), "d": [{"e": ()}]}},
    ["x", 2 ** 200, None, True, False, -7],
], ids=repr)
def test_dumps_is_json_dumps_on_edge_values(value):
    """Empty containers, exponents to sort; floats, non-str keys, tuples go to json.dumps."""
    assert jsonio.dumps(value) == reference_dumps(value)


def test_dumps_peak_memory_is_at_most_three_times_its_text():
    """The lifted so(5) rep at m = 3: a list of strings is joined, not chunked."""
    _, rho = so_n(5)
    payload = jsonio.representation_to_json(build_lift(rho, 3).rep)
    tracemalloc.start()
    try:
        text = jsonio.dumps(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 1_170_244
    assert peak <= 3 * len(text)


def test_splitmix64_reference_stream():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_draws():
    rng = SplitMix64(123)
    for _ in range(50):
        assert 0 <= rng.below(7) < 7
        assert -2 <= rng.integer(-2, 5) <= 5
        assert rng.nonzero(3) != 0
    with pytest.raises(StructuralError):
        rng.below(0)
    with pytest.raises(StructuralError):
        rng.integer(3, 2)
    assert SplitMix64(5).next_u64() == SplitMix64(5).next_u64()


def test_random_builders():
    rng = SplitMix64(7)
    ring = Ring.of(VariableBlock("x", 3, STATE))
    p = random_polynomial(rng, ring, 3, 5)
    assert p.degree() <= 3
    m = random_antisymmetric(rng, ring, 3, 2, 3)
    for i in range(3):
        assert m[i][i].is_zero()
        for j in range(3):
            assert m[i][j] == -m[j][i]
    theta = random_invertible(rng, 3)
    assert mx.det(theta) != 0


def test_generated_instance_annihilates_its_invariants():
    for kind, params in (("so_n", {"n": 2}), ("so_n", {"n": 3}), ("sl2_adjoint", {})):
        inst = generate_instance(kind, 2, seed=17, **params)
        solver = builtin_solver(inst.rep, inst.gram)
        gens = lift_family(inst.lifted, solver.family)
        assert annihilates_invariants(inst.field, gens) == (True, None)
    with pytest.raises(ValidationError):
        generate_instance("so_n", -1, seed=1, n=2)


@pytest.mark.parametrize("name, flag, value", [
    ("max_degree", "--degree", -1), ("num_terms", "--terms", 0),
    ("num_terms", "--terms", -3), ("coeff_bound", "--coeff-bound", 0),
    ("max_degree", "--degree", randgen.MAX_DEGREE + 1),
    ("num_terms", "--terms", randgen.MAX_TERMS + 1),
    ("parameters", "--parameters", randgen.MAX_PARAMETERS + 1),
    ("parameters", "--parameters", -1),
])
def test_generate_rejects_degenerate_sizes(name, flag, value, capsys, monkeypatch):
    # every bound is checked before any work: no algebra is built
    def unexpected(*_, **__):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(randgen, "make_standard", unexpected)
    with pytest.raises(ValidationError, match=name):
        generate_instance("so_n", 1, seed=1, n=3, **{name: value})
    assert main(["generate", "--kind", "so_n", "--n", "3", "--level", "1",
                 flag, str(value)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {name}")


@pytest.mark.parametrize("name", ["max_degree", "num_terms", "parameters",
                                  "coeff_bound", "seed"])
def test_generate_instance_refuses_a_non_int_size(name, monkeypatch):
    def unexpected(*_, **__):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(randgen, "make_standard", unexpected)
    with pytest.raises(StructuralError, match=f"{name} must be an int"):
        generate_instance("so_n", 1, **{"seed": 1, "n": 3, name: 2.5})


def test_build_rejects_an_oversized_level(tmp_path, capsys):
    algebra = write_json(tmp_path / "g.json", jsonio.algebra_to_json(so_n(3)[0]))
    assert main(["build", "--algebra", algebra, "--level", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "structure constants" in captured.err


# -- the command line --------------------------------------------------------


def write_json(path, payload):
    path.write_text(jsonio.dumps(payload), encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def radial_field_json(n, m):
    blocks = tuple(VariableBlock(f"f{k}", n, STATE) for k in range(m + 1))
    ring = Ring(blocks)
    comps = tuple(Polynomial.variable(ring, (b.name, i))
                  for b in blocks for i in range(n))
    return jsonio.field_to_json(VectorField(ring, comps))


def test_cli_generate_decompose_verify(tmp_path):
    gen = tmp_path / "inst.json"
    assert main(["generate", "--kind", "so_n", "--n", "3", "--level", "1",
                 "--seed", "5", "--out", str(gen)]) == 0
    payload = read_json(gen)
    rep = write_json(tmp_path / "rep.json", payload["representation"])
    field = write_json(tmp_path / "field.json", payload["field"])
    dec_path = tmp_path / "dec.json"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--out", str(dec_path)]) == 0
    result = read_json(dec_path)
    assert result["verification"]["passed"] is True
    dec_only = write_json(tmp_path / "only_dec.json", result["decomposition"])
    assert main(["verify", "--rep", rep, "--level", "1", "--field", field,
                 "--dec", dec_only]) == 0


@pytest.mark.parametrize("p, q", [(2, 1), (1, 2)])
def test_cli_so_pq_instance_decomposes_with_its_own_gram(tmp_path, p, q):
    gen = tmp_path / "inst.json"
    assert main(["generate", "--kind", "so_pq", "--p", str(p), "--q", str(q),
                 "--level", "2", "--seed", "5", "--out", str(gen)]) == 0
    payload = read_json(gen)
    rep = write_json(tmp_path / "rep.json", payload["representation"])
    field = write_json(tmp_path / "field.json", payload["field"])
    gram = write_json(tmp_path / "gram.json", {"size": p + q, "gram": payload["gram"]})
    dec_path = tmp_path / "dec.json"
    assert main(["decompose", "--rep", rep, "--level", "2", "--field", field,
                 "--gram", gram, "--out", str(dec_path)]) == 0
    dec_only = write_json(tmp_path / "only_dec.json", read_json(dec_path)["decomposition"])
    assert main(["verify", "--rep", rep, "--level", "2", "--field", field,
                 "--dec", dec_only]) == 0


def test_cli_decompose_names_the_gram_option_when_the_identity_does_not_suit(tmp_path, capsys):
    gen = tmp_path / "inst.json"
    assert main(["generate", "--kind", "so_pq", "--p", "2", "--q", "1",
                 "--level", "1", "--seed", "5", "--out", str(gen)]) == 0
    payload = read_json(gen)
    rep = write_json(tmp_path / "rep.json", payload["representation"])
    field = write_json(tmp_path / "field.json", payload["field"])
    capsys.readouterr()
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --gram identity does not suit this representation: ")
    assert "generator 0 of family 'quadratic' is not invariant" in err


@pytest.mark.parametrize("reshape", [
    lambda level: level + [[{"coeff": "1", "exps": {}}]],
    lambda level: level[:-1],
], ids=["extra", "missing"])
def test_cli_verify_rejects_wrong_coefficient_count(tmp_path, capsys, reshape):
    gen = tmp_path / "inst.json"
    assert main(["generate", "--kind", "so_n", "--n", "3", "--level", "1",
                 "--seed", "5", "--out", str(gen)]) == 0
    payload = read_json(gen)
    rep = write_json(tmp_path / "rep.json", payload["representation"])
    field = write_json(tmp_path / "field.json", payload["field"])
    decomposed = tmp_path / "decomposed.json"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--out", str(decomposed)]) == 0
    dec = read_json(decomposed)["decomposition"]
    dec["coefficients"] = [reshape(level) for level in dec["coefficients"]]
    dec_path = write_json(tmp_path / "dec.json", dec)
    capsys.readouterr()
    assert main(["verify", "--rep", rep, "--level", "1", "--field", field,
                 "--dec", dec_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "coefficient" in captured.err
    assert "Traceback" not in captured.err


def test_cli_decompose_refusal_exit_code(tmp_path):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    field = write_json(tmp_path / "field.json", radial_field_json(2, 1))
    out = tmp_path / "refused.json"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--out", str(out)]) == 2
    payload = read_json(out)
    assert "refused" in payload and payload["witness"] is not None
    assert payload["witness"]["terms"]


def test_cli_decompose_refuses_an_exponent_above_the_limit(tmp_path, capsys):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    doc = radial_field_json(2, 1)
    doc["components"][0][0]["exps"] = {"f0.0": 40000}
    field = write_json(tmp_path / "field.json", doc)
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "outside 1..32767" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("exps", [{"f0.\u00b2": 1}, {"f0.\u0661": 1},
                                  {"f0.1": 1, "f0.01": 2}],
                         ids=["superscript", "arabic-indic", "leading-zero"])
def test_cli_decompose_refuses_a_variable_key_in_another_spelling(tmp_path, capsys, exps):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    doc = radial_field_json(2, 1)
    doc["components"][0][0]["exps"] = exps
    field = write_json(tmp_path / "field.json", doc)
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed variable key ")
    assert "Traceback" not in captured.err


def test_cli_decompose_param_count_check(tmp_path, capsys):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    field = write_json(tmp_path / "field.json", radial_field_json(2, 0))
    assert main(["decompose", "--rep", rep, "--level", "0", "--field", field,
                 "--params", "2"]) == 1
    assert capsys.readouterr().err == "error: field has 0 parameter variables, expected 2\n"


def test_cli_check_invariant(tmp_path):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    ring = Ring.of(VariableBlock("x", 2, STATE))
    q = quadratic_invariant(mx.identity(2), ring)
    good = write_json(tmp_path / "q.json", jsonio.polynomial_to_json(q))
    bad = write_json(tmp_path / "x0.json", jsonio.polynomial_to_json(
        Polynomial.variable(ring, ("x", 0))))
    assert main(["check-invariant", "--rep", rep, "--phi", good,
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["check-invariant", "--rep", rep, "--phi", bad,
                 "--out", str(tmp_path / "b.json")]) == 1
    report = read_json(tmp_path / "b.json")
    assert report["invariant"] is False and report["failures"]


def test_cli_lift_invariant_refuses_then_allows(tmp_path):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    ring = Ring.of(VariableBlock("x", 2, STATE))
    phi = write_json(tmp_path / "x0.json", jsonio.polynomial_to_json(
        Polynomial.variable(ring, ("x", 0))))
    assert main(["lift-invariant", "--rep", rep, "--phi", phi,
                 "--level", "1", "--out", str(tmp_path / "o.json")]) == 1
    assert main(["lift-invariant", "--rep", rep, "--phi", phi, "--level", "1",
                 "--any", "--out", str(tmp_path / "o.json")]) == 0
    lifted = read_json(tmp_path / "o.json")
    assert len(lifted) == 2


def test_cli_build_and_flip(tmp_path):
    g, _ = sl2()
    algebra = write_json(tmp_path / "g.json", jsonio.algebra_to_json(g))
    out = tmp_path / "g1.json"
    assert main(["build", "--algebra", algebra, "--level", "1",
                 "--out", str(out)]) == 0
    assert read_json(out)["dim"] == 6
    assert main(["verify-flip", "--algebra", algebra, "--level", "2",
                 "--out", str(tmp_path / "flip.json")]) == 0
    assert read_json(tmp_path / "flip.json")["passed"] is True


def test_cli_tangency_human(tmp_path):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    field = write_json(tmp_path / "field.json", radial_field_json(2, 0))
    pts = write_json(tmp_path / "pts.json", {"points": [["1", "0"], ["0", "0"]]})
    out = tmp_path / "tan.txt"
    assert main(["tangency", "--rep", rep, "--field", field, "--points", pts,
                 "--human", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("outside") and lines[1].startswith("tangent")


def test_cli_tangency_json(tmp_path):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    field = write_json(tmp_path / "field.json", radial_field_json(2, 0))
    pts = write_json(tmp_path / "pts.json", {"points": [["1", "0"], ["0", "0"]]})
    out = tmp_path / "tan.json"
    assert main(["tangency", "--rep", rep, "--field", field, "--points", pts,
                 "--out", str(out)]) == 0
    results = read_json(out)
    assert [sorted(r) for r in results] == [["member", "point", "witness"]] * 2
    assert [r["member"] for r in results] == [False, True]
    assert results[0]["point"] == ["1", "0"]


def test_cli_tangency_on_a_lifted_field(tmp_path, capsys):
    # a level-1 so(3) field is checked against the 2 dim g directions
    # rho_1(x_i T^r) F; V split into three blocks of size 1 is refused
    g, rho = so_n(3)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    ring = Ring.of(VariableBlock("f0", 3, STATE), VariableBlock("f1", 3, STATE))
    f0 = Polynomial.variable(ring, ("f0", 0))
    zero, one = Polynomial.zero(ring), Polynomial.constant(ring, 1)
    combination = field_from_coefficients(LiftedRepresentation(rho, 1), ring,
                                          [(f0, zero, one), (zero, 2 * one, zero)])
    field = write_json(tmp_path / "field.json", jsonio.field_to_json(combination))
    pts = write_json(tmp_path / "pts.json", {"points": [["1", "2", "0", "0", "1", "-1"],
                                                        ["0", "1/2", "3", "1", "0", "0"]]})
    out = tmp_path / "tan.json"
    assert main(["tangency", "--rep", rep, "--field", field, "--points", pts,
                 "--out", str(out)]) == 0
    results = read_json(out)
    assert [r["member"] for r in results] == [True, True]
    assert [len(r["witness"]) for r in results] == [2 * g.dim] * 2
    thirds = Ring.of(*(VariableBlock(name, 1, STATE) for name in "abc"))
    radial = VectorField(thirds, tuple(Polynomial.variable(thirds, v)
                                       for v in thirds.state_variables()))
    field = write_json(tmp_path / "split.json", jsonio.field_to_json(radial))
    pts = write_json(tmp_path / "pts.json", {"points": [["1", "0", "0"]]})
    capsys.readouterr()
    assert main(["tangency", "--rep", rep, "--field", field, "--points", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: state blocks of ('a', 'b', 'c') have sizes [1, 1, 1], expected one or "
        "more of size 3\n")


def test_cli_check_invariant_at_a_level_and_in_plain_text(tmp_path):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    q = quadratic_invariant(mx.identity(2), Ring.of(VariableBlock("x", 2, STATE)))
    top = lift_invariant(build_lift(rho, 1), q)[1]
    lifted = write_json(tmp_path / "q1.json", jsonio.polynomial_to_json(top))
    f0 = write_json(tmp_path / "f0.json", jsonio.polynomial_to_json(
        Polynomial.variable(top.ring, ("f0", 0))))
    out = tmp_path / "out"
    assert main(["check-invariant", "--rep", rep, "--phi", lifted, "--level", "1",
                 "--out", str(out)]) == 0
    assert read_json(out) == {"invariant": True, "failures": []}
    assert main(["check-invariant", "--rep", rep, "--phi", lifted, "--level", "1",
                 "--human", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "invariant\n"
    assert main(["check-invariant", "--rep", rep, "--phi", f0, "--level", "1",
                 "--human", "--out", str(out)]) == 1
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "not invariant" and lines[1] == "  basis 0: nonzero residual"


def test_cli_check_invariant_refuses_a_phi_off_the_level_layout(tmp_path, capsys):
    # phi on V_m has the m + 1 state blocks f0..fm of size n; V_1 written as
    # one block of size 2n, or V as blocks whose sizes add up to n, was read
    # against the dense rho_m and is now refused
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    q = quadratic_invariant(mx.identity(2), Ring.of(VariableBlock("x", 2, STATE)))
    top = lift_invariant(build_lift(rho, 1), q)[1]
    flat = Ring.of(VariableBlock("v", 4, STATE))
    split = Ring.of(VariableBlock("a", 1, STATE), VariableBlock("b", 1, STATE))
    one_block = Polynomial(flat, {Monomial.from_map({("v", 2 * int(f[1:]) + i): e
                                                     for (f, i), e in mono}): c
                                  for mono, c in top.terms.items()})
    cases = [(q, "1", "phi has 1 state blocks, expected 2"),
             (top, "0", "phi has 2 state blocks, expected 1"),
             (top, "2", "phi has 2 state blocks, expected 3"),
             (one_block, "1", "phi has 1 state blocks, expected 2"),
             (Polynomial.variable(flat, ("v", 0)), "0", "have sizes [4], expected one or "
                                                        "more of size 2"),
             (Polynomial.variable(split, ("a", 0)) ** 2
              + Polynomial.variable(split, ("b", 0)) ** 2, "0",
              "phi has 2 state blocks, expected 1")]
    for phi, level, refusal in cases:
        path = write_json(tmp_path / "phi.json", jsonio.polynomial_to_json(phi))
        assert main(["check-invariant", "--rep", rep, "--phi", path, "--level", level]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and refusal in captured.err


def generated_files(tmp_path, level=1):
    """rep.json and field.json of a generated so(3) instance at the level."""
    gen = tmp_path / "inst.json"
    assert main(["generate", "--kind", "so_n", "--n", "3", "--level", str(level),
                 "--seed", "5", "--out", str(gen)]) == 0
    payload = read_json(gen)
    return (write_json(tmp_path / "rep.json", payload["representation"]),
            write_json(tmp_path / "field.json", payload["field"]))


def test_cli_decompose_and_verify_in_plain_text(tmp_path):
    rep, field = generated_files(tmp_path)
    out = tmp_path / "out.txt"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--human", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "decomposed and verified"
    assert [line[:4] for line in lines[1:]] == ["b_0 ", "b_1 "]
    dec_path = tmp_path / "dec.json"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--out", str(dec_path)]) == 0
    dec = write_json(tmp_path / "only_dec.json", read_json(dec_path)["decomposition"])
    assert main(["verify", "--rep", rep, "--level", "1", "--field", field,
                 "--dec", dec, "--human", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "verified\n"
    # a_0 += 1 is neither reconstructed nor tangent to the invariant
    fld = jsonio.field_from_json(read_json(Path(field)))
    bent = write_json(tmp_path / "bent.json", jsonio.field_to_json(
        VectorField(fld.ring, (fld.components[0] + 1,) + fld.components[1:])))
    assert main(["verify", "--rep", rep, "--level", "1", "--field", bent,
                 "--dec", dec, "--human", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "MISMATCH\n"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", bent,
                 "--human", "--out", str(out)]) == 2
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "refused: field does not annihilate the lifted invariants"
    assert lines[1].startswith("witness: ") and len(lines) == 2


def test_cli_verify_flip_in_plain_text(tmp_path):
    algebra = write_json(tmp_path / "g.json", jsonio.algebra_to_json(sl2()[0]))
    out = tmp_path / "flip.txt"
    assert main(["verify-flip", "--algebra", algebra, "--level", "2",
                 "--human", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "level 2, dim 9: flip identity holds\n"


class WrongCoefficientSolver:
    """The built-in solver, except that one level's b gets 1 added to its first entry."""

    def __init__(self, inner, on_call):
        self.rep, self.family = inner.rep, inner.family
        self._inner, self._on_call, self.calls = inner, on_call, 0

    def solve(self, field):
        self.calls += 1
        coeffs = self._inner.solve(field)
        if self.calls == self._on_call:
            return (coeffs[0] + 1,) + coeffs[1:]
        return coeffs


@pytest.mark.parametrize("on_call, message", [
    # a wrong b_0 is caught before the level-1 solve could refuse
    (1, "the level-0 coefficients do not reconstruct a_0"),
    # a wrong b_1 at the top level is caught by the level's own check
    (2, "the level-1 coefficients do not reconstruct a_1"),
], ids=["refusal-premise", "verification"])
def test_cli_decompose_exits_3_on_an_internal_consistency_failure(
        tmp_path, capsys, monkeypatch, on_call, message):
    rep, field = generated_files(tmp_path)
    monkeypatch.setattr(cli, "builtin_solver", lambda rep, gram: WrongCoefficientSolver(
        builtin_solver(rep, gram), on_call))
    capsys.readouterr()
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal consistency failure: {message}\n"


@pytest.mark.parametrize("with_w, parameters", [(False, [["5"]]), (True, [["5"], ["6"]])],
                         ids=["no-parameter-block", "extra-row"])
def test_cli_tangency_refuses_parameter_values_it_would_ignore(tmp_path, capsys,
                                                                with_w, parameters):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    w = (VariableBlock("w", 1, PARAMETER),) if with_w else ()
    ring = Ring(w + (VariableBlock("f0", 2, STATE),))
    radial = VectorField(ring, tuple(Polynomial.variable(ring, ("f0", i)) for i in range(2)))
    field = write_json(tmp_path / "field.json", jsonio.field_to_json(radial))
    pts = write_json(tmp_path / "pts.json", {"points": [["1", "0"]], "parameters": parameters})
    assert main(["tangency", "--rep", rep, "--field", field, "--points", pts]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "parameter values" in captured.err


def test_cli_suite_runs(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["suite", "flip", "quadratic-lift", "--out", str(out)]) == 0
    reports = read_json(out)
    assert [r["name"] for r in reports] == ["flip", "quadratic-lift"]
    assert all(r["passed"] for r in reports)
    assert all("elapsed" not in r for r in reports)
    human = tmp_path / "suite.txt"
    assert main(["suite", "cylindrical", "--human", "--out", str(human)]) == 0
    assert "all 1 suites passed" in human.read_text(encoding="utf-8")


_ALGEBRA = {"dim": 1, "names": ["a"], "c": [[["0"]]]}


@pytest.mark.parametrize("command, text", [
    ("build", ""),
    ("build", "{"),
    ("build", '{"names": ["a"]}'),
    ("build", json.dumps({**_ALGEBRA, "dim": "two"})),
    ("build", "[]"),
    ("build", "[" * 100000 + "]" * 100000),
    ("lift-rep", "{"),
    ("lift-rep", json.dumps({"algebra": _ALGEBRA, "space_dim": 1})),
    ("lift-rep", "[]"),
], ids=["empty", "truncated", "missing-key", "string-dim", "array", "too-deep",
        "rep-truncated", "rep-missing-key", "rep-array"])
def test_cli_malformed_json_is_a_structural_error(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    flag = "--algebra" if command == "build" else "--rep"
    assert main([command, flag, str(path), "--level", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe\x00"),
], ids=["directory", "not-utf8"])
def test_cli_unreadable_file_is_a_structural_error(tmp_path, capsys, make):
    path = tmp_path / "in.json"
    make(path)
    assert main(["build", "--algebra", str(path), "--level", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "so_n", "--n", "3", "--level", "1"],
    ["suite", "quadratic-lift", "--human"],
], ids=["json", "human"])
def test_cli_unwritable_out_is_a_structural_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path}")


def renamed_block_files(tmp_path, name):
    """rep.json and field.json of a generated so(3) level-1 instance, block f0 renamed.

    ``name`` is spliced into the JSON text, so a ``\\ud800`` in it is read as
    a lone surrogate.
    """
    inst = generate_instance("so_n", 1, seed=5, n=3)
    text = json.dumps(jsonio.field_to_json(inst.field)).replace('"f0', '"' + name)
    field = tmp_path / "field.json"
    field.write_text(text, encoding="utf-8")
    return (write_json(tmp_path / "rep.json", jsonio.representation_to_json(inst.rep)),
            str(field))


def cli_env(**extra):
    """The environment of a ``python -m takiff.cli`` child that imports this takiff."""
    src = str(Path(takiff.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


SURROGATE_ERROR = "error: cannot encode the output as UTF-8: '\\ud800' (surrogates not allowed)\n"


@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["absent", "present"])
def test_cli_output_that_is_not_utf8_is_a_structural_error(tmp_path, capsys, existing):
    """A lone surrogate in a block name reaches the output: exit 1, --out untouched."""
    rep, field = renamed_block_files(tmp_path, "\\ud800f0")
    argv = ["decompose", "--rep", rep, "--level", "1", "--field", field]
    out = tmp_path / "out.json"
    if existing is not None:
        out.write_text(existing, encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", SURROGATE_ERROR)
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == existing
    assert main(argv) == 1
    assert capsys.readouterr() == ("", SURROGATE_ERROR)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_cli_stdout_carries_the_utf8_bytes_of_out_whatever_the_locale(tmp_path, encoding):
    rep, field = renamed_block_files(tmp_path, "\u03c60")
    argv = [sys.executable, "-m", "takiff.cli", "decompose", "--rep", rep,
            "--level", "1", "--field", field]
    env = cli_env(PYTHONIOENCODING=encoding)
    printed = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    out = tmp_path / "out.json"
    written = subprocess.run(argv + ["--out", str(out)], capture_output=True,
                             env=env, timeout=120)
    assert (printed.returncode, printed.stderr) == (0, b"")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert printed.stdout == out.read_bytes()
    assert '"\u03c60.0"' in printed.stdout.decode("utf-8")


def test_cli_closed_stdout_exits_cleanly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left, so the first write breaks the pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "takiff.cli", "generate", "--kind", "so_n",
             "--n", "3", "--level", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_cli_generate_without_required_parameter(capsys):
    assert main(["generate", "--kind", "so_n", "--level", "1"]) == 1
    assert "needs parameter 'n'" in capsys.readouterr().err


def test_cli_unknown_suite_and_missing_file(tmp_path, capsys):
    assert main(["suite", "no-such-suite"]) == 1
    assert "unknown suite" in capsys.readouterr().err
    assert main(["build", "--algebra", str(tmp_path / "missing.json"),
                 "--level", "1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--algebra", "g.json", "--level", "1"],
    ["lift-rep", "--rep", "rep.json", "--level", "1"],
    ["lift-invariant", "--rep", "rep.json", "--phi", "q.json", "--level", "1"],
    ["generate", "--kind", "so_n", "--n", "3", "--level", "1"],
], ids=lambda argv: argv[0])
def test_cli_human_is_refused_where_it_would_do_nothing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--human"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --human" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-invariant", "--rep", "rep.json", "--phi", "q.json"],
    ["tangency", "--rep", "rep.json", "--field", "f.json", "--points", "p.json"],
    ["decompose", "--rep", "rep.json", "--level", "1", "--field", "f.json"],
    ["verify", "--rep", "rep.json", "--level", "1", "--field", "f.json", "--dec", "d.json"],
    ["verify-flip", "--algebra", "g.json", "--level", "1"],
    ["suite"],
], ids=lambda argv: argv[0])
def test_cli_human_is_accepted_where_it_changes_the_output(argv):
    assert _parser().parse_args(argv + ["--human"]).human is True
    assert _parser().parse_args(argv).human is False


def test_cli_builds_its_parser_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    _parser.cache_clear()
    out = tmp_path / "so4.json"
    assert main(["generate", "--kind", "so_n", "--n", "4", "--level", "0",
                 "--out", str(out)]) == 0
    assert main(["generate", "--kind", "so_n", "--level", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constructor kind 'so_n' needs parameter 'n'\n"
    assert _parser.cache_info().misses == 1


# -- mutated documents through the command line ---------------------------------

def json_sites(node, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_sites(child, path + (key,))


def is_scalar_text(value):
    try:
        Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return isinstance(value, str)


def document_mutations(doc):
    """Edits that each leave ``doc`` malformed.

    Deleting a whole term or one variable of a monomial leaves a well-formed
    polynomial, and a basis or block name may be any string, so those edits
    are not made.
    """
    out = []
    for path, value in json_sites(doc):
        in_monomial = path[-2:-1] == ("exps",)
        if path and not in_monomial and not (isinstance(value, dict) and "coeff" in value):
            out.append(("delete", path, None))
        out.extend(("set", path, other) for other in (1.5, True, False))
        if (isinstance(value, int) and not isinstance(value, bool)) or is_scalar_text(value):
            # 5,000 digits: past the interpreter's limit on int/str conversion
            out.extend(("set", path, other) for other in ("1/0", "", "9" * 5000))
        if in_monomial:
            block, _, index = path[-1].rpartition(".")
            out.extend(("rename", path, key) for key in (
                f"{block}.99", "nope.0", f"{block}.\u00b2", f"{block}.0{index}"))
    return out


def mutated(doc, mutation):
    kind, path, new = mutation
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    holder = doc
    for key in outer:
        holder = holder[key]
    if kind == "delete":
        del holder[last]
    elif kind == "set":
        holder[last] = new
    else:
        holder[new] = holder.pop(last)
    return doc


@pytest.fixture(scope="module")
def so3_documents(tmp_path_factory):
    """The rep, field and decomposition of a generated so(3) level-1 instance."""
    inst = generate_instance("so_n", 1, seed=5, n=3)
    dec = takiff_decompose(inst.lifted, builtin_solver(inst.rep), inst.field)
    docs = {"rep": jsonio.representation_to_json(inst.rep),
            "field": jsonio.field_to_json(inst.field),
            "dec": jsonio.decomposition_to_json(dec)}
    root = tmp_path_factory.mktemp("so3")
    paths = {name: write_json(root / f"{name}.json", doc) for name, doc in docs.items()}
    return root, docs, paths, {name: document_mutations(doc) for name, doc in docs.items()}


CLI_DOCUMENTS = {"decompose": ("rep", "field"), "verify": ("rep", "field", "dec")}


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_cli_mutated_document_is_an_error(so3_documents, data):
    root, docs, paths, mutations = so3_documents
    command = data.draw(st.sampled_from(sorted(CLI_DOCUMENTS)), label="command")
    target = data.draw(st.sampled_from(CLI_DOCUMENTS[command]), label="document")
    mutation = data.draw(st.sampled_from(mutations[target]), label="mutation")
    files = dict(paths, **{target: write_json(root / "mutated.json",
                                               mutated(docs[target], mutation))})
    argv = [command, "--rep", files["rep"], "--level", "1", "--field", files["field"]]
    if command == "verify":
        argv += ["--dec", files["dec"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()
