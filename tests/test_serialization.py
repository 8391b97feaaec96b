"""JSON interchange, deterministic generation, and the command line."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import takiff
from takiff import jsonio, randgen
from takiff import matrices as mx
from takiff.cli import _parser, main
from takiff.decompose import (
    Decomposition,
    VectorField,
    annihilates_invariants,
    builtin_solver,
    takiff_decompose,
)
from takiff.errors import StructuralError, ValidationError
from takiff.invariants import lift_family, quadratic_invariant
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
    ring = Ring.of(VariableBlock("x", 1, STATE))
    # ".5" parses as the empty block name, which the ring then rejects
    for key in ("x", "x.", "x.one", ".5"):
        data = {"ring": jsonio.ring_to_json(ring),
                "terms": [{"coeff": "1", "exps": {key: 1}}]}
        with pytest.raises(StructuralError):
            jsonio.polynomial_from_json(data)


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
], ids=["float-coeff", "float-exponent", "bool-exponent", "bool-size"])
def test_inexact_or_truncated_json_rejected(reader, data):
    with pytest.raises(StructuralError):
        reader(data)


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


def test_cli_decompose_param_count_check(tmp_path, capsys):
    _, rho = so_n(2)
    rep = write_json(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    field = write_json(tmp_path / "field.json", radial_field_json(2, 0))
    assert main(["decompose", "--rep", rep, "--level", "0", "--field", field,
                 "--params", "2"]) == 1
    assert "parameter variables" in capsys.readouterr().err


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


def test_cli_closed_stdout_exits_cleanly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left, so the first write breaks the pipe
    src = str(Path(takiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "takiff.cli", "generate", "--kind", "so_n",
             "--n", "3", "--level", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
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
            out.extend(("set", path, other) for other in ("1/0", ""))
        if in_monomial:
            block = path[-1].rpartition(".")[0]
            out.extend(("rename", path, key) for key in (f"{block}.99", "nope.0"))
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
