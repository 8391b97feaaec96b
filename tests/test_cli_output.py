"""What the command line writes in plain text, and how it fails.

The ``--human`` text of every subcommand that has it is pinned by sha256, as
``tests/test_cli_bytes.py`` pins the JSON documents. The rest of the file
holds the exit-code policy of ``cli.main``: an internal-consistency failure
exits 3 from any subcommand, a file that cannot be read exits 1 with
``error: cannot read ...``, and numbers past the interpreter's limit on
int/str conversion are errors on read and on write.
"""

import hashlib
import json
import re
import sys

import pytest

from takiff import cli, jsonio, suites
from takiff import matrices as mx
from takiff.cli import main
from takiff.errors import InternalConsistencyError, StructuralError
from takiff.invariants import quadratic_invariant
from takiff.lie import make_standard
from takiff.poly import STATE, Polynomial, Ring, VariableBlock, VectorField

from test_cli_bytes import (
    _check_invariant_at_a_level,
    _check_invariant_fails,
    _generate,
    _so3_with_an_invariant,
    _tangency,
    _verify_flip,
    _verify_mismatch,
    _write,
)


def _check_invariant_holds(tmp_path):
    rep, q = _so3_with_an_invariant(tmp_path)
    return ["check-invariant", "--rep", rep, "--phi", q], 0


def _generated_so3(tmp_path, level, seed):
    """rep.json and field.json of a generated so(3) instance, and the field itself."""
    _, payload = _generate(tmp_path, "so_n", 3, level, seed)
    return (_write(tmp_path / "rep.json", payload["representation"]),
            _write(tmp_path / "field.json", payload["field"]),
            jsonio.field_from_json(payload["field"]))


def _decompose(tmp_path):
    rep, field, _ = _generated_so3(tmp_path, 2, 12)
    return ["decompose", "--rep", rep, "--level", "2", "--field", field], 0


def _decompose_refused(tmp_path):
    """f_2 += f_0 on a generated so(3), m=2 field: the level-2 base solve refuses it."""
    rep, _, fld = _generated_so3(tmp_path, 2, 14)
    n, comps = fld.block_size, list(fld.components)
    for i in range(n):
        comps[2 * n + i] = comps[2 * n + i] + Polynomial.variable(fld.ring, ("f0", i))
    field = _write(tmp_path / "perturbed.json",
                   jsonio.field_to_json(VectorField(fld.ring, tuple(comps))))
    return ["decompose", "--rep", rep, "--level", "2", "--field", field], 2


def _verify_verified(tmp_path):
    rep, field, _ = _generated_so3(tmp_path, 1, 11)
    decomposed = tmp_path / "decomposed.json"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--out", str(decomposed)]) == 0
    dec = _write(tmp_path / "dec.json",
                 json.loads(decomposed.read_text(encoding="utf-8"))["decomposition"])
    return ["verify", "--rep", rep, "--level", "1", "--field", field, "--dec", dec], 0


# name -> (argv and exit code of a command with --human, sha256 of its text)
HUMAN_SHA256 = {
    "check-invariant-holds": (_check_invariant_holds,
        "6e12c7dfa08efa46a146a1f2363a0d90f289cf36f989160c1d961f2ff90d77ab"),
    "check-invariant-fails": (_check_invariant_fails,
        "d36e9858837a506d5794c7d03820445247c0ce370e10f52d993699f280ea7ef7"),
    "check-invariant-level": (_check_invariant_at_a_level,
        "899d6ee78357f15eef8164d3b123a9348d2ce3ad254447b41496944054b0c31a"),
    "tangency": (_tangency,
        "68f5f43b111d9bca997ec4018f400bde23a10f493a4e60f2f3b225a66969381d"),
    "decompose": (_decompose,
        "6c78e7b01617415428ffdaf5f80ff0cdc435c13dd6998c695a01c867e0b422c0"),
    "decompose-refused": (_decompose_refused,
        "0743a2821695eb82e4a9bdc3768b4304ab8d662fddfa269e1c47c74d86d07706"),
    "verify-verified": (_verify_verified,
        "672eb8316fec83f94119a4193f9fc552513d56a147502f8be4830e017d817831"),
    "verify-mismatch": (_verify_mismatch,
        "cce23d61dadd01d58f0597a2bc0e04c41547e0b6c222747de62ec400ceafaacb"),
    "verify-flip-sl2-m2": (_verify_flip("sl2", 2),
        "14585f6b8fa4f8a367088e38e817d6587ecb1a7d483d73ce7057fe27052be27a"),
    "verify-flip-so3-m3": (_verify_flip("so_n", 3),
        "254404ed2f2d488715f85dce99d1dab63c0af17a63e86af543d28b259a63a51b"),
}


@pytest.mark.parametrize("name", list(HUMAN_SHA256))
def test_cli_human_text_bytes(tmp_path, name):
    make_argv, digest = HUMAN_SHA256[name]
    argv, code = make_argv(tmp_path)
    out = tmp_path / "out.txt"
    assert main(argv + ["--human", "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("make_argv", [_decompose, _decompose_refused],
                         ids=["decomposed", "refused"])
def test_cli_json_output_formats_no_polynomial_as_text(tmp_path, monkeypatch, make_argv):
    """The --human lines are lazy: JSON output never calls ``str`` on a polynomial."""
    argv, code = make_argv(tmp_path)

    def unexpected(self):
        raise AssertionError("a polynomial was formatted as text")

    monkeypatch.setattr(Polynomial, "__str__", unexpected)
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == code


# the summary of every suite at seed 2026, each "(0.12s)" read as "(…s)"
SUITE_HUMAN_SHA256 = "b56b7378edaa9f28cee059548478c39e47e21b4beafcf40b904bb867f73eca2b"


def test_cli_suite_human_text_bytes(tmp_path):
    out = tmp_path / "suite.txt"
    assert main(["suite", "--seed", "2026", "--human", "--out", str(out)]) == 0
    text = re.sub(r"\(\d+\.\d\ds\)", "(…s)", out.read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SUITE_HUMAN_SHA256


# -- exit codes ------------------------------------------------------------------

def test_cli_suite_exits_3_on_an_internal_consistency_failure(capsys, monkeypatch):
    def broken(phi_k, k):
        raise InternalConsistencyError(f"planted failure at k = {k}")

    monkeypatch.setattr(suites, "extract_linear_part", broken)
    assert main(["suite", "linearity"]) == 3
    assert capsys.readouterr() == ("", "internal consistency failure: planted failure at k = 1\n")


def test_cli_missing_file_is_a_structural_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["lift-rep", "--rep", str(missing), "--level", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# -- numbers past the interpreter's int/str digit limit ---------------------------

def _one_error_line(capsys):
    """The one ``error:`` line of a refused command, which names the digit limit."""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    return err


def _so3_rep(tmp_path):
    _, rho = make_standard("so_n", n=3)
    return _write(tmp_path / "rep.json", jsonio.representation_to_json(rho))


def test_cli_refuses_a_json_integer_past_the_digit_limit(tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text('{"a": ' + "9" * 5000 + "}", encoding="utf-8")
    assert main(["decompose", "--rep", _so3_rep(tmp_path), "--level", "1",
                 "--field", str(field)]) == 1
    _one_error_line(capsys)


def _field_with_coefficient(tmp_path, coeff):
    """The so(3) field coeff * f0.0 e_0 over the one block f0."""
    ring = Ring.of(VariableBlock("f0", 3, STATE))
    doc = jsonio.field_to_json(VectorField(ring, (
        Polynomial.variable(ring, ("f0", 0)), Polynomial.zero(ring), Polynomial.zero(ring))))
    doc["components"][0][0]["coeff"] = coeff
    return _write(tmp_path / "field.json", doc)


def test_cli_refuses_a_coefficient_string_past_the_digit_limit(tmp_path, capsys):
    field = _field_with_coefficient(tmp_path, "7" * 5000)
    assert main(["decompose", "--rep", _so3_rep(tmp_path), "--level", "0",
                 "--field", field]) == 1
    err = _one_error_line(capsys)
    assert "not a rational scalar" not in err


def test_cli_reads_and_writes_a_fraction_of_4000_digits_over_4000(tmp_path, capsys):
    coeff = f"{7 * 10 ** 3999 + 1}/{3 * 10 ** 3999 + 2}"  # in lowest terms
    rep, _ = _so3_with_an_invariant(tmp_path)
    ring = Ring.of(VariableBlock("x", 3, STATE))
    q = quadratic_invariant(mx.identity(3), ring) * 2 * mx.scalar(coeff)
    phi = _write(tmp_path / "phi.json", jsonio.polynomial_to_json(q))
    assert main(["check-invariant", "--rep", rep, "--phi", phi, "--human"]) == 0
    assert capsys.readouterr() == ("invariant\n", "")
    out = tmp_path / "lifted.json"
    assert main(["lift-invariant", "--rep", rep, "--phi", phi, "--level", "1",
                 "--out", str(out)]) == 0
    lifted = json.loads(out.read_text(encoding="utf-8"))
    assert [t["coeff"] for t in lifted[0]["terms"]] == [coeff] * 3


@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["absent", "present"])
def test_cli_refuses_to_write_a_witness_past_the_digit_limit(tmp_path, capsys, human,
                                                              existing):
    """(-x0^2 x1, x0^3, 0) at (7...7, 7...7, 1), 2,500 digits a coordinate:
    the witness of the so(3) rotation has about 5,000 digits."""
    ring = Ring.of(VariableBlock("f0", 3, STATE))
    x0, x1 = (Polynomial.variable(ring, ("f0", i)) for i in range(2))
    field = _write(tmp_path / "field.json", jsonio.field_to_json(
        VectorField(ring, (-x0 * x0 * x1, x0 ** 3, Polynomial.zero(ring)))))
    big = "7" * 2500
    points = _write(tmp_path / "points.json", {"points": [[big, big, "1"]]})
    out = tmp_path / "out"
    if existing is not None:
        out.write_text(existing, encoding="utf-8")
    argv = ["tangency", "--rep", _so3_rep(tmp_path), "--field", field,
            "--points", points] + (["--human"] if human else [])
    assert main(argv + ["--out", str(out)]) == 1
    _one_error_line(capsys)
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == existing
    assert main(argv) == 1
    _one_error_line(capsys)


def test_emit_refuses_human_text_past_the_digit_limit(tmp_path):
    """The --human lines are formatted as they are written; --out stays untouched."""
    out = tmp_path / "out.txt"
    out.write_text("kept\n", encoding="utf-8")
    lines = (f"b = {v}" for v in (1, 10 ** (sys.get_int_max_str_digits() + 1)))
    with pytest.raises(StructuralError, match="cannot write a number of more than"):
        cli._emit(lines, str(out), human=True)
    assert out.read_text(encoding="utf-8") == "kept\n"
