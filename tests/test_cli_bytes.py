"""Byte identity of the command line: generate -> decompose -> verify.

Each case runs the three subcommands through ``cli.main`` with JSON files
and pins the sha256 of every output file. A change that keeps the exact
mathematics and the output format keeps these digests.
"""

import hashlib
import json

import pytest

from takiff import jsonio
from takiff import matrices as mx
from takiff.cli import main
from takiff.invariants import quadratic_invariant
from takiff.lie import LieAlgebra, make_standard
from takiff.poly import PARAMETER, STATE, Polynomial, Ring, VariableBlock, VectorField


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path, payload) -> str:
    path.write_text(jsonio.dumps(payload), encoding="utf-8")
    return str(path)


def _generate(tmp_path, kind, n, level, seed, extra=()):
    out = tmp_path / "generated.json"
    argv = ["generate", "--kind", kind, "--level", str(level), "--seed", str(seed),
            "--out", str(out), *extra]
    if n is not None:
        argv += ["--n", str(n)]
    assert main(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    return out, payload


# (kind, n, level, seed, gram) -> sha256 of the generate and decompose outputs
PIPELINE_SHA256 = {
    ("so_n", 3, 1, 11, "identity"): (
        "0833d3a97112cf29230551627a8352426fd06b9e1ec8883ec47eebd9d7fd8d1d",
        "f2944a4f8e1524aa30c37c1e29639f54d9ddcfce03f0caeadfa33ace2f26b691"),
    ("so_n", 3, 2, 12, "identity"): (
        "331c769516e361462e9d15fdb64759a47a250b3651bc4a9dd1a827da7459d1b8",
        "43da5ccbfbaf0d57ff370307ecd8ffe28f4f7a1fb05cddd2759bf10a21151e34"),
    ("so_n", 3, 3, 13, "identity"): (
        "838612a58f60b5489497ba5c0cfe7012ed92adbc19beb5e02401c20fd41185fe",
        "4f6ccad247b378f71b571a9860ee6de1027f5fd9912caec8fc9e71749e9d8b25"),
    ("so_n", 4, 1, 21, "identity"): (
        "67f25ec23fa723fc6bc50639f6f396c107711407fd2902cdc78a1231f07a8ae9",
        "f0ea8f6dcf1a9231a2bb2bdc526f66c01f89f6010044c9ceda238dff5111163d"),
    ("so_n", 4, 2, 22, "identity"): (
        "671e8875eff2ae4be430092b71cb5aa97ee2507ae115d6ba21cfb20c4a4d242c",
        "83340da1a3b783cabf13f2804612d7560deb6ede3923a94496213a597d1c0292"),
    ("sl2_adjoint", None, 1, 31, "killing"): (
        "bd1c866f0fb69f73709eb230a3f60e4d2dfede111e48323beb4c4380ac19635a",
        "46567e5d9d68d2f2e4c99a3707c1866b6b78d9e12766f8f60ae800b0416fbbf9"),
    ("sl2_adjoint", None, 2, 32, "killing"): (
        "0a881ecccfed447628e46177ae773005f6ff86dba8eee6b30453c94da4145687",
        "7e870882e99d2b6a74fef3f9ea26161b0287ad0a5d458f0f2793f911cf317a42"),
    ("sl2_adjoint", None, 3, 33, "killing"): (
        "ef8bf94eea122ac744c83aae73e606a15ef56b327954037cf354bd5aec9c16bf",
        "2839d3fa8c4322d886874199bc849c1b1168335d4c4f7a82c7da8375b8746d5b"),
}

# every verify above prints {"passed": true, "residuals": []}
VERIFIED_SHA256 = "9a969291588d70d3b70d2e7c6aa735427ce79242bb3d54db1a6ffc26cf89edbc"


@pytest.mark.parametrize("case", list(PIPELINE_SHA256),
                         ids=lambda c: f"{c[0]}{c[1] or ''}-m{c[2]}")
def test_cli_pipeline_bytes(tmp_path, case):
    kind, n, level, seed, gram = case
    generated, payload = _generate(tmp_path, kind, n, level, seed)
    rep = _write(tmp_path / "rep.json", payload["representation"])
    field = _write(tmp_path / "field.json", payload["field"])
    decomposed = tmp_path / "decomposed.json"
    assert main(["decompose", "--rep", rep, "--level", str(level), "--field", field,
                 "--gram", gram, "--out", str(decomposed)]) == 0
    dec = _write(tmp_path / "dec.json",
                 json.loads(decomposed.read_text(encoding="utf-8"))["decomposition"])
    verified = tmp_path / "verified.json"
    assert main(["verify", "--rep", rep, "--level", str(level), "--field", field,
                 "--dec", dec, "--out", str(verified)]) == 0
    assert (_sha(generated), _sha(decomposed)) == PIPELINE_SHA256[case]
    assert _sha(verified) == VERIFIED_SHA256


GRAM_FILE_SHA256 = "2708e8182607b45218f03bdeb63822cd40f8fe0c7aa76fdc26eef20455afa28d"


def test_cli_decompose_bytes_with_a_gram_file(tmp_path):
    """so(2,1) at m = 2, decomposed with --gram FILE holding diag(1, 1, -1)."""
    _, payload = _generate(tmp_path, "so_pq", None, 2, 42, extra=("--p", "2", "--q", "1"))
    rep = _write(tmp_path / "rep.json", payload["representation"])
    field = _write(tmp_path / "field.json", payload["field"])
    gram = _write(tmp_path / "gram.json",
                  {"size": 3, "gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]})
    decomposed = tmp_path / "decomposed.json"
    assert main(["decompose", "--rep", rep, "--level", "2", "--field", field,
                 "--gram", gram, "--out", str(decomposed)]) == 0
    dec = _write(tmp_path / "dec.json",
                 json.loads(decomposed.read_text(encoding="utf-8"))["decomposition"])
    verified = tmp_path / "verified.json"
    assert main(["verify", "--rep", rep, "--level", "2", "--field", field,
                 "--dec", dec, "--out", str(verified)]) == 0
    assert _sha(decomposed) == GRAM_FILE_SHA256
    assert _sha(verified) == VERIFIED_SHA256


REFUSAL_SHA256 = "89d19043e5727793ddb4fd603b1f97062998d48ffa0cdf1875e1c0c1210c5c0d"


def test_cli_refusal_bytes(tmp_path):
    """f_2 += f_0 on a generated so(3), m=2 field: the level-2 base solve refuses it."""
    _, payload = _generate(tmp_path, "so_n", 3, 2, 14)
    fld = jsonio.field_from_json(payload["field"])
    n = fld.block_size
    f0 = fld.state_blocks[0].name
    comps = list(fld.components)
    for i in range(n):
        comps[2 * n + i] = comps[2 * n + i] + Polynomial.variable(fld.ring, (f0, i))
    perturbed = VectorField(fld.ring, tuple(comps))
    rep = _write(tmp_path / "rep.json", payload["representation"])
    field = _write(tmp_path / "field.json", jsonio.field_to_json(perturbed))
    refused = tmp_path / "refused.json"
    assert main(["decompose", "--rep", rep, "--level", "2", "--field", field,
                 "--out", str(refused)]) == 2
    assert json.loads(refused.read_text(encoding="utf-8"))["witness"] is not None
    assert _sha(refused) == REFUSAL_SHA256


def test_the_cli_writes_its_objects_with_no_to_json_call(tmp_path, monkeypatch):
    """generate, decompose, a refused decompose and verify hand ``jsonio.dumps`` the
    polynomials, fields and decompositions themselves, and keep their bytes."""
    calls = []

    def counted(name):
        real = getattr(jsonio, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("polynomial_to_json", "field_to_json", "decomposition_to_json"):
        monkeypatch.setattr(jsonio, name, counted(name))

    def run(argv, code):
        calls.clear()
        assert main(argv) == code
        assert calls == []

    generated = tmp_path / "generated.json"
    run(["generate", "--kind", "so_n", "--n", "3", "--level", "2", "--seed", "12",
         "--out", str(generated)], 0)
    payload = json.loads(generated.read_text(encoding="utf-8"))
    rep = _write(tmp_path / "rep.json", payload["representation"])
    field = _write(tmp_path / "field.json", payload["field"])
    decomposed = tmp_path / "decomposed.json"
    run(["decompose", "--rep", rep, "--level", "2", "--field", field,
         "--out", str(decomposed)], 0)
    dec = _write(tmp_path / "dec.json",
                 json.loads(decomposed.read_text(encoding="utf-8"))["decomposition"])
    verified = tmp_path / "verified.json"
    run(["verify", "--rep", rep, "--level", "2", "--field", field, "--dec", dec,
         "--out", str(verified)], 0)
    assert (_sha(generated), _sha(decomposed)) == PIPELINE_SHA256[("so_n", 3, 2, 12, "identity")]
    assert _sha(verified) == VERIFIED_SHA256

    _, payload = _generate(tmp_path, "so_n", 3, 2, 14)
    fld = jsonio.field_from_json(payload["field"])
    n = fld.block_size
    comps = list(fld.components)
    for i in range(n):
        comps[2 * n + i] += Polynomial.variable(fld.ring, (fld.state_blocks[0].name, i))
    perturbed = _write(tmp_path / "perturbed.json", VectorField(fld.ring, tuple(comps)))
    refused = tmp_path / "refused.json"
    run(["decompose", "--rep", _write(tmp_path / "rep14.json", payload["representation"]),
         "--level", "2", "--field", perturbed, "--out", str(refused)], 2)
    assert _sha(refused) == REFUSAL_SHA256


# (command, kind, level) -> sha256 of the printed g_m or rho_m
LIFT_SHA256 = {
    ("build", "sl2", 2):
        "f06d2ad06c62d3f2a93b6586f4c75b9c7c054f382cf0c23341c34676bac34e94",
    ("build", "so_n", 3):
        "97ce9034392b047393e89bab6c64a074d104b56ffa6fa616e6a1d6c651dbf101",
    ("lift-rep", "so_n", 2):
        "a34847ca7f602fa80224006dbdb1ad985baf701f7019f6b1e0196630478a5f63",
    ("lift-rep", "sl2_adjoint", 3):
        "1c5de7036f9b711c3cecc2101b24c51089046976fde372cd46afa7734f74ee30",
}


@pytest.mark.parametrize("case", list(LIFT_SHA256), ids=lambda c: f"{c[0]}-{c[1]}-m{c[2]}")
def test_cli_lift_bytes(tmp_path, case):
    command, kind, level = case
    g, rho = make_standard(kind, **({"n": 3} if kind == "so_n" else {}))
    if command == "build":
        flag, payload = "--algebra", jsonio.algebra_to_json(g)
    else:
        flag, payload = "--rep", jsonio.representation_to_json(rho)
    out = tmp_path / "lifted.json"
    assert main([command, flag, _write(tmp_path / "in.json", payload),
                 "--level", str(level), "--out", str(out)]) == 0
    assert _sha(out) == LIFT_SHA256[case]


# -- every other JSON document the command line writes ---------------------------

def _so3_with_an_invariant(tmp_path):
    """rep.json of so(3) and q.json of its invariant (x0^2 + x1^2 + x2^2) / 2."""
    _, rho = make_standard("so_n", n=3)
    ring = Ring.of(VariableBlock("x", 3, STATE))
    return (_write(tmp_path / "rep.json", jsonio.representation_to_json(rho)),
            _write(tmp_path / "q.json", jsonio.polynomial_to_json(
                quadratic_invariant(mx.identity(3), ring))))


def _build_with_quoted_names(tmp_path):
    """g_2 of sl2 with basis names that need escaping and a non-ASCII letter."""
    g, _ = make_standard("sl2")
    g = LieAlgebra(("h", "eé\"q", "f\\\t "), g.c)
    return ["build", "--algebra", _write(tmp_path / "g.json", jsonio.algebra_to_json(g)),
            "--level", "2"], 0


def _lift_invariant(tmp_path):
    rep, q = _so3_with_an_invariant(tmp_path)
    return ["lift-invariant", "--rep", rep, "--phi", q, "--level", "2"], 0


def _lift_invariant_any(tmp_path):
    rep, _ = _so3_with_an_invariant(tmp_path)
    ring = Ring.of(VariableBlock("x", 3, STATE))
    x0, x1 = (Polynomial.variable(ring, ("x", i)) for i in range(2))
    phi = _write(tmp_path / "phi.json", jsonio.polynomial_to_json(x0 * x0 * x1 - x1 / 3))
    return ["lift-invariant", "--rep", rep, "--phi", phi, "--level", "2", "--any"], 0


def _check_invariant_fails(tmp_path):
    rep, _ = _so3_with_an_invariant(tmp_path)
    ring = Ring.of(VariableBlock("x", 3, STATE))
    x0, x1, x2 = (Polynomial.variable(ring, ("x", i)) for i in range(3))
    phi = _write(tmp_path / "phi.json", jsonio.polynomial_to_json(x0 * x1 + x2 * x2 / 2))
    return ["check-invariant", "--rep", rep, "--phi", phi], 1


def _check_invariant_at_a_level(tmp_path):
    rep, _ = _so3_with_an_invariant(tmp_path)
    ring = Ring(tuple(VariableBlock(f"f{k}", 3, STATE) for k in range(2)))
    phi = _write(tmp_path / "phi.json", jsonio.polynomial_to_json(
        Polynomial.variable(ring, ("f0", 0)) * Polynomial.variable(ring, ("f1", 2))))
    return ["check-invariant", "--rep", rep, "--phi", phi, "--level", "1"], 1


def _tangency(tmp_path):
    """so(3) rotation field plus p times the radial one: tangent only where p v = 0."""
    rep, _ = _so3_with_an_invariant(tmp_path)
    ring = Ring((VariableBlock("f0", 3, STATE), VariableBlock("p", 1, PARAMETER)))
    f, p = ([Polynomial.variable(ring, ("f0", i)) for i in range(3)],
            Polynomial.variable(ring, ("p", 0)))
    comps = (f[1] + p * f[0], -f[0] + 2 * f[2] + p * f[1], -2 * f[1] + p * f[2])
    field = _write(tmp_path / "field.json",
                   jsonio.field_to_json(VectorField(ring, comps)))
    points = _write(tmp_path / "points.json", {
        "points": [["1", "0", "0"], ["1/2", "-3", "2"], ["1", "2", "3"], ["0", "0", "0"]],
        "parameters": [["0"], ["0"], ["7/2"], ["5"]]})
    return ["tangency", "--rep", rep, "--field", field, "--points", points], 0


def _verify_flip(algebra_kind, level):
    def argv(tmp_path):
        g, _ = make_standard(algebra_kind, **({"n": 3} if algebra_kind == "so_n" else {}))
        return ["verify-flip", "--algebra",
                _write(tmp_path / "g.json", jsonio.algebra_to_json(g)),
                "--level", str(level)], 0
    return argv


def _verify_mismatch(tmp_path):
    """A decomposition checked against its field with 1 added to a_0: residuals."""
    _, payload = _generate(tmp_path, "so_n", 3, 1, 11)
    rep = _write(tmp_path / "rep.json", payload["representation"])
    field = _write(tmp_path / "field.json", payload["field"])
    decomposed = tmp_path / "decomposed.json"
    assert main(["decompose", "--rep", rep, "--level", "1", "--field", field,
                 "--out", str(decomposed)]) == 0
    dec = _write(tmp_path / "dec.json",
                 json.loads(decomposed.read_text(encoding="utf-8"))["decomposition"])
    fld = jsonio.field_from_json(payload["field"])
    bent = _write(tmp_path / "bent.json", jsonio.field_to_json(VectorField(
        fld.ring, (fld.components[0] + 1,) + fld.components[1:])))
    return ["verify", "--rep", rep, "--level", "1", "--field", bent, "--dec", dec], 1


# name -> (argv and exit code of a command that writes JSON, sha256 of what it writes)
DOCUMENT_SHA256 = {
    "build-quoted-names": (_build_with_quoted_names,
        "41c898095862c033dfd96d4324a031c2b1ab7f59ff2f1717182df8aec2795190"),
    "lift-invariant": (_lift_invariant,
        "bd6715b18887dfd40a2687c077a75df4a3dc3662870d25ddbf083bbe9815a9d5"),
    "lift-invariant-any": (_lift_invariant_any,
        "3063aa86a5a60fb8eaa5747fda68dd7fd7b78f4a23bf3b0e8a07c9d8ed763dbd"),
    "check-invariant-fails": (_check_invariant_fails,
        "28441985b90dc7da6705136b29c31d7f23203288e79dc2719436e577438ec1fe"),
    "check-invariant-level": (_check_invariant_at_a_level,
        "eaad4a2de2002092c412a3d9c2ea3c251c489efde22feea94ef32b3ef06c739e"),
    "tangency": (_tangency,
        "12f835eb6a0ebc14da177e5e70431572ce45dabc315b9f7c3280a82528fde88e"),
    "verify-flip-sl2-m2": (_verify_flip("sl2", 2),
        "dfbd14955e12f1e162be6a0a9ff8fcd27535095c5a18780df336f79024a45302"),
    "verify-flip-so3-m3": (_verify_flip("so_n", 3),
        "c745d35f8a4a3e5aac73c73b5a0cb0e0868c852c619cc6fb8828457c4a1b62b3"),
    "verify-mismatch": (_verify_mismatch,
        "4bf23df2498e0d3f5e7e591a32a2c2d24a8daca8276010ffc5e86f2b59668ed7"),
}


@pytest.mark.parametrize("name", list(DOCUMENT_SHA256))
def test_cli_document_bytes(tmp_path, name):
    make_argv, digest = DOCUMENT_SHA256[name]
    argv, code = make_argv(tmp_path)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == code
    assert _sha(out) == digest
