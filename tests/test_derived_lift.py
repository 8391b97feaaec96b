"""A lift is its base representation and its level: g_m and rho_m are derived
on first read, valid by construction, and every entry point bounds the level
before it allocates."""

import json
import re
import time

import pytest

from takiff import invariants, jsonio, lie, randgen, takiff_algebra
from takiff import matrices as mx
from takiff.cli import main
from takiff.errors import StructuralError
from takiff.decompose import Decomposition, field_from_coefficients
from takiff.invariants import lift_invariant, quadratic_invariant
from takiff.lie import (
    LieAlgebra,
    Representation,
    conjugate_representation,
    gl_n,
    make_standard,
    sl2,
    so_n,
    standard_dim,
)
from takiff.poly import STATE, Polynomial, Ring, VariableBlock, VectorField
from takiff.takiff_algebra import LiftedRepresentation, TakiffContext, build_lift

BASES = {"sl2": sl2, "so3": lambda: so_n(3), "so4": lambda: so_n(4), "gl2": lambda: gl_n(2)}


@pytest.mark.parametrize("make", BASES.values(), ids=BASES.keys())
@pytest.mark.parametrize("m", range(4))
def test_derived_lift_equals_the_built_one(make, m):
    _, rho = make()
    built = build_lift(rho, m)
    derived = LiftedRepresentation(rho, m)
    assert derived == built
    assert derived.space_dim == built.rep.space_dim == (m + 1) * rho.space_dim
    assert derived.context == built.context
    assert derived.rep == built.rep


def test_derived_lift_builds_on_first_read_only(monkeypatch):
    _, rho = so_n(3)
    lifted = LiftedRepresentation(rho, 2)
    levels = _count_build_takiff(monkeypatch)
    assert (lifted.level, lifted.block_size, lifted.space_dim) == (2, 3, 9)
    assert levels == []
    assert lifted.rep is lifted.rep and lifted.context is lifted.context
    assert levels == [2]


def _so4_signed_permutation():
    # e_0 -> -e_2, e_1 -> e_0, e_2 -> e_3, e_3 -> -e_1
    g, rho = so_n(4)
    theta = ((0, 1, 0, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 0, 1, 0))
    return g, conjugate_representation(rho, theta)


# (name, base, highest level)
ORACLE_GRID = [("so3", lambda: so_n(3), 4), ("so4", lambda: so_n(4), 3),
               ("sl2_adjoint", lambda: make_standard("sl2_adjoint"), 4),
               ("gl2", lambda: gl_n(2), 2),
               ("so4_signed_permutation", _so4_signed_permutation, 2)]


@pytest.mark.parametrize("make, m", [(make, m) for _, make, top in ORACLE_GRID
                                     for m in range(top + 1)],
                         ids=[f"{name}-m{m}" for name, _, top in ORACLE_GRID
                              for m in range(top + 1)])
def test_derived_lift_passes_the_validating_constructors(make, m):
    _, rho = make()
    build_lift.cache_clear()
    lifted = build_lift(rho, m)
    ctx = lifted.context
    assert LieAlgebra(ctx.algebra.names, ctx.algebra.c) == ctx.algebra
    assert Representation(ctx.algebra, lifted.rep.matrices) == lifted.rep


def test_a_context_refuses_an_oversized_level_before_any_block(monkeypatch):
    monkeypatch.setattr(takiff_algebra, "_blocks", _unexpected)
    g, _ = so_n(3)
    with pytest.raises(StructuralError, match="structure constants"):
        TakiffContext(g, 10 ** 9)


def test_a_cold_lift_runs_no_jacobi_or_homomorphism_check(monkeypatch):
    _, rho = so_n(4)
    calls = {"jacobi": 0, "homomorphism": 0}
    jacobi, defect = LieAlgebra._check_jacobi, lie.homomorphism_defect

    def counted_jacobi(self, nonzero):
        calls["jacobi"] += 1
        return jacobi(self, nonzero)

    def counted_defect(*args):
        calls["homomorphism"] += 1
        return defect(*args)

    monkeypatch.setattr(LieAlgebra, "_check_jacobi", counted_jacobi)
    monkeypatch.setattr(lie, "homomorphism_defect", counted_defect)
    build_lift.cache_clear()
    lifted = build_lift(rho, 3)
    assert lifted.rep.algebra is lifted.context.algebra
    assert calls == {"jacobi": 0, "homomorphism": 0}


# (kind, params, level): the base algebra when level is None, else its g_m
ADJOINT_GRID = [("so_n", {"n": 2}, None), ("so_n", {"n": 4}, None),
                ("so_pq", {"p": 2, "q": 1}, None), ("gl_n", {"n": 2}, None),
                ("abelian", {"dim": 2}, None),
                *(("sl2", {}, m) for m in range(3)), *(("so_n", {"n": 3}, m) for m in range(3))]


@pytest.mark.parametrize("kind, params, m", ADJOINT_GRID,
                         ids=["so2", "so4", "so21", "gl2", "abelian2", "sl2-m0", "sl2-m1",
                              "sl2-m2", "so3-m0", "so3-m1", "so3-m2"])
def test_adjoint_and_coadjoint_are_representations(kind, params, m):
    # adjoint_rep and coadjoint_rep build their Representation without the check
    g, _ = make_standard(kind, **params)
    if m is not None:
        g = takiff_algebra.build_takiff(g, m).algebra
    for rep in (lie.adjoint_rep(g), lie.coadjoint_rep(g)):
        rows = tuple(mx.sparse_rows(a) for a in rep.matrices)
        assert all(lie.homomorphism_defect(g, rows, i, j) is None
                   for i in range(g.dim) for j in range(g.dim))


@pytest.mark.parametrize("level", [1.5, True, "1"])
def test_a_level_that_is_not_an_int_is_refused(level):
    # a float level would otherwise give a silent space_dim of 7.5 for so(3)
    g, rho = so_n(3)
    with pytest.raises(StructuralError, match="level must be an int"):
        LiftedRepresentation(rho, level)
    with pytest.raises(StructuralError, match="level must be an int"):
        takiff_algebra.build_takiff(g, level)


def _unexpected(*_, **__):
    raise AssertionError("work started before the size bound was checked")


def _count_build_takiff(monkeypatch) -> list[int]:
    """Record the level of every build_takiff call, starting from an empty lift cache."""
    levels = []
    build = takiff_algebra.build_takiff

    def counted(base, m):
        levels.append(m)
        return build(base, m)

    monkeypatch.setattr(takiff_algebra, "build_takiff", counted)
    build_lift.cache_clear()
    return levels


def _write(path, payload) -> str:
    path.write_text(jsonio.dumps(payload), encoding="utf-8")
    return str(path)


def _instance_files(tmp_path, level: int, n: int = 3) -> dict[str, str]:
    """A Killing-combination field for so(n) at ``level``, its decomposition by
    the CLI and a quadratic invariant, as files.

    The field is built from randgen's parts, as ``generate`` builds it, so any
    level whose V_m fits a ring is allowed, past generate's bound on g_m too.
    """
    g, rho = so_n(n)
    ring = randgen.instance_ring(level, n, 1)
    coefficients = randgen.random_coefficients(
        randgen.SplitMix64(5), g.dim, level + 1, ring, 2, 3)
    field = field_from_coefficients(LiftedRepresentation(rho, level), ring, coefficients)
    files = {"rep": _write(tmp_path / "rep.json", jsonio.representation_to_json(rho)),
             "field": _write(tmp_path / "field.json", jsonio.field_to_json(field)),
             "algebra": _write(tmp_path / "g.json", jsonio.algebra_to_json(g))}
    out = tmp_path / "out.json"
    assert main(["decompose", "--rep", files["rep"], "--level", str(level),
                 "--field", files["field"], "--out", str(out)]) == 0
    dec = json.loads(out.read_text(encoding="utf-8"))["decomposition"]
    files["dec"] = _write(tmp_path / "dec.json", dec)
    q = quadratic_invariant(mx.identity(n), Ring.of(VariableBlock("x", n, STATE)))
    files["phi"] = _write(tmp_path / "q.json", jsonio.polynomial_to_json(q))
    files["phi_m"] = _write(tmp_path / "q_m.json", jsonio.polynomial_to_json(
        lift_invariant(LiftedRepresentation(rho, level), q)[level]))
    return files


def _argv(command: str, files: dict[str, str], level: int) -> list[str]:
    level = str(level)
    return {
        "generate": ["generate", "--kind", "so_n", "--n", "3", "--level", level],
        "decompose": ["decompose", "--rep", files["rep"], "--level", level,
                      "--field", files["field"]],
        "verify": ["verify", "--rep", files["rep"], "--level", level,
                   "--field", files["field"], "--dec", files["dec"]],
        "lift-invariant": ["lift-invariant", "--rep", files["rep"], "--phi", files["phi"],
                           "--level", level],
        "check-invariant": ["check-invariant", "--rep", files["rep"], "--phi", files["phi_m"],
                            "--level", level],
    }[command]


@pytest.mark.parametrize("m", [1, 2])
def test_cli_builds_no_g_m_to_decompose_verify_or_generate(tmp_path, monkeypatch, capsys, m):
    files = _instance_files(tmp_path, m)
    capsys.readouterr()
    levels = _count_build_takiff(monkeypatch)
    for command in ("generate", "decompose", "verify", "lift-invariant", "check-invariant"):
        build_lift.cache_clear()
        assert main(_argv(command, files, m)) == 0
        assert levels == [], command


def test_check_invariant_refuses_an_oversized_level_as_build_does(tmp_path, monkeypatch,
                                                                  capsys):
    # its (m + 1) dim g Killing operators are bounded as g_m is, before any block
    files = _instance_files(tmp_path, 40)
    assert main(["build", "--algebra", files["algebra"], "--level", "40"]) == 1
    refusal = capsys.readouterr().err
    assert "structure constants" in refusal
    monkeypatch.setattr(takiff_algebra, "_blocks", _unexpected)
    assert main(_argv("check-invariant", files, 40)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == refusal


def test_the_cylindrical_check_builds_no_g_m(monkeypatch):
    _, rho = so_n(3)
    q = quadratic_invariant(mx.identity(3), Ring.of(VariableBlock("x", 3, STATE)))
    phis = lift_invariant(LiftedRepresentation(rho, 1), q)
    levels = _count_build_takiff(monkeypatch)
    monkeypatch.setattr(takiff_algebra, "_blocks", _unexpected)
    lifted = LiftedRepresentation(rho, 2)
    f1 = Polynomial.variable(phis[0].ring, ("f1", 0))
    assert invariants.cylindrical_invariance_check(lifted, phis[0] * phis[1]) == (True, True)
    assert invariants.cylindrical_invariance_check(lifted, f1) == (False, False)
    # the level-m operators keep the bound of g_m
    top = LiftedRepresentation(rho, 40)
    theta = Polynomial.zero(Ring(invariants.default_lift_blocks(39, 3)))
    with pytest.raises(StructuralError, match="structure constants"):
        invariants.cylindrical_invariance_check(top, theta)
    assert levels == []


@pytest.mark.parametrize("command", ["decompose", "verify", "lift-invariant", "generate"])
def test_cli_refuses_an_oversized_level_before_any_allocation(tmp_path, monkeypatch, capsys,
                                                              command):
    files = _instance_files(tmp_path, 40)
    capsys.readouterr()
    monkeypatch.setattr(takiff_algebra, "_blocks", _unexpected)
    if command == "generate":
        # generate writes a field from the base algebra, so g_m bounds its level
        assert main(["build", "--algebra", files["algebra"], "--level", "40"]) == 1
        refusal = capsys.readouterr().err
        assert "structure constants" in refusal
        level = 40
    else:
        # the other three act on V_m alone: level 40 of so(3) runs without g_m,
        # and a V_m past MAX_VARIABLES coordinates (level 3333) is refused
        assert main(_argv(command, files, 40)) == 0
        capsys.readouterr()
        refusal = ("error: level 3333 of a 3-dimensional representation has 10002 "
                   "coordinates, more than MAX_VARIABLES = 10000\n")
        level = 3333
    for name, module in (("default_lift_blocks", invariants), ("instance_ring", randgen),
                         ("random_coefficients", randgen)):
        monkeypatch.setattr(module, name, _unexpected)
    assert main(_argv(command, files, level)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == refusal


@pytest.mark.parametrize("n, level", [(15, 0), (3, 40)], ids=["so15-m0", "so3-m40"])
def test_cli_decomposes_and_verifies_past_the_g_m_bound(tmp_path, monkeypatch, capsys,
                                                        n, level):
    # dim g_m is 105 and 123: build refuses both, and decompose and verify build no g_m
    files = _instance_files(tmp_path, level, n)
    capsys.readouterr()
    monkeypatch.setattr(takiff_algebra, "_blocks", _unexpected)
    assert main(["build", "--algebra", files["algebra"], "--level", str(level)]) == 1
    assert "structure constants" in capsys.readouterr().err
    assert main(_argv("decompose", files, level)) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
    assert main(_argv("verify", files, level)) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_cli_refuses_to_repeat_a_ring_past_the_curve_term_bound(tmp_path, capsys):
    # each written polynomial carries its ring: x0 at m = 9999 would write
    # 10,000 rings of 10,000 blocks, and a wrong decomposition at so(3) m = 600
    # 1,202 residuals over a ring of 602 blocks
    _, rho = lie.abelian(1)
    x0 = Polynomial.variable(Ring.of(VariableBlock("x", 1, STATE)), ("x", 0))
    rep = _write(tmp_path / "a1.json", jsonio.representation_to_json(rho))
    phi = _write(tmp_path / "x0.json", jsonio.polynomial_to_json(x0))
    start = time.process_time()
    assert main(["lift-invariant", "--rep", rep, "--phi", phi, "--level", "9999"]) == 1
    assert time.process_time() - start < 0.1
    assert capsys.readouterr().err == (
        "error: 10000 curve coefficients over a ring of 10000 blocks would write "
        "100000000 ring entries, more than 500000\n")

    _, rho = so_n(3)
    ring = randgen.instance_ring(600, 3, 1)
    zero = Polynomial.zero(ring)
    one = Polynomial.constant(ring, 1)
    dec = Decomposition(ring, ((one, zero, zero),) + ((zero,) * 3,) * 600)
    rep = _write(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    field = _write(tmp_path / "field.json",
                   jsonio.field_to_json(VectorField(ring, (zero,) * 1803)))
    dec = _write(tmp_path / "dec.json", jsonio.decomposition_to_json(dec))
    assert main(["verify", "--rep", rep, "--level", "600", "--field", field,
                 "--dec", dec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: 1202 residuals over a ring of 602 blocks would write 723604 ring "
        "entries, more than 500000\n")


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_cli_refuses_a_field_of_another_shape_in_one_message(tmp_path, capsys, command):
    files = _instance_files(tmp_path, 1)
    for name in ("so4", "deep"):
        (tmp_path / name).mkdir()
    fields = ((_instance_files(tmp_path / "so4", 1, 4)["field"], "(level 1, block 4)"),
              (_instance_files(tmp_path / "deep", 2)["field"], "(level 2, block 3)"))
    capsys.readouterr()
    for field, shape in fields:
        assert main(_argv(command, dict(files, field=field), 1)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: field shape {shape} does not match the lift (level 1, block 3)\n")


def test_lift_invariant_lifts_a_linear_term_at_the_largest_level_in_time():
    # abelian(1) at m = 9999: V_m has 10,000 coordinates, and x0 lifts to f_k
    _, rho = lie.abelian(1)
    x0 = Polynomial.variable(Ring.of(VariableBlock("x", 1, STATE)), ("x", 0))
    start = time.process_time()
    phis = lift_invariant(LiftedRepresentation(rho, 9999), x0)
    assert time.process_time() - start < 2.0
    assert len(phis) == 10_000
    for k in (0, 1, 5000, 9999):
        assert phis[k] == Polynomial.variable(phis[k].ring, (f"f{k}", 0))


@pytest.mark.parametrize("power", [2, 6])
def test_lift_invariant_refuses_a_power_at_the_largest_level_at_once(power):
    _, rho = lie.abelian(1)
    x0 = Polynomial.variable(Ring.of(VariableBlock("x", 1, STATE)), ("x", 0))
    lifted = LiftedRepresentation(rho, 9999)
    start = time.process_time()
    with pytest.raises(StructuralError, match="to level 9999 hold more than 500000 terms"):
        lift_invariant(lifted, x0 ** power)
    assert time.process_time() - start < 0.1


def test_lift_invariant_refuses_the_largest_power_at_the_largest_level():
    # the term count of x0^32767 at m = 9999 stops once it passes the bound,
    # after two part sizes of the partition count, not 9999
    _, rho = lie.abelian(1)
    x0 = Polynomial.variable(Ring.of(VariableBlock("x", 1, STATE)), ("x", 0))
    with pytest.raises(StructuralError, match="to level 9999 hold more than 500000 terms"):
        lift_invariant(LiftedRepresentation(rho, 9999), x0 ** 32767)


def test_lift_invariant_refuses_a_product_past_the_bound_at_once():
    # any product of two variables writes >= (m+1)(m+2)/2 terms: 501,501 at m = 1000
    _, rho = lie.abelian(2)
    ring = Ring.of(VariableBlock("x", 2, STATE))
    phi = Polynomial.variable(ring, ("x", 0)) * Polynomial.variable(ring, ("x", 1))
    start = time.process_time()
    with pytest.raises(StructuralError, match="to level 1000 hold more than 500000 terms"):
        lift_invariant(LiftedRepresentation(rho, 1000), phi)
    assert time.process_time() - start < 0.1


def test_lift_invariant_refuses_an_oversized_expansion_at_once(tmp_path, capsys):
    # x0^12 at level 99 over abelian(1) would write 179,249,789 terms
    _, rho = lie.abelian(1)
    rep = _write(tmp_path / "rep.json", jsonio.representation_to_json(rho))
    x0 = Polynomial.variable(Ring.of(VariableBlock("x", 1, STATE)), ("x", 0))
    phi = _write(tmp_path / "phi.json", jsonio.polynomial_to_json(x0 ** 12))
    start = time.process_time()
    assert main(["lift-invariant", "--rep", rep, "--phi", phi, "--level", "99"]) == 1
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the curve coefficients of phi to level 99 hold more "
                            "than 500000 terms\n")


@pytest.mark.parametrize("flags", [["--kind", "so_n", "--n", "40"],
                                   ["--kind", "gl_n", "--n", "11"],
                                   ["--kind", "abelian", "--dim", str(10 ** 6)]],
                         ids=["so40", "gl11", "abelian1e6"])
def test_generate_bounds_the_base_algebra_before_building_it(flags, monkeypatch, capsys):
    monkeypatch.setattr(randgen, "make_standard", _unexpected)
    assert main(["generate", "--level", "0"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "structure constants" in captured.err


@pytest.mark.parametrize("kind, params", [
    ("so_n", {"n": 2}), ("so_n", {"n": 5}), ("so_pq", {"p": 1, "q": 2}),
    ("so_pq", {"p": 2, "q": 2}), ("sl2", {}), ("sl2_adjoint", {}), ("gl_n", {"n": 1}),
    ("gl_n", {"n": 3}), ("abelian", {"dim": 1}), ("abelian", {"dim": 4}),
])
def test_standard_dim_is_the_dimension_make_standard_builds(kind, params):
    assert standard_dim(kind, **params) == make_standard(kind, **params)[0].dim


@pytest.mark.parametrize("kind, params", [("so_n", {}), ("so_pq", {"p": 2}),
                                          ("gl_n", {}), ("abelian", {}), ("sp_n", {}),
                                          ("so_n", {"n": 3.7}), ("so_n", {"n": "3"}),
                                          ("so_n", {"n": True}), ("gl_n", {"n": 3.0})])
def test_standard_dim_refuses_as_make_standard_does(kind, params):
    with pytest.raises(StructuralError) as built:
        make_standard(kind, **params)
    with pytest.raises(StructuralError, match=re.escape(str(built.value))):
        standard_dim(kind, **params)
