"""A lift is its base representation and its level: g_m and rho_m are derived
on first read, valid by construction, and every entry point bounds the level
before it allocates."""

import json
import re

import pytest

from takiff import jsonio, lie, randgen, takiff_algebra
from takiff import matrices as mx
from takiff.cli import main
from takiff.errors import StructuralError
from takiff.invariants import quadratic_invariant
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
from takiff.poly import STATE, Ring, VariableBlock
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


def _instance_files(tmp_path, level: int) -> dict[str, str]:
    """generate, decompose and a quadratic invariant for so(3) at ``level``, as files."""
    gen = tmp_path / "inst.json"
    assert main(["generate", "--kind", "so_n", "--n", "3", "--level", str(level),
                 "--seed", "5", "--out", str(gen)]) == 0
    payload = json.loads(gen.read_text(encoding="utf-8"))
    files = {"rep": _write(tmp_path / "rep.json", payload["representation"]),
             "field": _write(tmp_path / "field.json", payload["field"]),
             "algebra": _write(tmp_path / "g.json", payload["algebra"])}
    out = tmp_path / "out.json"
    assert main(["decompose", "--rep", files["rep"], "--level", str(level),
                 "--field", files["field"], "--out", str(out)]) == 0
    dec = json.loads(out.read_text(encoding="utf-8"))["decomposition"]
    files["dec"] = _write(tmp_path / "dec.json", dec)
    q = quadratic_invariant(mx.identity(3), Ring.of(VariableBlock("x", 3, STATE)))
    files["phi"] = _write(tmp_path / "q.json", jsonio.polynomial_to_json(q))
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
    }[command]


@pytest.mark.parametrize("m", [1, 2])
def test_cli_builds_no_g_m_to_decompose_verify_or_generate(tmp_path, monkeypatch, capsys, m):
    files = _instance_files(tmp_path, m)
    capsys.readouterr()
    levels = _count_build_takiff(monkeypatch)
    for command in ("generate", "decompose", "verify", "lift-invariant"):
        build_lift.cache_clear()
        assert main(_argv(command, files, m)) == 0
        assert levels == [], command


@pytest.mark.parametrize("command", ["decompose", "verify", "lift-invariant", "generate"])
def test_cli_refuses_an_oversized_level_before_any_allocation(tmp_path, monkeypatch, capsys,
                                                              command):
    files = _instance_files(tmp_path, 1)
    capsys.readouterr()
    assert main(["build", "--algebra", files["algebra"], "--level", "40"]) == 1
    refusal = capsys.readouterr().err
    assert "structure constants" in refusal
    for name, module in (("_blocks", takiff_algebra), ("instance_ring", randgen),
                         ("random_coefficients", randgen)):
        monkeypatch.setattr(module, name, _unexpected)
    assert main(_argv(command, files, 40)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == refusal


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
