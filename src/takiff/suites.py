"""Named property suites over seeded deterministic instances.

Each suite runs one family of exact checks (no tolerances anywhere) and
returns a Report; run_suite executes a selection in canonical order. Reports
serialize without timing so that equal configurations produce byte-identical
output; elapsed seconds live only on the in-memory object.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from . import jsonio
from . import matrices as mx
from .decompose import (
    _homotopy,
    annihilates_invariants,
    builtin_solver,
    takiff_decompose,
    transport_decomposition,
    transport_field,
    verify_decomposition,
)
from .errors import DecompositionRefused, StructuralError
from .invariants import (
    cylindrical_invariance_check,
    default_lift_blocks,
    extract_linear_part,
    faa_di_bruno_lift,
    killing_residuals,
    lift_family,
    lift_invariant,
    quadratic_invariant,
)
from .lie import (
    BilinearForm,
    LieAlgebra,
    Representation,
    conjugate_representation,
    homomorphism_defect,
    killing_form,
    make_standard,
)
from .poly import (
    PARAMETER,
    STATE,
    Monomial,
    Polynomial,
    Ring,
    VariableBlock,
    VectorField,
    matrix_apply,
)
from .randgen import (
    SplitMix64,
    generate_instance,
    random_antisymmetric,
    random_invertible,
    random_polynomial,
)
from .takiff_algebra import (LiftedRepresentation, build_lift, build_takiff,
                             lift_bilinear_form, verify_flip_identity)


@dataclass(frozen=True)
class Report:
    """Outcome of one suite: pass/fail, human detail lines, failure witnesses."""

    name: str
    passed: bool
    checks: int
    details: tuple[str, ...] = ()
    witnesses: tuple[dict, ...] = ()
    elapsed: float = 0.0

    def to_json(self) -> dict:
        # elapsed is deliberately absent: reports must be byte-deterministic
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "details": list(self.details),
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class RunConfig:
    """What to run and under which seed; equal configs give equal output."""

    seed: int = 2026
    suites: tuple[str, ...] = ()


def _poly_witness(kind: str, p: Polynomial, **extra) -> dict:
    out = {"kind": kind, "polynomial": jsonio.polynomial_to_json(p)}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# 1. Takiff validity
# ---------------------------------------------------------------------------

_ALGEBRA_GRID: tuple[tuple[str, dict], ...] = (
    ("sl2", {}),
    ("so_n", {"n": 3}),
    ("so_n", {"n": 4}),
    ("abelian", {"dim": 2}),
)

_LEVELS = (0, 1, 2, 3)


def _grid_label(kind: str, params: dict) -> str:
    inner = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{kind}({inner})" if inner else kind


def _jacobi_defect(g: LieAlgebra) -> tuple[int, tuple[int, int, int] | None]:
    """Exhaustive Jacobi check over all ordered basis triples.

    Returns (number of triples checked, first failing triple or None).
    """
    d = g.dim
    checked = 0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                total = [0] * d
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = g.c[a][b]
                    for t in range(d):
                        u = inner[t]
                        if not u:
                            continue
                        row = g.c[t][c]
                        for s in range(d):
                            if row[s]:
                                total[s] += u * row[s]
                checked += 1
                if any(total):
                    return checked, (i, j, k)
    return checked, None


def _antisymmetry_defect(g: LieAlgebra) -> tuple[int, tuple[int, int] | None]:
    d = g.dim
    checked = 0
    for i in range(d):
        for j in range(d):
            checked += 1
            if any(g.c[i][j][k] + g.c[j][i][k] for k in range(d)):
                return checked, (i, j)
    return checked, None


def suite_jacobi(seed: int) -> Report:
    del seed  # the grid is fixed
    checks = 0
    details = []
    witnesses = []
    for kind, params in _ALGEBRA_GRID:
        base, _ = make_standard(kind, **params)
        for m in _LEVELS:
            ctx = build_takiff(base, m)
            pairs, bad_pair = _antisymmetry_defect(ctx.algebra)
            triples, bad_triple = _jacobi_defect(ctx.algebra)
            checks += pairs + triples
            if bad_pair is not None:
                witnesses.append({"kind": "antisymmetry", "algebra": _grid_label(kind, params),
                                  "level": m, "pair": list(bad_pair)})
            if bad_triple is not None:
                witnesses.append({"kind": "jacobi", "algebra": _grid_label(kind, params),
                                  "level": m, "triple": list(bad_triple)})
        details.append(f"{_grid_label(kind, params)}: levels {min(_LEVELS)}..{max(_LEVELS)}")
    return Report("jacobi", not witnesses, checks, tuple(details), tuple(witnesses))


# ---------------------------------------------------------------------------
# 2. Lifted homomorphism law
# ---------------------------------------------------------------------------

def suite_homomorphism(seed: int) -> Report:
    del seed
    checks = 0
    details = []
    witnesses = []
    for kind, params in _ALGEBRA_GRID:
        _, rep = make_standard(kind, **params)
        for m in _LEVELS:
            lifted = build_lift(rep, m)
            g = lifted.context.algebra
            rows = tuple(mx.sparse_rows(mat) for mat in lifted.rep.matrices)
            for i in range(g.dim):
                for j in range(i + 1, g.dim):
                    checks += 1
                    if homomorphism_defect(g, rows, i, j) is not None:
                        witnesses.append({"kind": "homomorphism",
                                          "algebra": _grid_label(kind, params),
                                          "level": m, "pair": [i, j]})
        details.append(f"{_grid_label(kind, params)}: all basis pairs, m <= {max(_LEVELS)}")
    return Report("homomorphism", not witnesses, checks, tuple(details), tuple(witnesses))


# ---------------------------------------------------------------------------
# 3 and 4. Lifted invariants: invariance, support, linearity
# ---------------------------------------------------------------------------

def _invariant_grid() -> Iterator[tuple[str, Representation, mx.Matrix]]:
    for n in (2, 3, 4):
        _, rep = make_standard("so_n", n=n)
        yield f"so({n})+Q", rep, mx.identity(n)
    _, rep = make_standard("sl2_adjoint")
    yield "sl2-adjoint+Killing", rep, killing_form(rep.algebra).gram


def suite_invariance(seed: int) -> Report:
    del seed
    checks = 0
    details = []
    witnesses = []
    for label, rep, gram in _invariant_grid():
        n = rep.space_dim
        phi = quadratic_invariant(gram, Ring.of(VariableBlock("x", n, STATE)))
        for m in _LEVELS:
            phis = lift_invariant(LiftedRepresentation(rep, m), phi)
            for k, phi_k in enumerate(phis):
                for idx, residual in enumerate(killing_residuals(rep, phi_k)):
                    checks += 1
                    if not residual.is_zero():
                        witnesses.append(_poly_witness(
                            "not-invariant", residual,
                            case=label, level=m, coefficient=k, basis=idx))
        details.append(f"{label}: every Killing field kills every coefficient, m <= 3")
    return Report("invariance", not witnesses, checks, tuple(details), tuple(witnesses))


def suite_linearity(seed: int) -> Report:
    del seed
    checks = 0
    details = []
    witnesses = []
    for label, rep, gram in _invariant_grid():
        n = rep.space_dim
        source = Ring.of(VariableBlock("x", n, STATE))
        phi = quadratic_invariant(gram, source)
        for m in _LEVELS:
            lifted = LiftedRepresentation(rep, m)
            blocks = default_lift_blocks(m, n)
            ring = Ring(blocks)
            phis = lift_invariant(lifted, phi)
            for k, phi_k in enumerate(phis):
                for j in range(k + 1, m + 1):
                    checks += 1
                    if phi_k.block_degree(blocks[j].name) != 0:
                        witnesses.append(_poly_witness(
                            "support", phi_k, case=label, level=m,
                            coefficient=k, block=blocks[j].name))
                if k == 0:
                    continue  # coefficient 0 is phi(f_0), not affine in f_0
                linear, rest = extract_linear_part(phi_k, k)
                # d/df_0 of phi(f_0) is dphi at f_0; pair it with f_k
                into_f0 = {("x", i): Polynomial.variable(ring, (blocks[0].name, i))
                           for i in range(n)}
                expected = phi.substitute(into_f0, ring).directional_derivative(
                    {(blocks[0].name, t): Polynomial.variable(ring, (blocks[k].name, t))
                     for t in range(n)})
                checks += 2
                if linear != expected:
                    witnesses.append(_poly_witness(
                        "linear-part", linear - expected,
                        case=label, level=m, coefficient=k))
                if rest.block_degree(blocks[k].name) != 0:
                    witnesses.append(_poly_witness(
                        "remainder-support", rest, case=label, level=m, coefficient=k))
        details.append(f"{label}: support and top-block linearity, m <= 3")
    return Report("linearity", not witnesses, checks, tuple(details), tuple(witnesses))


# ---------------------------------------------------------------------------
# 5. Faa di Bruno cross-path
# ---------------------------------------------------------------------------

def suite_faa_di_bruno(seed: int) -> Report:
    rng = SplitMix64(seed)
    checks = 0
    witnesses = []
    for trial in range(50):
        n = rng.integer(1, 3)
        m = rng.integer(0, 3)
        ring = Ring.of(VariableBlock("x", n, STATE))
        phi = random_polynomial(rng, ring, max_degree=4, num_terms=5)
        # the zero action makes every phi invariant, so the guarded lift applies
        _, rep = make_standard("abelian", dim=n)
        lifted = LiftedRepresentation(rep, m)
        direct = lift_invariant(lifted, phi)
        derivative_path = faa_di_bruno_lift(phi, m)
        checks += m + 1
        if direct != derivative_path:
            for k in range(m + 1):
                if direct[k] != derivative_path[k]:
                    witnesses.append(_poly_witness(
                        "path-mismatch", direct[k] - derivative_path[k],
                        trial=trial, coefficient=k))
                    break
    details = ("50 seeded phi, degree <= 4, dim V <= 3, m <= 3",)
    return Report("faa-di-bruno", not witnesses, checks, details, tuple(witnesses))


# ---------------------------------------------------------------------------
# 6. Cylindrical invariance agreement
# ---------------------------------------------------------------------------

def suite_cylindrical(seed: int) -> Report:
    rng = SplitMix64(seed)
    _, rep = make_standard("so_n", n=2)
    n = rep.space_dim
    phi = quadratic_invariant(mx.identity(n), Ring.of(VariableBlock("x", n, STATE)))
    checks = 0
    invariant_cases = 0
    witnesses = []
    for trial in range(50):
        m = rng.integer(1, 3)
        lifted = LiftedRepresentation(rep, m)
        inner_ring = Ring(default_lift_blocks(m - 1, n))
        if rng.below(2):
            # manufactured invariant: polynomial in the level-(m-1) coefficients
            phis = lift_invariant(LiftedRepresentation(rep, m - 1), phi)
            theta = Polynomial.zero(inner_ring)
            for _ in range(rng.integer(1, 3)):
                term = Polynomial.constant(inner_ring, rng.integer(-3, 3))
                for _ in range(rng.integer(1, 2)):
                    term = term * phis[rng.below(len(phis))]
                theta = theta + term
            expect_invariant = True
            invariant_cases += 1
        else:
            theta = random_polynomial(rng, inner_ring, max_degree=3, num_terms=4)
            expect_invariant = None
        on_vm, on_vm_minus_1 = cylindrical_invariance_check(lifted, theta)
        checks += 1
        if on_vm != on_vm_minus_1:
            witnesses.append(_poly_witness("level-disagreement", theta, trial=trial, level=m))
        if expect_invariant and not (on_vm and on_vm_minus_1):
            witnesses.append(_poly_witness("manufactured-not-invariant", theta,
                                           trial=trial, level=m))
    details = (f"50 seeded theta on so(2), {invariant_cases} manufactured invariant",)
    return Report("cylindrical", not witnesses, checks, details, tuple(witnesses))


# ---------------------------------------------------------------------------
# 7. Base solver: homotopy plus independent linear-system oracle
# ---------------------------------------------------------------------------

def _monomials_of_degree(names: Sequence[tuple[str, int]], degree: int) -> list[Monomial]:
    """All monomials of exact total degree in the given variables."""
    out = []
    for combo in itertools.combinations_with_replacement(names, degree):
        exps: dict = {}
        for var in combo:
            exps[var] = exps.get(var, 0) + 1
        out.append(Monomial.from_map(exps))
    return out


def _oracle_check(n: int, field: VectorField, homotopy) -> tuple[int, list[dict]]:
    """Brute-force per-degree verification of the homotopy output.

    For each x-homogeneous degree of c = a, set up the linear system for an
    antisymmetric matrix with unknown monomial coefficients, solve it
    independently, and check that the homotopy's per-degree slice satisfies
    every equation of that system.
    """
    ring = field.ring
    x = field.state_blocks[0]
    xvars = [(x.name, i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    checks = 0
    failures: list[dict] = []
    by_degree = [p.homogeneous_components(x.name) for p in field.components]
    degrees = sorted({d for parts in by_degree for d in parts})
    for d in degrees:
        unknown_monos = _monomials_of_degree(xvars, d - 1)
        eq_monos = _monomials_of_degree(xvars, d)
        unknowns = [(pair, mu) for pair in pairs for mu in unknown_monos]
        rows = []
        rhs = []
        for i in range(n):
            target = by_degree[i].get(d, Polynomial.zero(ring))
            for nu in eq_monos:
                row = []
                for (p, q), mu in unknowns:
                    coeff = 0
                    if p == i and mu.mul(Monomial.of(xvars[q])) == nu:
                        coeff += 1
                    if q == i and mu.mul(Monomial.of(xvars[p])) == nu:
                        coeff -= 1
                    row.append(coeff)
                rows.append(tuple(row))
                rhs.append(target.coefficient(nu))
        solution = mx.solve(tuple(rows), tuple(rhs))
        checks += 1
        if solution is None:
            failures.append({"kind": "oracle-unsolvable", "n": n, "degree": d})
            continue
        slice_values = []
        for (p, q), mu in unknowns:
            part = homotopy[p][q].homogeneous_components(x.name).get(d - 1)
            slice_values.append(part.coefficient(mu) if part is not None else 0)
        for row, want in zip(rows, rhs):
            got = sum(c * v for c, v in zip(row, slice_values))
            checks += 1
            if got != want:
                failures.append({"kind": "oracle-mismatch", "n": n, "degree": d})
                break
    return checks, failures


def suite_base_solver(seed: int) -> Report:
    rng = SplitMix64(seed)
    checks = 0
    witnesses = []
    sizes = (2, 3, 4)
    for trial in range(100):
        n = sizes[trial % len(sizes)]
        params = rng.integer(0, 2)
        blocks = []
        if params:
            blocks.append(VariableBlock("w", params, PARAMETER))
        blocks.append(VariableBlock("x", n, STATE))
        ring = Ring(tuple(blocks))
        b = random_antisymmetric(rng, ring, n, max_degree=3, num_terms=3)
        xs = [Polynomial.variable(ring, ("x", i)) for i in range(n)]
        field = VectorField(ring, matrix_apply(b, xs))
        # with G = I the homotopy matrix b is the matrix M of a = M x
        matrix = _homotopy(BilinearForm(mx.identity(n)), field)
        checks += 1
        recon = matrix_apply(matrix, xs)
        if recon != field.components:
            witnesses.append({"kind": "reconstruction", "trial": trial, "n": n})
        for i in range(n):
            for j in range(n):
                checks += 1
                if matrix[i][j] != -matrix[j][i]:
                    witnesses.append({"kind": "not-antisymmetric", "trial": trial,
                                      "n": n, "entry": [i, j]})
    oracle_runs = 0
    for trial in range(20):
        n = 2 + trial % 2
        ring = Ring.of(VariableBlock("x", n, STATE))
        b = random_antisymmetric(rng, ring, n, max_degree=2, num_terms=3)
        xs = [Polynomial.variable(ring, ("x", i)) for i in range(n)]
        field = VectorField(ring, matrix_apply(b, xs))
        matrix = _homotopy(BilinearForm(mx.identity(n)), field)
        done, failures = _oracle_check(n, field, matrix)
        checks += done
        witnesses.extend(failures)
        oracle_runs += 1
    details = ("100 seeded antisymmetric matrices, n in {2,3,4}, degree <= 3",
               f"{oracle_runs} independent linear-system oracle runs, n in {{2,3}}")
    return Report("base-solver", not witnesses, checks, details, tuple(witnesses))


# ---------------------------------------------------------------------------
# 8. Main roundtrip
# ---------------------------------------------------------------------------

_ROUNDTRIP_KINDS: tuple[tuple[str, dict], ...] = (
    ("so_n", {"n": 2}),
    ("so_n", {"n": 3}),
    ("sl2_adjoint", {}),
)


def suite_roundtrip(seed: int) -> Report:
    rng = SplitMix64(seed)
    checks = 0
    witnesses = []
    for trial in range(50):
        kind, params = _ROUNDTRIP_KINDS[trial % len(_ROUNDTRIP_KINDS)]
        m = rng.integer(0, 3)
        inst = generate_instance(kind, m, seed=rng.next_u64(), max_degree=2,
                                 num_terms=3, parameters=1, **params)
        solver = builtin_solver(inst.rep, inst.gram)
        generators = lift_family(inst.lifted, solver.family)
        ok, witness = annihilates_invariants(inst.field, generators)
        checks += 1
        if not ok:
            witnesses.append(_poly_witness("manufactured-not-annihilating", witness,
                                           trial=trial, algebra=_grid_label(kind, params),
                                           level=m))
            continue
        dec = takiff_decompose(inst.lifted, solver, inst.field)
        exact, residuals = verify_decomposition(inst.lifted, inst.field, dec)
        checks += 1
        if not exact:
            bad = next(p for p in residuals if not p.is_zero())
            witnesses.append(_poly_witness("reconstruction-residual", bad,
                                           trial=trial, algebra=_grid_label(kind, params),
                                           level=m))
    details = ("50 seeded coefficient maps, so(2)/so(3)/sl2-adjoint, m <= 3, "
               "degree <= 2, one parameter variable",)
    return Report("roundtrip", not witnesses, checks, details, tuple(witnesses))


# ---------------------------------------------------------------------------
# 9. Refusal of non-annihilating fields
# ---------------------------------------------------------------------------

def suite_refusal(seed: int) -> Report:
    rng = SplitMix64(seed)
    checks = 0
    witnesses = []
    details = []
    for n in (2, 3, 4):
        _, rep = make_standard("so_n", n=n)
        solver = builtin_solver(rep)
        lifted = LiftedRepresentation(rep, 0)
        ring = Ring.of(VariableBlock("f0", n, STATE))
        radial = VectorField(
            ring, tuple(Polynomial.variable(ring, ("f0", i)) for i in range(n)))
        checks += 1
        try:
            takiff_decompose(lifted, solver, radial)
            witnesses.append({"kind": "radial-accepted", "n": n})
        except DecompositionRefused as exc:
            if exc.witness is None or exc.witness.is_zero():
                witnesses.append({"kind": "radial-empty-witness", "n": n})
    details.append("radial field refused on K^n, n in {2,3,4}")

    refused = 0
    attempts = 0
    while refused < 20 and attempts < 4000:
        attempts += 1
        n = 2 + rng.below(2)
        m = rng.integer(0, 2)
        _, rep = make_standard("so_n", n=n)
        solver = builtin_solver(rep)
        lifted = LiftedRepresentation(rep, m)
        ring = Ring(default_lift_blocks(m, n))
        field = VectorField(ring, tuple(
            random_polynomial(rng, ring, max_degree=2, num_terms=2)
            for _ in range((m + 1) * n)))
        generators = lift_family(lifted, solver.family)
        ok, _ = annihilates_invariants(field, generators)
        if ok:
            continue  # rejection sampling: keep only non-annihilating fields
        refused += 1
        checks += 1
        try:
            takiff_decompose(lifted, solver, field)
            witnesses.append({"kind": "non-annihilating-accepted", "attempt": attempts})
        except DecompositionRefused as exc:
            if exc.witness is None or exc.witness.is_zero():
                witnesses.append({"kind": "empty-witness", "attempt": attempts})
    if refused < 20:
        witnesses.append({"kind": "sampling-starved", "found": refused})
    details.append(f"{refused} seeded non-annihilating fields refused with nonzero witnesses")
    return Report("refusal", not witnesses, checks, tuple(details), tuple(witnesses))


# ---------------------------------------------------------------------------
# 10 and 11. Flip identity and lifted bilinear form
# ---------------------------------------------------------------------------

_QUADRATIC_GRID: tuple[tuple[str, dict], ...] = (("sl2", {}), ("so_n", {"n": 3}))


def suite_flip(seed: int) -> Report:
    del seed
    checks = 0
    witnesses = []
    details = []
    for kind, params in _QUADRATIC_GRID:
        base, _ = make_standard(kind, **params)
        for m in (0, 1, 2):
            report = verify_flip_identity(base, m)
            checks += report.dim
            if not report.passed:
                witnesses.append({"kind": "flip", "algebra": _grid_label(kind, params),
                                  "level": m, "basis": report.failing_basis})
        details.append(f"{_grid_label(kind, params)}: m <= 2, all basis elements")
    return Report("flip", not witnesses, checks, tuple(details), tuple(witnesses))


def suite_quadratic_lift(seed: int) -> Report:
    del seed
    checks = 0
    witnesses = []
    details = []
    for kind, params in _QUADRATIC_GRID:
        base, _ = make_standard(kind, **params)
        form = killing_form(base)
        for m in (0, 1, 2):
            ctx = build_takiff(base, m)
            lifted_form = lift_bilinear_form(ctx, form)
            checks += 3
            if any(lifted_form.gram[i][j] != lifted_form.gram[j][i]
                   for i in range(lifted_form.size) for j in range(lifted_form.size)):
                witnesses.append({"kind": "not-symmetric",
                                  "algebra": _grid_label(kind, params), "level": m})
            if not lifted_form.is_nondegenerate():
                witnesses.append({"kind": "degenerate",
                                  "algebra": _grid_label(kind, params), "level": m})
            if not lifted_form.is_invariant_for(ctx.algebra):
                witnesses.append({"kind": "not-invariant",
                                  "algebra": _grid_label(kind, params), "level": m})
        details.append(f"{_grid_label(kind, params)} Killing form lifted, m <= 2")
    return Report("quadratic-lift", not witnesses, checks, tuple(details), tuple(witnesses))


# ---------------------------------------------------------------------------
# 12. Transport along a change of variables
# ---------------------------------------------------------------------------

def suite_transport(seed: int) -> Report:
    rng = SplitMix64(seed)
    _, rep = make_standard("so_n", n=2)
    checks = 0
    witnesses = []
    for trial in range(10):
        m = rng.integer(0, 2)
        inst = generate_instance("so_n", m, seed=rng.next_u64(), max_degree=2,
                                 num_terms=3, parameters=1, n=2)
        solver = builtin_solver(inst.rep)
        dec = takiff_decompose(inst.lifted, solver, inst.field)

        theta = random_invertible(rng, 2)
        tau = conjugate_representation(rep, theta)
        theta_inv = mx.inverse(theta)
        gram_tau = mx.mul(mx.transpose(theta_inv), theta_inv)
        solver_tau = builtin_solver(tau, gram_tau)
        lifted_tau = LiftedRepresentation(tau, m)
        moved = transport_field(inst.field, theta)

        fresh = takiff_decompose(lifted_tau, solver_tau, moved)
        ok_fresh, _ = verify_decomposition(lifted_tau, moved, fresh)
        carried = transport_decomposition(dec, theta)
        ok_carried, residuals = verify_decomposition(lifted_tau, moved, carried)
        checks += 2
        if not ok_fresh:
            witnesses.append({"kind": "fresh-decomposition", "trial": trial, "level": m})
        if not ok_carried:
            bad = next(p for p in residuals if not p.is_zero())
            witnesses.append(_poly_witness("carried-decomposition", bad,
                                           trial=trial, level=m))
    details = ("10 seeded invertible theta on K^2, so(2) fields, m <= 2; "
               "both the fresh and the carried decomposition verified",)
    return Report("transport", not witnesses, checks, details, tuple(witnesses))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[int], Report]] = {
    "jacobi": suite_jacobi,
    "homomorphism": suite_homomorphism,
    "invariance": suite_invariance,
    "linearity": suite_linearity,
    "faa-di-bruno": suite_faa_di_bruno,
    "cylindrical": suite_cylindrical,
    "base-solver": suite_base_solver,
    "roundtrip": suite_roundtrip,
    "refusal": suite_refusal,
    "flip": suite_flip,
    "quadratic-lift": suite_quadratic_lift,
    "transport": suite_transport,
}


def run_suite(config: RunConfig) -> list[Report]:
    """Run the selected suites (all when none named) in canonical order."""
    selected = config.suites or tuple(SUITES)
    for name in selected:
        if name not in SUITES:
            raise StructuralError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    reports = []
    for name in SUITES:
        if name not in selected:
            continue
        start = time.perf_counter()
        report = SUITES[name](config.seed)
        reports.append(replace(report, elapsed=time.perf_counter() - start))
    return reports


def summary_lines(reports: Sequence[Report]) -> Iterator[str]:
    """The plain-text summary of ``reports``, one line at a time."""
    for r in reports:
        status = "ok  " if r.passed else "FAIL"
        yield f"{status} {r.name}: {r.checks} checks ({r.elapsed:.2f}s)"
        for d in r.details:
            yield f"       {d}"
    total = sum(r.checks for r in reports)
    failed = [r.name for r in reports if not r.passed]
    if failed:
        yield f"FAILED: {', '.join(failed)} ({total} checks total)"
    else:
        yield f"all {len(reports)} suites passed ({total} checks total)"
