"""The benchmark's workloads: seeded inputs, timed operations, and their checks.

Why each workload exists:

cold-lift
    Every first use of a (g, m) pair, and every CLI command, builds the lift
    from an empty cache. Nearly all of that time is validation in ``lie`` and
    ``matrices.mul``; ``poly`` does no work. Sparse matrices and structural
    certificates for derived objects land here.
decompose-mix
    With lifts warm, deciding a field costs ``poly``, ``invariants`` and
    ``decompose`` while ``lie`` and ``matrices`` do almost nothing. One input
    in four is refused: the precheck does its full work, finds the fault only
    at the last curve coefficient, and nothing runs after it. A change that
    moves cost between the precheck and the recursion shows up here.
cli-pipeline
    The only path where ``jsonio``, re-validating a Representation read from
    JSON, and ``cli`` file handling block a user's result. It also catches
    input hardening that slows parsing.

A workload yields one pass of ``Op`` objects. Only ``Op.call`` is timed (and
traced); everything between operations, and ``Op.check``, runs outside the
timed region. Library functions are looked up on their module at call time,
so the wrappers a traced run installs are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import takiff as tk
from takiff import cli, jsonio, matrices, randgen


@dataclass
class Op:
    """One timed call; ``check`` returns an error message or None."""

    key: str
    kind: str
    case: int
    call: Callable[[], object]
    check: Callable[[object], str | None]
    error: str | None = field(default=None)


class LiftCache:
    """``build_lift``'s cache, cleared on demand, with hit counts kept across clears."""

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        info = tk.build_lift.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        tk.build_lift.cache_clear()

    def totals(self) -> tuple[int, int]:
        info = tk.build_lift.cache_info()
        return self.hits + info.hits, self.misses + info.misses


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def coeff_bits(polys) -> int:
    """Largest numerator or denominator bit length over the polynomials."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


def term_count(polys) -> int:
    return sum(len(p.terms) for p in polys)


def _standard(kind: str, n: int | None):
    return tk.make_standard(kind) if n is None else tk.make_standard(kind, n=n)


def _label(kind: str, n: int | None, m: int) -> str:
    return f"{kind}{'' if n is None else n}.m{m}"


def _shuffled(rng: tk.SplitMix64, items: list) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def _signed_permutation(rng: tk.SplitMix64, n: int):
    perm = _shuffled(rng, list(range(n)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = Fraction(1 if rng.below(2) else -1)
    return tuple(tuple(r) for r in rows)


def perturb_top_block(rng: tk.SplitMix64, fld: tk.VectorField, gram):
    """Add p * f_0 to the top block f_m, for a seeded nonzero polynomial p.

    Only the last curve coefficient Phi_m of the quadratic invariant involves
    f_m, through dPhi_m/df_m = G f_0, so the precheck passes Phi_0..Phi_{m-1}
    and its first nonzero residual is exactly p * f_0^T G f_0, returned here
    as the expected refusal witness.
    """
    ring = fld.ring
    blocks = ring.state_blocks()
    n = blocks[0].size
    top = (len(blocks) - 1) * n
    while True:
        p = randgen.random_polynomial(rng, ring, 1, 2)
        if not p.is_zero():
            break
    f0 = [tk.Polynomial.variable(ring, (blocks[0].name, i)) for i in range(n)]
    comps = list(fld.components)
    for i in range(n):
        comps[top + i] = comps[top + i] + p * f0[i]
    if gram is None:
        gram = matrices.identity(n)
    quad = tk.Polynomial.zero(ring)
    for i in range(n):
        for j in range(n):
            if gram[i][j]:
                quad = quad + f0[i] * f0[j] * gram[i][j]
    return tk.VectorField(ring, tuple(comps)), p * quad


class Workload:
    """A seeded input set, its set-up, and one pass of timed operations."""

    name = ""
    # latency group reported by the summary -> op kinds it covers
    groups: dict[str, tuple[str, ...]] = {}
    # op kinds that decide one decomposition input
    decided_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, toy: bool, scratch: Path):
        self.seed = seed
        self.toy = toy
        self.scratch = scratch
        self.lift_cache = LiftCache()
        self.records: dict[int, dict] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def digests(self) -> dict[str, str]:
        cases = [self.records[c] for c in sorted(self.records)]
        return {
            "inputs_sha256": sha256("\n".join(r["input_sha256"] for r in cases)),
            "outputs_sha256": sha256("\n".join(r["output_sha256"] for r in cases)),
        }


# ---------------------------------------------------------------------------
# cold-lift
# ---------------------------------------------------------------------------

LADDER = (("so_n", 3, range(1, 7)), ("so_n", 4, range(1, 5)),
          ("so_n", 5, range(1, 4)), ("sl2_adjoint", None, range(1, 6)))
TOY_LADDER = (("so_n", 3, range(1, 3)), ("sl2_adjoint", None, range(1, 2)))


class ColdLift(Workload):
    """``build_lift`` on every rung of the ladder, from an empty cache each time.

    The seed conjugates each base representation by a signed permutation
    (same algebra, same sparsity, different matrices) and orders the rungs.
    """

    name = "cold-lift"
    groups = {"rung": ("rung",)}

    def setup(self) -> None:
        rng = tk.SplitMix64(self.seed)
        rungs = []
        for kind, n, levels in TOY_LADDER if self.toy else LADDER:
            _, rho = _standard(kind, n)
            rho = tk.conjugate_representation(
                rho, _signed_permutation(rng, rho.space_dim))
            rungs += [(_label(kind, n, m), rho, m) for m in levels]
        self.rungs = _shuffled(rng, rungs)

    def ops(self) -> Iterator[Op]:
        for case, (key, rho, m) in enumerate(self.rungs):
            self.lift_cache.clear()
            yield Op(key, "rung", case, partial(tk.build_lift, rho, m),
                     partial(self._check, case, key, rho, m))

    def _check(self, case, key, rho, m, lifted) -> str | None:
        d, n = rho.algebra.dim, rho.space_dim
        if lifted.context.algebra.dim != (m + 1) * d:
            return f"{key}: dim g_m = {lifted.context.algebra.dim}, want {(m + 1) * d}"
        if lifted.space_dim != (m + 1) * n:
            return f"{key}: dim V_m = {lifted.space_dim}, want {(m + 1) * n}"
        zero = ((0,) * n,) * n
        for r in range(m + 1):
            for i in range(d):
                mat = lifted.rep.matrices[r * d + i]
                for bi in range(m + 1):
                    rows = mat[bi * n:(bi + 1) * n]
                    for bj in range(m + 1):
                        block = tuple(row[bj * n:(bj + 1) * n] for row in rows)
                        want = rho.matrices[i] if bi == bj + r else zero
                        if block != want:
                            return (f"{key}: block ({bi}, {bj}) of x_{i} T^{r} "
                                    "breaks the Toeplitz layout")
        if case not in self.records:
            self.records[case] = dict(
                case=key, dim_g_m=lifted.context.algebra.dim,
                dim_V_m=lifted.space_dim, field_terms=0, out_terms=0,
                coeff_bits_max=0,
                input_sha256=sha256(f"{m}\n" + jsonio.dumps(
                    jsonio.representation_to_json(rho))),
                output_sha256=sha256(jsonio.dumps(
                    jsonio.representation_to_json(lifted.rep))))
        return None


# ---------------------------------------------------------------------------
# decompose-mix
# ---------------------------------------------------------------------------

DM_GRID = (("so_n", 3, 3), ("so_n", 3, 4), ("so_n", 3, 5), ("so_n", 4, 3),
           ("so_n", 5, 2), ("sl2_adjoint", None, 4))
DM_TOY_GRID = (("so_n", 3, 1), ("so_n", 3, 2))
# (max degree, term count, perturbed) per input at every grid point; a fixed
# schedule keeps the mix of sizes the same for every seed
DM_SCHEDULE = ((2, 4, False), (2, 5, False), (2, 6, False), (2, 5, True),
               (3, 4, False), (3, 5, False), (3, 6, False), (3, 5, True))


@dataclass
class DecomposeInput:
    key: str
    lifted: tk.LiftedRepresentation
    solver: object
    field: tk.VectorField
    witness: tk.Polynomial | None  # expected refusal witness, None if decomposable


class DecomposeMix(Workload):
    """``takiff_decompose`` then ``verify_decomposition`` on warm lifts."""

    name = "decompose-mix"
    groups = {"decide": ("decide",), "refuse": ("refuse",)}
    decided_kinds = ("decide", "refuse")

    def setup(self) -> None:
        self.lift_cache.clear()
        rng = tk.SplitMix64(self.seed)
        schedule = DM_SCHEDULE[:4] if self.toy else DM_SCHEDULE
        solvers = {}
        self.inputs = []
        for kind, n, m in DM_TOY_GRID if self.toy else DM_GRID:
            params = {} if n is None else {"n": n}
            for j, (degree, terms, perturbed) in enumerate(schedule):
                inst = tk.generate_instance(kind, m, rng.next_u64() >> 33,
                                            max_degree=degree, num_terms=terms,
                                            **params)
                fld, witness = inst.field, None
                if perturbed:
                    fld, witness = perturb_top_block(rng, fld, inst.gram)
                if inst.rep not in solvers:
                    for level in range(m + 1):
                        tk.build_lift(inst.rep, level)
                    solvers[inst.rep] = tk.builtin_solver(inst.rep, inst.gram)
                self.inputs.append(DecomposeInput(
                    f"{_label(kind, n, m)}#{j}", tk.build_lift(inst.rep, m),
                    solvers[inst.rep], fld, witness))

    def ops(self) -> Iterator[Op]:
        for case, item in enumerate(self.inputs):
            if item.witness is None:
                yield Op(item.key, "decide", case, partial(self._decide, item),
                         partial(self._check_decide, case, item))
            else:
                yield Op(item.key, "refuse", case, partial(self._refuse, item),
                         partial(self._check_refuse, case, item))

    @staticmethod
    def _decide(item: DecomposeInput):
        dec = tk.takiff_decompose(item.lifted, item.solver, item.field)
        passed, _ = tk.verify_decomposition(item.lifted, item.field, dec)
        return dec, passed

    @staticmethod
    def _refuse(item: DecomposeInput):
        try:
            tk.takiff_decompose(item.lifted, item.solver, item.field)
        except tk.DecompositionRefused as exc:
            return exc
        return None

    def _record_input(self, case, item, output: str, out_polys) -> None:
        self.records[case] = dict(
            case=item.key, dim_g_m=item.lifted.context.algebra.dim,
            dim_V_m=item.lifted.space_dim,
            field_terms=term_count(item.field.components),
            out_terms=term_count(out_polys), coeff_bits_max=coeff_bits(out_polys),
            input_sha256=sha256(jsonio.dumps(jsonio.field_to_json(item.field))),
            output_sha256=sha256(output))

    def _check_decide(self, case, item, outcome) -> str | None:
        dec, passed = outcome
        if not passed:
            return f"{item.key}: verify_decomposition failed"
        if case not in self.records:
            polys = [p for level in dec.coefficients for p in level]
            self._record_input(case, item, jsonio.dumps(
                jsonio.decomposition_to_json(dec)), polys)
        return None

    def _check_refuse(self, case, item, exc) -> str | None:
        if exc is None:
            return f"{item.key}: perturbed field was decomposed"
        if exc.witness is None or exc.witness.is_zero():
            return f"{item.key}: refusal without a nonzero witness"
        if exc.witness != item.witness:
            return f"{item.key}: witness is not p * f0^T G f0"
        if case not in self.records:
            self._record_input(case, item, jsonio.dumps(
                jsonio.polynomial_to_json(exc.witness)), [exc.witness])
        return None


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

CLI_GRID = (("so_n", 3, 1), ("so_n", 3, 2), ("so_n", 3, 3), ("so_n", 4, 1),
            ("so_n", 4, 2), ("sl2_adjoint", None, 1), ("sl2_adjoint", None, 2),
            ("sl2_adjoint", None, 3))
CLI_TOY_GRID = (("so_n", 3, 1), ("sl2_adjoint", None, 1))
CLI_SCHEDULE = ((2, 4), (3, 5))  # (degree, terms) per case at each grid point


@dataclass
class CliCase:
    key: str
    kind: str
    n: int | None
    level: int
    degree: int
    terms: int
    seed: int
    perturb_seed: int | None  # seeds p when the decompose input is perturbed


def _run_main(argv: list[str]):
    """``takiff.cli.main`` in this process, with its console output captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
    return code, err.getvalue()


class CliPipeline(Workload):
    """``generate``, ``decompose`` and ``verify`` through JSON files.

    ``build_lift``'s cache is cleared before every command, which is what a
    fresh ``takiff`` process starts with, without interpreter start-up noise.
    """

    name = "cli-pipeline"
    groups = {"cli": ("generate", "decompose", "refuse", "verify")}
    decided_kinds = ("decompose", "refuse")

    def setup(self) -> None:
        self.close()
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        rng = tk.SplitMix64(self.seed)
        self.cases = []
        for kind, n, m in CLI_TOY_GRID if self.toy else CLI_GRID:
            for degree, terms in CLI_SCHEDULE:
                seed = rng.next_u64() >> 33
                perturbed = len(self.cases) % 4 == 3
                self.cases.append(CliCase(
                    f"{_label(kind, n, m)}#{len(self.cases) % 2}", kind, n, m,
                    degree, terms, seed, rng.next_u64() if perturbed else None))

    def close(self) -> None:
        workdir = getattr(self, "workdir", None)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            self.workdir = None

    def _command(self, c: CliCase, case: int, kind: str, argv: list[str],
                 check) -> Op:
        self.lift_cache.clear()
        return Op(f"{c.key}/{argv[0]}", kind, case, partial(_run_main, argv),
                  check)

    def ops(self) -> Iterator[Op]:
        for case, c in enumerate(self.cases):
            d = self.workdir / f"case{case}"
            d.mkdir(exist_ok=True)
            paths = {name: str(d / f"{name}.json")
                     for name in ("instance", "rep", "field", "out", "dec", "verify")}
            level = str(c.level)
            outputs: dict[str, bytes] = {}

            argv = ["generate", "--kind", c.kind, "--level", level,
                    "--seed", str(c.seed), "--degree", str(c.degree),
                    "--terms", str(c.terms), "--out", paths["instance"]]
            if c.n is not None:
                argv += ["--n", str(c.n)]
            op = self._command(c, case, "generate", argv,
                               partial(self._check_exit, c, 0, paths["instance"], outputs))
            yield op
            if op.error:
                continue
            witness = self._split_instance(c, paths)

            argv = ["decompose", "--rep", paths["rep"], "--level", level,
                    "--field", paths["field"], "--out", paths["out"]]
            if c.kind == "sl2_adjoint":
                argv += ["--gram", "killing"]
            if witness is not None:
                op = self._command(c, case, "refuse", argv, partial(
                    self._check_refused, c, paths, witness, outputs))
                yield op
                if not op.error:
                    self._record_case(case, c, paths, outputs)
                continue
            op = self._command(c, case, "decompose", argv,
                               partial(self._check_decomposed, c, paths, outputs))
            yield op
            if op.error:
                continue

            argv = ["verify", "--rep", paths["rep"], "--level", level,
                    "--field", paths["field"], "--dec", paths["dec"],
                    "--out", paths["verify"]]
            op = self._command(c, case, "verify", argv,
                               partial(self._check_verified, c, paths, outputs))
            yield op
            if not op.error:
                self._record_case(case, c, paths, outputs)

    # -- glue and checks, all outside the timed region ---------------------

    def _split_instance(self, c: CliCase, paths) -> tk.Polynomial | None:
        """Write the representation and field files; perturb the field if due."""
        data = json.loads(Path(paths["instance"]).read_text(encoding="utf-8"))
        Path(paths["rep"]).write_text(jsonio.dumps(data["representation"]),
                                      encoding="utf-8")
        field_json, witness = data["field"], None
        if c.perturb_seed is not None:
            gram = None if data["gram"] is None else jsonio.matrix_from_json(data["gram"])
            fld, witness = perturb_top_block(
                tk.SplitMix64(c.perturb_seed), jsonio.field_from_json(field_json), gram)
            field_json = jsonio.field_to_json(fld)
        Path(paths["field"]).write_text(jsonio.dumps(field_json), encoding="utf-8")
        return witness

    @staticmethod
    def _check_exit(c, want: int, path: str, outputs, outcome) -> str | None:
        code, err = outcome
        if code != want:
            return f"{c.key}: exit {code}, want {want}: {err.strip()}"
        outputs[Path(path).stem] = Path(path).read_bytes()
        return None

    def _check_refused(self, c, paths, witness, outputs, outcome) -> str | None:
        error = self._check_exit(c, 2, paths["out"], outputs, outcome)
        if error:
            return error
        data = json.loads(outputs["out"])
        if data.get("witness") is None:
            return f"{c.key}: refusal without a witness"
        got = jsonio.polynomial_from_json(data["witness"])
        if got.is_zero() or got != witness:
            return f"{c.key}: witness is not p * f0^T G f0"
        return None

    def _check_decomposed(self, c, paths, outputs, outcome) -> str | None:
        error = self._check_exit(c, 0, paths["out"], outputs, outcome)
        if error:
            return error
        data = json.loads(outputs["out"])
        if data["verification"]["passed"] is not True:
            return f"{c.key}: decompose did not report a passed verification"
        Path(paths["dec"]).write_text(jsonio.dumps(data["decomposition"]),
                                      encoding="utf-8")
        return None

    def _check_verified(self, c, paths, outputs, outcome) -> str | None:
        error = self._check_exit(c, 0, paths["verify"], outputs, outcome)
        if error:
            return error
        if json.loads(outputs["verify"])["passed"] is not True:
            return f"{c.key}: verify did not report passed"
        return None

    def _record_case(self, case: int, c: CliCase, paths, outputs) -> None:
        if case in self.records:
            return
        inst = json.loads(outputs["instance"])
        fld = jsonio.field_from_json(json.loads(Path(paths["field"]).read_text(
            encoding="utf-8")))
        out = json.loads(outputs["out"])
        if "decomposition" in out:
            dec = jsonio.decomposition_from_json(out["decomposition"])
            polys = [p for level in dec.coefficients for p in level]
        else:
            polys = [jsonio.polynomial_from_json(out["witness"])]
        self.records[case] = dict(
            case=c.key, dim_g_m=(c.level + 1) * inst["algebra"]["dim"],
            dim_V_m=(c.level + 1) * inst["representation"]["space_dim"],
            field_terms=term_count(fld.components), out_terms=term_count(polys),
            coeff_bits_max=coeff_bits(polys),
            input_sha256=sha256(Path(paths["field"]).read_bytes()),
            output_sha256=sha256(b"".join(outputs[k] for k in sorted(outputs))))


WORKLOADS = {w.name: w for w in (ColdLift, DecomposeMix, CliPipeline)}
