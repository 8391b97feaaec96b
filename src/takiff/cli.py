"""Command-line surface: build, lift, check, decompose, verify, generate.

Every subcommand reads and writes the JSON formats of jsonio. A handler
``cmd_*`` reads its inputs and computes, and writes nothing: it returns its
exit code, its JSON payload and its --human lines (None where the
subcommand has no --human). The lines are an iterable that formats no
polynomial or scalar before it is read, so JSON output pays for no text.

``main`` alone writes, through ``_emit``, to stdout unless --out is given,
as the same UTF-8 bytes whatever the locale. ``main`` alone maps errors to
exit codes, for every subcommand:

- 1, with ``error: ...`` on stderr: malformed input (JSON that does not parse
  or lacks the documented shape, a path that cannot be read as UTF-8 text,
  a missing one included), an --out path that cannot be written, output
  that cannot be encoded as UTF-8, and a number, read or written, past the
  interpreter's limit on int/str conversion;
- 3, with ``internal consistency failure: ...``: an InternalConsistencyError;
- 1, silently: a stdout closed by its reader (``takiff ... | head -c 0``).

decompose exits 2 when its precondition is refused (witness printed), and
check-invariant, verify, verify-flip and suite exit 1 on a negative answer.
Seeded commands read their seed from --seed alone.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from pathlib import Path

from . import jsonio
from .decompose import (
    builtin_solver,
    takiff_decompose,
    verify_decomposition,
)
from .errors import (
    DecompositionRefused,
    InternalConsistencyError,
    StructuralError,
    TakiffError,
    ValidationError,
    digit_limit_error,
)
from .invariants import killing_residuals, lift_invariant, tangency_check
from .lie import killing_form
from .poly import MAX_CURVE_TERMS
from .randgen import generate_instance
from .suites import RunConfig, run_suite, summary_lines
from .takiff_algebra import (
    LiftedRepresentation,
    build_lift,
    build_takiff,
    verify_flip_identity,
)


def _read(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    return jsonio.loads(text)


def _emit(payload, out: str | None, human: bool = False) -> None:
    """Write a JSON payload, or with ``human`` an iterable of lines, to --out or stdout.

    The text is built and encoded before any file is opened, so a failure
    leaves --out as it was.
    """
    try:
        text = "\n".join(payload) + "\n" if human else jsonio.dumps(payload)
    except ValueError as exc:  # str() of an int past the interpreter's digit limit
        raise digit_limit_error("cannot write a number of") from exc
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise StructuralError(
            f"cannot encode the output as UTF-8: {exc.object[exc.start:exc.end]!r} "
            f"({exc.reason})") from exc
    if not out:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    try:
        Path(out).write_bytes(data)
    except OSError as exc:
        raise StructuralError(f"cannot write {out}: {exc}") from exc


def _gram_for(rep, choice: str):
    """Resolve --gram: identity, killing, or a bilinear-form JSON file."""
    if choice == "identity":
        return None
    if choice == "killing":
        return killing_form(rep.algebra).gram
    return jsonio.bilinear_from_json(_read(choice)).gram


def _check_rings_written(count: int, what: str, blocks: int) -> None:
    """Refuse a list of ``count`` polynomials that each repeat a ring of ``blocks``
    blocks, as jsonio writes them, past MAX_CURVE_TERMS ring entries in all."""
    if count * blocks > MAX_CURVE_TERMS:
        raise StructuralError(f"{count} {what} over a ring of {blocks} blocks would write "
                              f"{count * blocks} ring entries, more than {MAX_CURVE_TERMS}")


def _tuple_text(values) -> str:
    """``(a, b, c)``: each value written by ``str``."""
    return "(" + ", ".join(map(str, values)) + ")"


def cmd_build(args):
    g = jsonio.algebra_from_json(_read(args.algebra))
    return 0, jsonio.algebra_to_json(build_takiff(g, args.level).algebra), None


def cmd_lift_rep(args):
    rep = jsonio.representation_from_json(_read(args.rep))
    return 0, jsonio.representation_to_json(build_lift(rep, args.level).rep), None


def cmd_lift_invariant(args):
    rep = jsonio.representation_from_json(_read(args.rep))
    lifted = LiftedRepresentation(rep, args.level)
    _check_rings_written(args.level + 1, "curve coefficients", args.level + 1)
    phi = jsonio.polynomial_from_json(_read(args.phi))
    phis = lift_invariant(lifted, phi, allow_non_invariant=args.any)
    return 0, phis, None


def cmd_check_invariant(args):
    rep = jsonio.representation_from_json(_read(args.rep))
    phi = jsonio.polynomial_from_json(_read(args.phi))
    levels = len(phi.ring.state_blocks())
    if levels != args.level + 1:
        raise StructuralError(f"phi has {levels} state blocks, expected {args.level + 1}")
    failures = [{"basis": k, "residual": residual}
                for k, residual in enumerate(killing_residuals(rep, phi))
                if not residual.is_zero()]
    lines = itertools.chain(
        ["not invariant" if failures else "invariant"],
        (f"  basis {f['basis']}: nonzero residual" for f in failures))
    payload = {"invariant": not failures, "failures": failures}
    return (1 if failures else 0), payload, lines


def cmd_tangency(args):
    rep = jsonio.representation_from_json(_read(args.rep))
    field = jsonio.field_from_json(_read(args.field))
    points, params = jsonio.points_from_json(_read(args.points))
    results = tangency_check(rep, field, points, params)
    payload = [{
        "point": [jsonio.scalar_to_str(v) for v in r.point],
        "member": r.member,
        "witness": None if r.witness is None
        else [jsonio.scalar_to_str(v) for v in r.witness],
    } for r in results]
    lines = (f"{'tangent' if r.member else 'outside'} at {_tuple_text(r.point)}"
             for r in results)
    return 0, payload, lines


def cmd_decompose(args):
    rep = jsonio.representation_from_json(_read(args.rep))
    lifted = LiftedRepresentation(rep, args.level)
    field = jsonio.field_from_json(_read(args.field))
    if args.params is not None:
        have = sum(b.size for b in field.ring.parameter_blocks())
        if have != args.params:
            raise StructuralError(
                f"field has {have} parameter variables, expected {args.params}")
    try:
        solver = builtin_solver(rep, _gram_for(rep, args.gram))
    except ValidationError as exc:
        raise ValidationError(
            f"--gram {args.gram} does not suit this representation: {exc} "
            "(pass --gram killing or a bilinear-form JSON file)") from exc
    try:
        dec = takiff_decompose(lifted, solver, field)
    except DecompositionRefused as exc:
        witness = exc.witness
        payload = {"refused": str(exc), "witness": witness}
        lines = itertools.chain([f"refused: {exc}"],
                                (f"witness: {w}" for w in [witness] if w is not None))
        return 2, payload, lines
    # takiff_decompose checks every level as it solves it
    payload = {
        "decomposition": dec,
        "verification": {"passed": True, "residuals_zero": True},
    }
    lines = itertools.chain(
        ["decomposed and verified"],
        (f"b_{r} = {_tuple_text(level)}" for r, level in enumerate(dec.coefficients)))
    return 0, payload, lines


def cmd_verify(args):
    rep = jsonio.representation_from_json(_read(args.rep))
    lifted = LiftedRepresentation(rep, args.level)
    field = jsonio.field_from_json(_read(args.field))
    dec = jsonio.decomposition_from_json(_read(args.dec), like=field.ring)
    passed, residuals = verify_decomposition(lifted, field, dec)
    residuals = [p for p in residuals if not p.is_zero()]
    _check_rings_written(len(residuals), "residuals", len(field.ring.blocks))
    payload = {
        "passed": passed,
        "residuals": residuals,
    }
    return (0 if passed else 1), payload, ["verified" if passed else "MISMATCH"]


def cmd_verify_flip(args):
    g = jsonio.algebra_from_json(_read(args.algebra))
    report = verify_flip_identity(g, args.level)
    payload = {
        "level": report.level,
        "dim": report.dim,
        "passed": report.passed,
        "failing_basis": report.failing_basis,
    }
    status = "flip identity holds" if report.passed else \
        f"flip identity FAILS at basis {report.failing_basis}"
    return ((0 if report.passed else 1), payload,
            [f"level {report.level}, dim {report.dim}: {status}"])


def cmd_suite(args):
    reports = run_suite(RunConfig(seed=args.seed, suites=tuple(args.names)))
    return ((0 if all(r.passed for r in reports) else 1),
            [r.to_json() for r in reports], summary_lines(reports))


def cmd_generate(args):
    kind_params = {}
    for key in ("n", "p", "q", "dim"):
        value = getattr(args, key)
        if value is not None:
            kind_params[key] = value
    inst = generate_instance(
        args.kind, args.level, args.seed, max_degree=args.degree,
        num_terms=args.terms, parameters=args.parameters,
        coeff_bound=args.coeff_bound, **kind_params)
    payload = {
        "kind": inst.kind,
        "seed": inst.seed,
        "level": args.level,
        "algebra": jsonio.algebra_to_json(inst.algebra),
        "representation": jsonio.representation_to_json(inst.rep),
        "gram": None if inst.gram is None else jsonio.matrix_to_json(inst.gram),
        "coefficients": inst.coefficients,
        "field": inst.field,
    }
    return 0, payload, None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; each ``parse_args`` returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="takiff",
        description="Takiff algebras, lifted invariants, and Killing-field "
                    "decompositions, in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, human=False):
        p.add_argument("--out", help="write output to this path instead of stdout")
        if human:
            p.add_argument("--human", action="store_true",
                           help="plain-text summary instead of JSON")

    p = sub.add_parser("build", help="build the level-m Takiff algebra")
    p.add_argument("--algebra", required=True, help="base algebra JSON")
    p.add_argument("--level", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("lift-rep", help="lift a representation to level m")
    p.add_argument("--rep", required=True, help="representation JSON")
    p.add_argument("--level", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_lift_rep)

    p = sub.add_parser("lift-invariant", help="curve coefficients of an invariant")
    p.add_argument("--rep", required=True)
    p.add_argument("--phi", required=True, help="polynomial JSON over one block")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--any", action="store_true",
                   help="lift even when phi is not invariant")
    common(p)
    p.set_defaults(handler=cmd_lift_invariant)

    p = sub.add_parser("check-invariant", help="test invariance under every basis element")
    p.add_argument("--rep", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--level", type=int, default=0,
                   help="check under the level-m lift instead of the base")
    common(p, human=True)
    p.set_defaults(handler=cmd_check_invariant)

    p = sub.add_parser("tangency", help="pointwise orbit-tangency of a field")
    p.add_argument("--rep", required=True)
    p.add_argument("--field", required=True, help="vector field JSON")
    p.add_argument("--points", required=True,
                   help='JSON {"points": [[...]], "parameters": [[...]]}')
    common(p, human=True)
    p.set_defaults(handler=cmd_tangency)

    p = sub.add_parser("decompose", help="decompose a field into Killing coefficients")
    p.add_argument("--rep", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--params", type=int, default=None,
                   help="expected number of parameter variables (validation only)")
    p.add_argument("--gram", default="identity",
                   help="identity, killing, or a bilinear-form JSON path")
    common(p, human=True)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("verify", help="check a decomposition against a field")
    p.add_argument("--rep", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--dec", required=True, help="decomposition JSON")
    common(p, human=True)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("verify-flip", help="block-reversal identity for the coadjoint lift")
    p.add_argument("--algebra", required=True)
    p.add_argument("--level", type=int, required=True)
    common(p, human=True)
    p.set_defaults(handler=cmd_verify_flip)

    p = sub.add_parser("suite", help="run named property suites")
    p.add_argument("names", nargs="*", help="suite names (default: all)")
    p.add_argument("--seed", type=int, default=2026)
    common(p, human=True)
    p.set_defaults(handler=cmd_suite)

    p = sub.add_parser("generate", help="deterministic decomposable instance")
    p.add_argument("--kind", required=True,
                   help="so_n, so_pq, sl2, sl2_adjoint, gl_n, abelian")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--parameters", type=int, default=1)
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    common(p)
    p.set_defaults(handler=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    human = getattr(args, "human", False)
    try:
        code, payload, lines = args.handler(args)
        _emit(lines if human else payload, args.out, human)
        return code
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except TakiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the final
        # flush at interpreter exit does not raise the same error again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
