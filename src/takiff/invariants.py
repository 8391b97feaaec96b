"""Killing fields as first-order operators, invariance tests, and invariant lifting.

A basis element x of a represented algebra acts on functions of the state
coordinates v through its Killing field v |-> rho(x) v:

    (L_x phi)(v) = sum_i (rho(x) v)_i  d phi / d v_i.

A polynomial is invariant when every basis Killing field annihilates it; by
the Leibniz rule it then annihilates the whole subalgebra its generators
produce, so invariance is always decided on generators.

Invariants lift from V to V_m along the curve f_0 + t f_1 + ... + t^m f_m:
the coefficient of t^k is a polynomial on V_m, invariant for the lifted
action, depending only on f_0..f_k, and of degree at most one in f_k. Two
independent computation paths are provided: direct expansion in t, and a
higher-derivative composition formula that sums over exponent tuples
(q_1, ..., q_k) with q_1 + 2 q_2 + ... + k q_k = k, evaluating iterated
directional derivatives of phi at f_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import matrices as mx
from .errors import InternalConsistencyError, StructuralError, ValidationError
from .lie import Representation
from .matrices import Scalar, scalar
from .poly import (
    STATE,
    Monomial,
    Polynomial,
    Ring,
    Var,
    VariableBlock,
    VectorField,
    substitute_curve,
)
from .takiff_algebra import LiftedRepresentation, build_lift


def _state_coordinates(ring: Ring, space_dim: int) -> list[Var]:
    coords = ring.state_variables()
    if len(coords) != space_dim:
        raise StructuralError(
            f"state blocks of {ring.names()} have total size {len(coords)}, "
            f"expected {space_dim}")
    return coords


def killing_velocity(rep: Representation, x_index: int, ring: Ring,
                     coords: Sequence[Var]) -> tuple[Polynomial, ...]:
    """Components of the Killing field of basis element x_index over ``ring``.

    ``coords`` are the ring variables standing for the coordinates of the
    representation space, in order; entry i is the linear polynomial
    (rho(x) v)_i in them.
    """
    if len(coords) != rep.space_dim:
        raise StructuralError(
            f"{len(coords)} coordinates for representation space {rep.space_dim}")
    return tuple(
        Polynomial.linear(ring, {coords[b]: row[b] for b in range(len(coords)) if row[b]})
        for row in rep.matrices[x_index])


def apply_killing(rep: Representation, x_index: int, phi: Polynomial) -> Polynomial:
    """Exact action of the Killing field of basis element x_index on phi."""
    if not 0 <= x_index < rep.algebra.dim:
        raise StructuralError(f"basis index {x_index} out of range")
    coords = phi.ring.state_variables()
    velocity = killing_velocity(rep, x_index, phi.ring, coords)
    return phi.directional_derivative(dict(zip(coords, velocity)))


def is_invariant(rep: Representation, phi: Polynomial) -> bool:
    return all(apply_killing(rep, i, phi).is_zero() for i in range(rep.algebra.dim))


@dataclass(frozen=True)
class InvariantFamily:
    """Generators of an invariant subalgebra, verified at construction."""

    rep: Representation
    generators: tuple[Polynomial, ...]
    label: str = ""

    def __post_init__(self):
        for k, phi in enumerate(self.generators):
            if not is_invariant(self.rep, phi):
                raise ValidationError(
                    f"generator {k} of family {self.label!r} is not invariant")


def quadratic_invariant(gram: Sequence[Sequence[Scalar]], ring: Ring) -> Polynomial:
    """The quadratic (1/2) B(v, v) over the ring's single state block."""
    coords = ring.state_variables()
    n = len(coords)
    gram = mx.mat(gram)
    if mx.shape(gram) != (n, n):
        raise StructuralError("Gram size does not match state dimension")
    # (1/2) sum_i x_i (G x)_i
    half_gx = [Polynomial.linear(ring, {coords[j]: g for j, g in enumerate(row) if g}) / 2
               for row in gram]
    return Polynomial.combination(
        ring, ((Polynomial.variable(ring, v), row) for v, row in zip(coords, half_gx)))


# ---------------------------------------------------------------------------
# Lifting invariants to V_m
# ---------------------------------------------------------------------------

def default_lift_blocks(level: int, block_size: int) -> tuple[VariableBlock, ...]:
    return tuple(VariableBlock(f"f{k}", block_size, STATE) for k in range(level + 1))


def lift_invariant(lifted: LiftedRepresentation, phi: Polynomial,
                   allow_non_invariant: bool = False) -> list[Polynomial]:
    """All m+1 curve coefficients of an invariant phi, over blocks f_0..f_m.

    The coefficients live over ``default_lift_blocks(m, n)``, the blocks
    f0..fm of V_m. phi must be invariant for the base representation; the
    lift of a non-invariant function is still well defined as a t-expansion
    but loses the invariance guarantee, so it is refused unless explicitly
    allowed.
    """
    if len(phi.ring.blocks) != 1 or phi.ring.blocks[0].size != lifted.block_size:
        raise StructuralError(
            f"phi must live over a single block of size {lifted.block_size}")
    if not allow_non_invariant and not is_invariant(lifted.base_rep, phi):
        raise ValidationError(
            "phi is not invariant for the base representation "
            "(pass allow_non_invariant=True to lift anyway)")
    return substitute_curve(phi, default_lift_blocks(lifted.level, lifted.block_size))


def lift_family(lifted: LiftedRepresentation, family: InvariantFamily) -> list[Polynomial]:
    """Every curve coefficient of every generator, in generator-major order."""
    out: list[Polynomial] = []
    for phi in family.generators:
        out.extend(lift_invariant(lifted, phi))
    return out


def _weighted_partitions(k: int) -> Iterator[tuple[int, ...]]:
    """All (q_1, ..., q_k) with q_1 + 2 q_2 + ... + k q_k = k, by direct recursion."""

    def rec(j: int, remaining: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if j == k:
            if remaining % k == 0:
                yield tuple(prefix + [remaining // k])
            return
        for q in range(remaining // j + 1):
            yield from rec(j + 1, remaining - j * q, prefix + [q])

    if k == 0:
        yield ()
        return
    yield from rec(1, k, [])


def faa_di_bruno_lift(phi: Polynomial, m: int) -> list[Polynomial]:
    """Curve coefficients of phi computed from higher directional derivatives.

    Independent of the t-expansion path: coefficient k is assembled as

        sum over (q_1..q_k), sum j*q_j = k, of
            (1 / prod q_j!) * D_{f_1}^{q_1} ... D_{f_k}^{q_k} phi  at  f_0,

    where D_{f_j} phi = sum_i f_{j,i} d phi / d x_i is the directional
    derivative along block f_j. The coefficients live over
    ``default_lift_blocks(m, n)``. All arithmetic is exact.
    """
    if len(phi.ring.blocks) != 1:
        raise StructuralError("phi must live over a single block")
    n = phi.ring.blocks[0].size
    blocks = default_lift_blocks(m, n)
    x_block = VariableBlock("x", n, STATE)
    target = Ring(blocks)
    work = Ring((x_block,) + blocks[1:])
    phi_work = Polynomial(work, {_rename_block(mono, "x"): c
                                 for mono, c in phi.terms.items()})
    into_f0 = {("x", i): Polynomial.variable(target, (blocks[0].name, i))
               for i in range(n)}

    # directions[j - 1] is the velocity x_i -> f_{j,i} of D_{f_j}
    directions = [{("x", i): Polynomial.variable(work, (b.name, i)) for i in range(n)}
                  for b in blocks[1:]]

    out = [phi_work.substitute(into_f0, target)]
    for k in range(1, m + 1):
        total = Polynomial.zero(target)
        for q in _weighted_partitions(k):
            term = phi_work
            for qj, direction in zip(q, directions):
                for _ in range(qj):
                    term = term.directional_derivative(direction)
                if term.is_zero():
                    break
            if term.is_zero():
                continue
            denom = math.prod(math.factorial(qj) for qj in q)
            total = total + term.substitute(into_f0, target) / denom
        out.append(total)
    return out


def _rename_block(mono: Monomial, new: str) -> Monomial:
    """Rename every variable of a single-block monomial into block ``new``."""
    return Monomial.from_map({(new, idx): e for (_, idx), e in mono})


def extract_linear_part(phi_k: Polynomial, k: int) -> tuple[Polynomial, Polynomial]:
    """Split a curve coefficient into its top-block-linear part and remainder.

    For k >= 1 coefficient k is affine in the block f_k: the linear part is
    the pairing of dphi(f_0) with f_k and the remainder is free of f_k. The
    split returns (linear part, remainder); any term of degree two or more in
    f_k contradicts that structure and raises an internal-consistency error.
    (Coefficient 0 is phi(f_0) itself and admits no such split.)
    """
    name = f"f{k}"
    parts = phi_k.homogeneous_components(name)
    bad = [d for d in parts if d >= 2]
    if bad:
        raise InternalConsistencyError(
            f"terms of degree {bad} in block {name!r}; expected degree <= 1")
    zero = Polynomial.zero(phi_k.ring)
    return parts.get(1, zero), parts.get(0, zero)


def cylindrical_invariance_check(lifted: LiftedRepresentation,
                                 theta: Polynomial) -> tuple[bool, bool]:
    """Invariance of a top-block-free function, tested at both levels.

    theta is a function on V_{m-1}: its ring is exactly the blocks
    f0..f_{m-1} of ``default_lift_blocks(m - 1, n)``. The first boolean views
    theta as a function on V_m constant in the top block f_m and tests
    invariance for the level-m action; the second tests invariance for the
    level-(m-1) action directly. The two answers agree identically.
    """
    m = lifted.level
    if m < 1:
        raise StructuralError("cylindrical check needs level >= 1")
    n = lifted.block_size
    if theta.ring.blocks != default_lift_blocks(m - 1, n):
        raise StructuralError(
            f"theta must live over the {m} blocks f0..f{m - 1} of size {n}, "
            f"got {theta.ring.names()}")
    as_level_m = is_invariant(lifted.rep, theta.cast(Ring(default_lift_blocks(m, n))))
    as_level_m_minus_1 = is_invariant(build_lift(lifted.base_rep, m - 1).rep, theta)
    return (as_level_m, as_level_m_minus_1)


# ---------------------------------------------------------------------------
# Pointwise orbit tangency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangencyResult:
    point: tuple[Scalar, ...]
    member: bool
    witness: tuple[Scalar, ...] | None


def tangency_check(rep: Representation, fld: VectorField,
                   points: Sequence[Sequence[Scalar]],
                   parameter_values: Sequence[Sequence[Scalar]] | None = None,
                   ) -> list[TangencyResult]:
    """Pointwise membership of field values in the span of Killing directions.

    At each sample point v the field value a(w, v) is compared, by an exact
    rank test, with the span of {rho(x_i) v}; when the value lies in the span
    the witness coefficients of one exact combination are reported.
    Non-membership is a result, not an error. A field with parameters needs
    exactly one row of values per point, and a field without them takes none.
    """
    coords = _state_coordinates(fld.ring, rep.space_dim)
    param_vars: list[Var] = []
    for b in fld.ring.parameter_blocks():
        param_vars.extend(b.variables())
    if not param_vars and parameter_values is not None:
        raise StructuralError("parameter values given for a field without parameters")
    if param_vars and (parameter_values is None or len(parameter_values) != len(points)):
        rows = 0 if parameter_values is None else len(parameter_values)
        raise StructuralError(
            f"parameter values: {rows} rows for {len(points)} points, "
            "expected one row per point")
    results = []
    for idx, point in enumerate(points):
        if len(point) != len(coords):
            raise StructuralError(
                f"point {idx} has {len(point)} coordinates, expected {len(coords)}")
        vec = tuple(map(scalar, point))
        assignment = dict(zip(coords, vec))
        if param_vars:
            values = parameter_values[idx]
            if len(values) != len(param_vars):
                raise StructuralError(
                    f"point {idx}: {len(values)} parameter values for "
                    f"{len(param_vars)} parameter variables")
            assignment.update(zip(param_vars, map(scalar, values)))
        value = tuple(p.evaluate(assignment) for p in fld.components)
        columns = tuple(mx.mat_vec(m, vec) for m in rep.matrices)
        system = mx.transpose(columns)
        witness = mx.solve(system, value)
        results.append(TangencyResult(vec, witness is not None, witness))
    return results
