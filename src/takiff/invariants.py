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
from .takiff_algebra import LiftedRepresentation, check_level, require_level


def _lift_blocks(ring: Ring, block_size: int) -> tuple[VariableBlock, ...]:
    """The state blocks f_0..f_m of a function on V_m, each of ``block_size``."""
    blocks = ring.state_blocks()
    if not blocks or any(b.size != block_size for b in blocks):
        raise StructuralError(
            f"state blocks of {ring.names()} have sizes {[b.size for b in blocks]}, "
            f"expected one or more of size {block_size}")
    return blocks


def apply_killing(rep: Representation, x_index: int, phi: Polynomial) -> Polynomial:
    """The Killing field of x_i T^r in g_m on phi, with x_index = r * dim g + i.

    rep is the base representation; m is read from phi's state blocks
    f_0..f_m, each of rep's space dimension, as ``VectorField.level`` reads it.
    x_i T^r sends f_s to rho(x_i) f_s in block r + s, so the field is
    sum_{s,t,u} rho(x_i)_tu f_{s,u} dphi/df_{r+s,t}, read from rho's sparse rows.
    """
    blocks = _lift_blocks(phi.ring, rep.space_dim)
    if not 0 <= x_index < len(blocks) * rep.algebra.dim:
        raise StructuralError(f"basis index {x_index} out of range")
    r, i = divmod(x_index, rep.algebra.dim)
    triples = []
    for source, target in zip(blocks, blocks[r:]):
        for t, row in enumerate(rep._sparse_rows[i]):
            if row:
                dphi = phi.derivative((target.name, t))
                triples += [(entry, dphi, (source.name, u)) for u, entry in row.items()]
    return Polynomial.variable_combination(phi.ring, triples)


def is_invariant(rep: Representation, phi: Polynomial) -> bool:
    """Whether every Killing field of g_m kills phi; rep and m as in ``apply_killing``."""
    count = len(_lift_blocks(phi.ring, rep.space_dim)) * rep.algebra.dim
    return all(apply_killing(rep, k, phi).is_zero() for k in range(count))


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
    # (1/2) sum_{i,j} G_ij x_i x_j
    xs = [Polynomial.variable(ring, v) for v in coords]
    return Polynomial.variable_combination(ring, (
        (g, x, coords[j]) for x, row in zip(xs, gram) for j, g in enumerate(row))) / 2


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


# Most weighted partitions faa_di_bruno_lift enumerates over its coefficients
# 1..m, that is sum_{k<=m} p(k): m <= 25 fits, and m = 26 needs 11,731.
MAX_FAA_DI_BRUNO_PARTITIONS = 10_000


def _partition_total(m: int, bound: int) -> int:
    """sum_{k=1..m} p(k) by Euler's pentagonal recurrence, or the first partial
    sum above ``bound``; the work stops there, whatever m is."""
    p, total = [1], 0
    while len(p) <= m and total <= bound:
        k, pk, j = len(p), 0, 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= k:
                    pk += sign * p[k - g]
            j += 1
        p.append(pk)
        total += pk
    return total


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
    derivative along block f_j. phi is placed on block f_0 of the target
    ring ``default_lift_blocks(m, n)``, where every derivative is taken and
    every coefficient lives. The level m must be an int >= 0 whose
    coefficients need at most MAX_FAA_DI_BRUNO_PARTITIONS partitions in all,
    counted before any is enumerated. All arithmetic is exact.
    """
    require_level(m)
    if _partition_total(m, MAX_FAA_DI_BRUNO_PARTITIONS) > MAX_FAA_DI_BRUNO_PARTITIONS:
        raise StructuralError(
            f"level {m} needs more than {MAX_FAA_DI_BRUNO_PARTITIONS} weighted partitions")
    if len(phi.ring.blocks) != 1:
        raise StructuralError("phi must live over a single block")
    n = phi.ring.blocks[0].size
    blocks = default_lift_blocks(m, n)
    ring = Ring(blocks)
    f0 = blocks[0].name
    phi0 = Polynomial(ring, {Monomial.from_map({(f0, i): e for (_, i), e in mono}): c
                             for mono, c in phi.terms.items()})
    # directions[j - 1] is the velocity f_{0,i} -> f_{j,i} of D_{f_j}; no velocity
    # involves f_0, so each derivative taken over this ring is already the one
    # at f_0, and nothing is substituted
    directions = [{(f0, i): Polynomial.variable(ring, (b.name, i)) for i in range(n)}
                  for b in blocks[1:]]

    out = [phi0]
    for k in range(1, m + 1):
        total = Polynomial.zero(ring)
        for q in _weighted_partitions(k):
            term = phi0
            for qj, direction in zip(q, directions):
                for _ in range(qj):
                    term = term.directional_derivative(direction)
                if term.is_zero():
                    break
            if term.is_zero():
                continue
            denom = math.prod(math.factorial(qj) for qj in q)
            total = total + term / denom
        out.append(total)
    return out


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
    level-(m-1) action directly. The two answers agree identically. Both read
    the base representation, bounded by ``check_level`` as g_m is; no g_m is built.
    """
    m = lifted.level
    if m < 1:
        raise StructuralError("cylindrical check needs level >= 1")
    n = lifted.block_size
    if theta.ring.blocks != default_lift_blocks(m - 1, n):
        raise StructuralError(
            f"theta must live over the {m} blocks f0..f{m - 1} of size {n}, "
            f"got {theta.ring.names()}")
    check_level(lifted.base_rep.algebra.dim, m)
    return (is_invariant(lifted.base_rep, theta.cast(Ring(default_lift_blocks(m, n)))),
            is_invariant(lifted.base_rep, theta))


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
    coords = fld.ring.state_variables()
    if len(coords) != rep.space_dim:
        raise StructuralError(f"state blocks of {fld.ring.names()} have total size "
                              f"{len(coords)}, expected {rep.space_dim}")
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
