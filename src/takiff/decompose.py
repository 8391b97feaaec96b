"""Decomposition of invariant-annihilating vector fields into Killing combinations.

A polynomial vector field a on V_m = V^(m+1), with an optional parameter
block w, annihilates the lifted invariants when

    sum_{j,i} a_{j,i} dPhi/df_{j,i} = 0   for every lifted generator Phi.

The Dixmier property asserts that such a field is a Killing combination:
a_j = sum_{r <= j} rho(b_r) f_{j-r} for polynomial coefficients b. This
module makes that constructive. The base case (m = 0, quadratic invariant
(1/2) B(v, v)) is solved in closed form by a homotopy: with c = G a, so that
sum c_i x_i = 0, and c_i^(d) the part of c_i of degree d in x, the
antisymmetric matrix

    b_ij = sum_d (dc_i^(d)/dx_j - dc_j^(d)/dx_i) / (d + 1)

satisfies b x = c, degree by degree, by the Euler identity together with the
derivative of the syzygy (sum_j x_j dc_j/dx_i = -c_i). Since so(B) has the
coordinates X -> the entries above the diagonal of G X, the coefficients are
read from those entries of b, and G is never inverted. The higher levels form
a triangular system, solved in order j = 0..m:

    rho(b_j) f_0 = a_j - sum_{r<j} rho(b_r) f_{j-r},

one base solve per level, all over one ring in which f_0 is the state block
and f_1..f_m and the parameters w are parameters. The correction
sum_{r<j} rho(b_r) f_{j-r} reads only the levels already solved. That block
sum is written once, in ``_block_sum``: the correction is its r < j case and
the reconstruction a_j of verify_decomposition its r <= j case, and one
table of Killing velocities serves every level.

Two guards remain on that path. Each level j pairs its residual with the
gradient of every base invariant at f_0. That is the whole annihilation check:
if b_0..b_{j-1} reconstruct a_0..a_{j-1}, the derivative of Phi_j along a is
exactly this pairing, since the Killing combination annihilates Phi_j and the
f_j-gradient of Phi_j is the gradient of phi at f_0. So a refusal at level j
first confirms that premise, and a faulty solver is never blamed on the field.

Decompositions are not unique; only the reconstruction identity is promised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Protocol, Sequence

from . import matrices as mx
from .errors import (
    DecompositionRefused,
    InternalConsistencyError,
    StructuralError,
    ValidationError,
)
from .invariants import (
    InvariantFamily,
    _rename_block,
    killing_velocity,
    quadratic_invariant,
)
from .lie import BilinearForm, Representation
from .matrices import Scalar
from .poly import (
    PARAMETER,
    STATE,
    Polynomial,
    Ring,
    Var,
    VariableBlock,
    VectorField,
    matrix_apply,
)
from .takiff_algebra import LiftedRepresentation


@dataclass(frozen=True)
class Decomposition:
    """Killing-combination coefficients b_0..b_m, one tuple per level.

    Level r holds dim(g) polynomials over the field's ring; the promised
    identity is a_j = sum_{r <= j} rho(b_r) f_{j-r}, checked by
    verify_decomposition.
    """

    ring: Ring
    coefficients: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        if not self.coefficients:
            raise StructuralError("a decomposition needs at least level 0")
        width = len(self.coefficients[0])
        for level in self.coefficients:
            if len(level) != width:
                raise StructuralError("all levels must have the same number of coefficients")
            for p in level:
                if p.ring != self.ring:
                    raise StructuralError("all coefficients must share the decomposition's ring")

    @property
    def level(self) -> int:
        return len(self.coefficients) - 1


def annihilates_invariants(field: VectorField,
                           lifted_generators: Sequence[Polynomial],
                           ) -> tuple[bool, Polynomial | None]:
    """Whether the field kills every lifted generator, with a witness.

    Returns (True, None) when sum_{j,i} a_{j,i} dPhi/df_{j,i} vanishes
    identically for every generator Phi, else (False, first nonzero residual).
    """
    ring = field.ring
    velocity = dict(zip(ring.state_variables(), field.components))
    for phi in lifted_generators:
        for b in phi.ring.blocks:
            if not ring.has_block(b.name) or ring.block(b.name).size != b.size:
                raise StructuralError(
                    f"generator block {b.name!r} missing from field ring {ring.names()}")
        residual = phi.cast(ring).directional_derivative(velocity)
        if not residual.is_zero():
            return False, residual
    return True, None


# ---------------------------------------------------------------------------
# Base case on V: quadratic invariant, homotopy formula
# ---------------------------------------------------------------------------

def _homotopy(form: BilinearForm, field: VectorField) -> list[list[Polynomial]]:
    """The antisymmetric homotopy matrix b with b x = G a, checked exactly.

    The field must satisfy B(a(w, x), x) = 0 as a polynomial; that syzygy is
    checked first and its failure is a refusal carrying the residual. Each
    entry b_ij above the diagonal is one combination over all x-degrees d of
    the pairs (1/(d+1), dc_i^(d)/dx_j) and (-1/(d+1), dc_j^(d)/dx_i), and
    b_ji = -b_ij. The reconstruction b x = c is re-verified before returning.
    """
    blocks = field.state_blocks
    if len(blocks) != 1:
        raise StructuralError("the base solve expects a single state block")
    x = blocks[0]
    n = x.size
    if form.size != n:
        raise StructuralError(f"form size {form.size} does not match state size {n}")
    ring = field.ring
    xs = [Polynomial.variable(ring, (x.name, j)) for j in range(n)]

    c = matrix_apply(form.gram, field.components)
    syzygy = Polynomial.combination(ring, zip(c, xs))
    if not syzygy.is_zero():
        raise DecompositionRefused(
            "field does not annihilate the quadratic invariant", witness=syzygy)

    by_degree = [p.homogeneous_components(x.name) for p in c]
    for i, parts in enumerate(by_degree):
        if 0 in parts:
            # impossible: the degree-1 part of the syzygy is sum_i c_i^(0) x_i
            raise InternalConsistencyError(
                f"x-free component {parts[0]} in c_{i} despite a zero syzygy")
    zero = Polynomial.zero(ring)
    b = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = Polynomial.combination(ring, [
                *((Fraction(1, d + 1), ci.derivative((x.name, j)))
                  for d, ci in by_degree[i].items()),
                *((Fraction(-1, d + 1), cj.derivative((x.name, i)))
                  for d, cj in by_degree[j].items())])
            b[j][i] = -b[i][j]
    for i in range(n):
        if Polynomial.combination(ring, zip(b[i], xs)) != c[i]:
            raise InternalConsistencyError(
                f"homotopy reconstruction failed at component {i}")
    return b


class BaseSolver(Protocol):
    """What the decomposition needs from a level-0 solver.

    ``rep`` and ``family`` identify the base case; ``solve`` takes a field on
    V (one state block, any parameter blocks) and returns one polynomial
    coefficient per basis element, or raises DecompositionRefused. A level-m
    decomposition calls it m + 1 times, once per level, on fields over one
    ring: f_0 is the state block, f_1..f_m and w are parameters.
    """

    rep: Representation
    family: InvariantFamily

    def solve(self, field: VectorField) -> tuple[Polynomial, ...]: ...


class QuadraticBaseSolver:
    """Base solver for a representation whose image is all of so(B).

    Validated at construction: B symmetric nondegenerate, the quadratic
    (1/2) B(v, v) invariant, dim(g) equal to dim so(B) = n(n-1)/2, and
    rho injective on the basis. Then rho(g) = so(B), with coordinates
    X -> the entries above the diagonal of G X: the d x d matrix U of those
    entries of each G rho(x_k) is inverted once, and a solve applies U^(-1)
    to the entries above the diagonal of the homotopy matrix b (b x = G a).
    """

    def __init__(self, rep: Representation, form: BilinearForm):
        n = rep.space_dim
        if form.size != n:
            raise StructuralError(
                f"form size {form.size} does not match representation space {n}")
        if not form.is_nondegenerate():
            raise ValidationError("the bilinear form must be nondegenerate")
        d = rep.algebra.dim
        if d != n * (n - 1) // 2:
            raise ValidationError(
                f"dim(g) = {d} but dim so(B) = {n * (n - 1) // 2}; "
                "the quadratic solver needs equality")
        self.rep = rep
        self.form = form
        ring = Ring.of(VariableBlock("x", n, STATE))
        self.family = InvariantFamily(
            rep, (quadratic_invariant(form.gram, ring),), "quadratic")
        # The family check proved every G rho(x_k) antisymmetric, so its entries
        # above the diagonal determine it; U is invertible iff rho is injective,
        # and then, with the dimension count, rho(g) = so(B).
        self._upper = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        images = [mx.mul(form.gram, m) for m in rep.matrices]
        try:
            self._coordinates = mx.inverse(
                tuple(tuple(image[i][j] for image in images) for i, j in self._upper))
        except ValidationError:
            raise ValidationError(
                "basis images are linearly dependent; cannot span so(B)") from None

    def solve(self, field: VectorField) -> tuple[Polynomial, ...]:
        b = _homotopy(self.form, field)
        return matrix_apply(self._coordinates, [b[i][j] for i, j in self._upper])


class TrivialBaseSolver:
    """Base solver for the zero action: only the zero field decomposes.

    The invariant family is every coordinate function, so a field annihilates
    it exactly when every component vanishes; the decomposition is then zero.
    """

    def __init__(self, rep: Representation):
        for i, m in enumerate(rep.matrices):
            if not mx.is_zero(m):
                raise ValidationError(
                    f"basis element {i} acts nontrivially; the trivial solver "
                    "needs the zero action")
        self.rep = rep
        n = rep.space_dim
        ring = Ring.of(VariableBlock("x", n, STATE))
        self.family = InvariantFamily(
            rep, tuple(Polynomial.variable(ring, ("x", i)) for i in range(n)),
            "coordinates")

    def solve(self, field: VectorField) -> tuple[Polynomial, ...]:
        if len(field.state_blocks) != 1:
            raise StructuralError("the base solve expects a single state block")
        for p in field.components:
            if not p.is_zero():
                raise DecompositionRefused(
                    "nonzero field under the zero action", witness=p)
        zero = Polynomial.zero(field.ring)
        return (zero,) * self.rep.algebra.dim


def builtin_solver(rep: Representation,
                   gram: Sequence[Sequence[Scalar]] | None = None) -> BaseSolver:
    """The built-in solver for a representation: trivial or quadratic.

    The zero action gets the trivial solver. Anything else gets the quadratic
    solver for the given Gram matrix (identity when omitted); its constructor
    rejects representations it cannot handle.
    """
    if all(mx.is_zero(m) for m in rep.matrices):
        return TrivialBaseSolver(rep)
    if gram is None:
        gram = mx.identity(rep.space_dim)
    return QuadraticBaseSolver(rep, BilinearForm(gram))


# ---------------------------------------------------------------------------
# The triangular system over the levels
# ---------------------------------------------------------------------------

def _block_velocities(rep: Representation, ring: Ring,
                      blocks: Sequence[VariableBlock]):
    """velocity(i, k): the Killing velocity of basis element i on blocks[k], built once."""
    return cache(lambda i, k: killing_velocity(rep, i, ring, list(blocks[k].variables())))


def _block_sum(rep: Representation, ring: Ring,
               coefficients: Sequence[Sequence[Polynomial]],
               velocity, j: int) -> tuple[Polynomial, ...]:
    """sum_r rho(b_r) f_{j-r} over the given levels b_0, b_1, ... of coefficients.

    ``velocity`` comes from ``_block_velocities`` over ``ring``. This is the
    one place the Toeplitz block sum of rho_m(b) F is written.
    """
    d = rep.algebra.dim
    pairs = []
    for r, level in enumerate(coefficients):
        if len(level) != d:
            raise StructuralError(f"{len(level)} coefficients for {d} basis elements")
        pairs += [(coeff, velocity(i, j - r))
                  for i, coeff in enumerate(level) if not coeff.is_zero()]
    return tuple(Polynomial.combination(ring, ((c, vel[t]) for c, vel in pairs))
                 for t in range(rep.space_dim))


def reconstruct_components(lifted: LiftedRepresentation, ring: Ring,
                           coefficients: Sequence[Sequence[Polynomial]],
                           ) -> tuple[Polynomial, ...]:
    """The field rho_m(b) F for given coefficients, block by block.

    Block j is sum_{r <= j} rho(b_r) f_{j-r} over the ring's state blocks.
    """
    blocks = ring.state_blocks()
    m = lifted.level
    if len(blocks) != m + 1:
        raise StructuralError(
            f"ring has {len(blocks)} state blocks, expected {m + 1}")
    if len(coefficients) != m + 1:
        raise StructuralError(
            f"{len(coefficients)} coefficient levels, expected {m + 1}")
    velocity = _block_velocities(lifted.base_rep, ring, blocks)
    return tuple(p for j in range(m + 1)
                 for p in _block_sum(lifted.base_rep, ring, coefficients[:j + 1], velocity, j))


def field_from_coefficients(lifted: LiftedRepresentation, ring: Ring,
                            coefficients: Sequence[Sequence[Polynomial]],
                            ) -> VectorField:
    """Manufacture the Killing combination rho_m(b) F as a vector field."""
    return VectorField(ring, reconstruct_components(lifted, ring, coefficients))


def verify_decomposition(lifted: LiftedRepresentation, field: VectorField,
                         dec: Decomposition) -> tuple[bool, tuple[Polynomial, ...]]:
    """Exact check of the reconstruction identity, with per-component residuals."""
    if dec.ring != field.ring:
        raise StructuralError("decomposition and field live over different rings")
    recon = reconstruct_components(lifted, field.ring, dec.coefficients)
    residuals = tuple(a - r for a, r in zip(field.components, recon))
    return all(p.is_zero() for p in residuals), residuals


def takiff_decompose(lifted: LiftedRepresentation, solver: BaseSolver,
                     field: VectorField) -> Decomposition:
    """Decompose an annihilating field on V_m into Killing coefficients.

    b_0..b_m are solved in order, each by one base solve of
    rho(b_j) f_0 = a_j - sum_{r<j} rho(b_r) f_{j-r} over one ring in which
    f_0 is the state block and everything else a parameter. A residual that
    does not annihilate the solver's invariants at f_0 is refused with the
    pairing as witness, once the levels below are confirmed to reconstruct
    a_0..a_{j-1}. A solver's own refusal at level j >= 1 names the level.
    """
    if solver.rep != lifted.base_rep:
        raise StructuralError(
            "the solver is registered for a different base representation")
    if field.level != lifted.level or field.block_size != lifted.block_size:
        raise StructuralError(
            f"field shape (level {field.level}, block {field.block_size}) does "
            f"not match the lift (level {lifted.level}, block {lifted.block_size})")
    m, n = lifted.level, field.block_size
    ring = field.ring
    blocks = field.state_blocks
    base_ring = ring
    for b in blocks[1:]:
        base_ring = base_ring.with_role(b.name, PARAMETER)
    if any(len(phi.ring.blocks) != 1 for phi in solver.family.generators):
        raise StructuralError("the solver's invariants must live over a single block")
    base_invariants = [
        Polynomial(base_ring, {_rename_block(mono, blocks[0].name): c
                               for mono, c in phi.terms.items()})
        for phi in solver.family.generators]
    velocity = _block_velocities(lifted.base_rep, ring, blocks)
    levels: list[tuple[Polynomial, ...]] = []
    for j in range(m + 1):
        residual = field.components[j * n:(j + 1) * n]
        if j:
            correction = _block_sum(lifted.base_rep, ring, levels, velocity, j)
            residual = [a - c for a, c in zip(residual, correction)]
        base_field = VectorField(base_ring, tuple(p.cast(base_ring) for p in residual))
        ok, pairing = annihilates_invariants(base_field, base_invariants)
        if not ok:
            for i in range(j):
                if _block_sum(lifted.base_rep, ring, levels[:i + 1], velocity, i) != \
                        field.components[i * n:(i + 1) * n]:
                    raise InternalConsistencyError(
                        f"the level-{i} coefficients do not reconstruct a_{i}")
            raise DecompositionRefused("field does not annihilate the lifted invariants",
                                       witness=pairing.cast(ring))
        try:
            coeffs = solver.solve(base_field)
        except DecompositionRefused as exc:
            if j == 0:
                raise
            raise DecompositionRefused(
                f"base solver refused the level-{j} residual: {exc}",
                witness=exc.witness) from exc
        levels.append(tuple(p.cast(ring) for p in coeffs))
    return Decomposition(ring, tuple(levels))


# ---------------------------------------------------------------------------
# Change of variables
# ---------------------------------------------------------------------------

def _blockwise_substitution(ring: Ring, matrix: Sequence[Sequence[Scalar]],
                            ) -> dict[Var, Polynomial]:
    """v -> matrix v on every state block, parameters untouched."""
    mapping: dict[Var, Polynomial] = {}
    for blk in ring.state_blocks():
        if len(matrix) != blk.size:
            raise StructuralError(
                f"matrix size {len(matrix)} does not fit block {blk.name!r}")
        for i in range(blk.size):
            mapping[(blk.name, i)] = Polynomial.linear(
                ring, {(blk.name, k): matrix[i][k]
                       for k in range(blk.size) if matrix[i][k]})
    return mapping


def transport_field(field: VectorField,
                    theta: Sequence[Sequence[Scalar]]) -> VectorField:
    """The conjugated field v -> theta a(theta^(-1) v), blockwise on V_m."""
    theta_inv = mx.inverse(theta)
    mapping = _blockwise_substitution(field.ring, theta_inv)
    pulled = [p.substitute(mapping, field.ring) for p in field.components]
    n = field.block_size
    out: list[Polynomial] = []
    for j in range(field.level + 1):
        out.extend(matrix_apply(theta, pulled[j * n:(j + 1) * n]))
    return VectorField(field.ring, tuple(out))


def transport_decomposition(dec: Decomposition,
                            theta: Sequence[Sequence[Scalar]]) -> Decomposition:
    """Precompose every coefficient with theta^(-1), blockwise on V_m."""
    theta_inv = mx.inverse(theta)
    mapping = _blockwise_substitution(dec.ring, theta_inv)
    return Decomposition(dec.ring, tuple(
        tuple(p.substitute(mapping, dec.ring) for p in level)
        for level in dec.coefficients))
