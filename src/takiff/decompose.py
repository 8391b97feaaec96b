"""Decomposition of invariant-annihilating vector fields into Killing combinations.

A polynomial vector field a on V_m = V^(m+1), with an optional parameter
block w, annihilates the lifted invariants when

    sum_{j,i} a_{j,i} dPhi/df_{j,i} = 0   for every lifted generator Phi.

The Dixmier property asserts that such a field is a Killing combination:
a_j = sum_{r <= j} rho(b_r) f_{j-r} for polynomial coefficients b. This
module makes that constructive. The base case (m = 0, quadratic invariant
(1/2) B(v, v)) is solved in closed form by a homotopy: with c = G a, so that
sum c_i x_i = 0, the antisymmetric matrix

    b_ij = H(dc_i/dx_j - dc_j/dx_i),

where H divides each term of degree e in x by e + 2, satisfies b x = c. On
the part of c of degree d = e + 1 in x, the curl times x is (d + 1) c by the
Euler identity together with the derivative of the syzygy
(sum_j x_j dc_j/dx_i = -c_i). Since so(B) has the coordinates X -> the
entries above the diagonal of G X, the coefficients are those entries of b
times one inverse U^(-1) built with the solver, and G is never inverted. Each
b_ij is linear in the H(da_l/dx_v), so each coefficient b_k is one fixed
combination R_k of them, resolved once with the solver as integer rows. A
solve checks the syzygy, groups the terms of a once by x-monomial and reads
each b_k in one accumulation (``poly._euler_readout``): c, b and the product
by U^(-1) are never built. The higher levels form a triangular system,
solved in order j = 0..m:

    rho(b_j) f_0 = a_j - sum_{r<j} rho(b_r) f_{j-r},

one base solve per level, all over one ring in which f_0 is the state block
and f_1..f_m and the parameters w are parameters. The right-hand side reads
only the levels already solved. That block sum is written once, in
``_block_sum``, which builds either the sum or, started from a_j, the residual
a_j - sum in one accumulation: the level's right-hand side is its r < j
residual, verify_decomposition's residuals are its r <= j case, and the
reconstruction of field_from_coefficients its r <= j sum. It reads the action
as integer numerators over one denominator, kept on the representation, takes
the lcm of the coefficients' denominators once, and feeds each nonzero entry
to ``poly._shifted_sum``, the one accumulation kernel of a linear action, as
an integer scale and a variable's key.

Each level is checked as it is solved: its residual minus rho(b_j) f_0 must
be zero; over all j, these checks are the reconstruction identity. The base
solve is the only annihilation check. As b_0..b_{j-1} reconstruct a_0..a_{j-1}, the
derivative of Phi_j along a is the pairing of the level-j residual with the
gradient of phi at f_0, since the Killing combination annihilates Phi_j and
the f_j-gradient of Phi_j is the gradient of phi at f_0. A solver refuses
exactly the fields with a nonzero pairing (BaseSolver), so its refusal at
level j is the field's: a faulty solver is never blamed on the field.

Decompositions are not unique; only the reconstruction identity is promised.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Protocol, Sequence

from . import matrices as mx
from .errors import (
    DecompositionRefused,
    InternalConsistencyError,
    StructuralError,
    ValidationError,
)
from .invariants import InvariantFamily, quadratic_invariant
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
    _euler_readout,
    _require_ring,
    _shifted_sum,
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
                if p.ring is not self.ring and p.ring != self.ring:
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

def _readout_rows(gram: Sequence[Sequence[Scalar]], coordinates: Sequence[Sequence[Scalar]],
                  ) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """Each row of ``coordinates``, read on the homotopy's entries b_ij, i < j,
    as weights of the H(da_l/dx_v): ``poly._euler_readout``'s rows.

    b_ij = H(dc_i/dx_j - dc_j/dx_i) with c = G a, so sum_{i<j} u_ij b_ij weighs
    H(da_l/dx_v) by (G A)_lv, A the antisymmetric matrix with u above its
    diagonal (G is symmetric). Each row is (D, ((l, v, D (G A)_lv), ...)), D
    the lcm of the row's denominators, zero weights dropped.
    """
    n = len(gram)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gram_rows = mx.sparse_rows(gram)
    rows = []
    for u in coordinates:
        # column v of A: the nonzero A_iv, from the nonzero u_ij
        columns: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
        for (i, j), x in zip(upper, u):
            if x:
                columns[j].append((i, x))
                columns[i].append((j, -x))
        weights = {}
        for l, g_row in enumerate(gram_rows):
            for v, column in enumerate(columns):
                w = sum(g_row.get(i, 0) * x for i, x in column)
                if w:
                    weights[l, v] = w
        den = lcm(*(x.denominator for x in weights.values()))
        rows.append((den, tuple((l, v, x.numerator * (den // x.denominator))
                                for (l, v), x in weights.items())))
    return tuple(rows)


def _readout(form: BilinearForm, rows: Sequence[tuple[int, Sequence[tuple[int, int, int]]]],
             field: VectorField) -> tuple[Polynomial, ...]:
    """The rows of ``poly._euler_readout`` on a field on V that annihilates (1/2) B(v, v).

    The field must satisfy B(a(w, x), x) = sum_{i,l} G_il a_l x_i = 0 as a
    polynomial, one ``variable_combination`` over the nonzero entries of G;
    that syzygy is the only check here, and its failure is a refusal carrying
    the residual.
    """
    blocks = field.state_blocks
    if len(blocks) != 1:
        raise StructuralError("the base solve expects a single state block")
    x = blocks[0]
    if form.size != x.size:
        raise StructuralError(f"form size {form.size} does not match state size {x.size}")
    a = field.components
    syzygy = Polynomial.variable_combination(field.ring, (
        (g, a[l], (x.name, i)) for i, row in enumerate(form.gram)
        for l, g in enumerate(row) if g))
    if not syzygy.is_zero():
        raise DecompositionRefused(
            "field does not annihilate the quadratic invariant", witness=syzygy)
    return _euler_readout(a, x.name, rows)


def _homotopy(form: BilinearForm, field: VectorField) -> list[list[Polynomial]]:
    """The antisymmetric homotopy matrix b with b x = G a.

    Each entry above the diagonal is b_ij = H(dc_i/dx_j - dc_j/dx_i) for
    c = G a, with H dividing each term of x-degree e by e + 2: the row (i, j)
    of the identity, read by ``_readout``, which checks the syzygy first.
    b_ji = -b_ij.
    """
    n = form.size
    pairs = mx.identity(n * (n - 1) // 2)
    upper = iter(_readout(form, _readout_rows(form.gram, pairs), field))
    zero = Polynomial.zero(field.ring)
    b = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = next(upper)
            b[j][i] = -b[i][j]
    return b


class BaseSolver(Protocol):
    """What the decomposition needs from a level-0 solver.

    ``rep`` and ``family`` identify the base case. ``solve`` takes a field a on V
    (one state block, any parameter blocks) and either returns one exact
    polynomial coefficient per basis element, or refuses exactly the fields that
    do not annihilate ``family``, raising DecompositionRefused with the first
    nonzero pairing sum_i a_i dphi/dx_i as witness; takiff_decompose has no other
    annihilation check. A level-m decomposition calls it m + 1 times, once per
    level, on fields over one ring: f_0 is the state block, f_1..f_m and w are
    parameters. Each returned level is checked against its field, so a faulty
    solver is an InternalConsistencyError, never a wrong decomposition.
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
    entries of each G rho(x_k) is inverted once, and b_k is row k of U^(-1)
    applied to the entries b_ij, i < j, of the homotopy matrix (b x = G a).
    Those are linear in the H(da_l/dx_v), so construction also resolves, once,
    the readout

        R_k[(l, v)] = sum_{i<j} U^(-1)[k][(i, j)] (G_il [v = j] - G_jl [v = i])

    as integer numerators over one denominator per row (``_readout_rows``). A
    solve checks the layout and the syzygy and reads each b_k in one
    accumulation over a's terms (``_readout``): no G a, no b_ij and no product
    by U^(-1) is built. For so(n) with G = I, U^(-1) = -I and R_k holds two
    unit weights.
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
        gram_rows = mx.sparse_rows(form.gram)
        images = []  # the nonzero entries (i, j), i < j, of each G rho(x_k)
        for rows in rep._sparse_rows:
            image: mx.SparseMatrix = {}
            for i, g_row in enumerate(gram_rows):
                for l, g in g_row.items():
                    for j, x in rows[l].items():
                        if j > i:
                            image[i, j] = image.get((i, j), 0) + g * x
            images.append(image)
        try:
            self._coordinates = mx.inverse(
                tuple(tuple(image.get((i, j), 0) for image in images)
                      for i in range(n) for j in range(i + 1, n)))
        except ValidationError:
            raise ValidationError(
                "basis images are linearly dependent; cannot span so(B)") from None
        self._rows = _readout_rows(form.gram, self._coordinates)

    def solve(self, field: VectorField) -> tuple[Polynomial, ...]:
        return _readout(self.form, self._rows, field)


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

def _block_sum(rep: Representation, ring: Ring,
               coefficients: Sequence[Sequence[Polynomial]], j: int,
               start: Sequence[Polynomial] | None = None) -> tuple[Polynomial, ...]:
    """sum_r rho(b_r) f_{j-r} over the given levels b_0, b_1, ... of coefficients,
    or, given ``start`` = a, the residual a - sum_r rho(b_r) f_{j-r}.

    Component t is a_t - sum_{r,i,s} rho(x_i)_ts b_{r,i} f_{j-r,s} over the
    state blocks f_k of ``ring`` (a_t = 0 without ``start``). The action is
    read as integer numerators over one denominator (the representation's
    ``_integer_rows``) and the lcm of the coefficients' denominators is taken
    once, so each nonzero entry (t, s) of each nonzero b_{r,i} reaches
    ``poly._shifted_sum`` as an integer scale, the bit offset of f_{j-r,s} and
    the numerators of b_{r,i}; component t is that one accumulation, started
    from a_t. The one place the block sum of rho_m(b) F is written.
    """
    d, n = rep.algebra.dim, rep.space_dim
    blocks = ring.state_blocks()
    shift = ring._shift
    rep_den, action = rep._integer_rows
    # (coefficient, bit offsets of its block f_{j-r}, rows of rho(x_i)) for
    # each nonzero coefficient
    terms = []
    for r, level in enumerate(coefficients):
        if len(level) != d:
            raise StructuralError(f"{len(level)} coefficients for {d} basis elements")
        block = blocks[j - r]
        if block.size != n:
            raise StructuralError(
                f"block {block.name!r} has size {block.size}, expected {n}")
        ones = [1 << shift[(block.name, s)] for s in range(n)]
        for coeff, rows in zip(level, action):
            if coeff._num:
                _require_ring(ring, coeff)
                terms.append((coeff, ones, rows))
    # every coefficient's numerators scaled by q to the lcm of their
    # denominators; the action's denominator times that lcm is the sum's
    common = lcm(*(coeff._den for coeff, _, _ in terms))
    base = rep_den * common
    terms = [(common // coeff._den, coeff._num, ones, rows) for coeff, ones, rows in terms]
    out = []
    for t in range(n):
        if start is None:
            den, factor, entries = base, 1, []
        else:
            a = start[t]
            _require_ring(ring, a)
            den = lcm(base, a._den)
            factor, entries = -(den // base), [(den // a._den, 0, a._num)]
        entries += [(factor * q * x, ones[s], num)
                    for q, num, ones, rows in terms for s, x in rows[t]]
        out.append(Polynomial._make(ring, _shifted_sum(entries), den))
    return tuple(out)


def _level_sums(lifted: LiftedRepresentation, ring: Ring,
            coefficients: Sequence[Sequence[Polynomial]],
            field: VectorField | None = None) -> tuple[Polynomial, ...]:
    """Block j is sum_{r <= j} rho(b_r) f_{j-r}, or a_j minus it given a field a.

    The ring must hold one state block per level, and the coefficients one
    tuple per level.
    """
    blocks = ring.state_blocks()
    m, n = lifted.level, lifted.block_size
    if len(blocks) != m + 1:
        raise StructuralError(
            f"ring has {len(blocks)} state blocks, expected {m + 1}")
    if len(coefficients) != m + 1:
        raise StructuralError(
            f"{len(coefficients)} coefficient levels, expected {m + 1}")
    return tuple(
        p for j in range(m + 1)
        for p in _block_sum(lifted.base_rep, ring, coefficients[:j + 1], j,
                            None if field is None else field.components[j * n:(j + 1) * n]))


def field_from_coefficients(lifted: LiftedRepresentation, ring: Ring,
                            coefficients: Sequence[Sequence[Polynomial]],
                            ) -> VectorField:
    """The Killing combination rho_m(b) F as a vector field, block by block.

    Block j is sum_{r <= j} rho(b_r) f_{j-r} over the ring's state blocks.
    """
    return VectorField(ring, _level_sums(lifted, ring, coefficients))


def _check_field_shape(lifted: LiftedRepresentation, field: VectorField) -> None:
    """Refuse a field whose level or block size is not the lift's."""
    if field.level != lifted.level or field.block_size != lifted.block_size:
        raise StructuralError(
            f"field shape (level {field.level}, block {field.block_size}) does "
            f"not match the lift (level {lifted.level}, block {lifted.block_size})")


def verify_decomposition(lifted: LiftedRepresentation, field: VectorField,
                         dec: Decomposition) -> tuple[bool, tuple[Polynomial, ...]]:
    """Exact check of the reconstruction identity, with per-component residuals.

    Block j of the residuals is a_j - sum_{r <= j} rho(b_r) f_{j-r}, each
    component built in one accumulation.
    """
    _check_field_shape(lifted, field)
    if dec.ring is not field.ring and dec.ring != field.ring:
        raise StructuralError("decomposition and field live over different rings")
    residuals = _level_sums(lifted, field.ring, dec.coefficients, field)
    return all(p.is_zero() for p in residuals), residuals


def takiff_decompose(lifted: LiftedRepresentation, solver: BaseSolver,
                     field: VectorField) -> Decomposition:
    """Decompose an annihilating field on V_m into Killing coefficients.

    b_0..b_m are solved in order, each by one base solve of
    rho(b_j) f_0 = a_j - sum_{r<j} rho(b_r) f_{j-r} over one ring in which
    f_0 is the state block and everything else a parameter, and checked
    against that identity: the right-hand side minus rho(b_j) f_0 must be
    zero, else an InternalConsistencyError. Both are residuals of
    ``_block_sum``, built in one accumulation each. The
    solver's refusal of a level is the field's refusal, since the levels
    below are proven: DecompositionRefused is raised with the solver's
    witness over the field's ring and the solver's refusal as its cause.
    """
    if solver.rep != lifted.base_rep:
        raise StructuralError(
            "the solver is registered for a different base representation")
    _check_field_shape(lifted, field)
    m, n = lifted.level, field.block_size
    ring = field.ring
    blocks = field.state_blocks
    # f_0 stays the state block; f_1..f_m become parameters, in one ring of
    # the field's layout, so every cast between the two rings is a wrap
    base_ring = Ring(tuple(VariableBlock(b.name, b.size, PARAMETER) if b in blocks[1:] else b
                           for b in ring.blocks))
    levels: list[tuple[Polynomial, ...]] = []
    for j in range(m + 1):
        residual = field.components[j * n:(j + 1) * n]
        if j:
            residual = _block_sum(lifted.base_rep, ring, levels, j, residual)
        try:
            coeffs = solver.solve(
                VectorField(base_ring, tuple(p.cast(base_ring) for p in residual)))
        except DecompositionRefused as exc:
            witness = None if exc.witness is None else exc.witness.cast(ring)
            raise DecompositionRefused("field does not annihilate the lifted invariants",
                                       witness=witness) from exc
        levels.append(tuple(p.cast(ring) for p in coeffs))
        check = _block_sum(lifted.base_rep, ring, [levels[j]], 0, residual)
        if not all(p.is_zero() for p in check):
            raise InternalConsistencyError(
                f"the level-{j} coefficients do not reconstruct a_{j}")
    return Decomposition(ring, tuple(levels))


# ---------------------------------------------------------------------------
# Change of variables
# ---------------------------------------------------------------------------

def _blockwise_substitution(ring: Ring, matrix: Sequence[Sequence[Scalar]],
                            ) -> dict[Var, Polynomial]:
    """v -> matrix v on every state block, parameters untouched."""
    mapping: dict[Var, Polynomial] = {}
    one = Polynomial.constant(ring, 1)
    for blk in ring.state_blocks():
        if len(matrix) != blk.size:
            raise StructuralError(
                f"matrix size {len(matrix)} does not fit block {blk.name!r}")
        for i in range(blk.size):
            mapping[(blk.name, i)] = Polynomial.variable_combination(
                ring, ((c, one, (blk.name, k)) for k, c in enumerate(matrix[i])))
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
