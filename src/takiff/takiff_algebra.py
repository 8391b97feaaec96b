"""Generalized Takiff (truncated current) algebras and lifted representations.

For a base algebra g and a level m, the truncated current algebra g_m is
g tensor K[T]/(T^{m+1}) with bracket

    [x T^r, y T^s] = [x, y] T^{r+s}   if r+s <= m, else 0.

The basis is level-major: (level 0 copy of g, then level 1, ...), which makes
every lifted representation block-lower-triangular with a Toeplitz block
pattern. A representation rho of g on V lifts to rho_m on V_m = V^{m+1} by

    rho_m(x T^r) : f_s |-> rho(x) f_s   placed in block r+s (dropped past m),

so block component j of rho_m(X) F is sum_{r <= j} rho(x_r) f_{j-r}.

That block sum reads rho and m alone, so a ``LiftedRepresentation`` is the
pair (rho, m), and a ``TakiffContext`` is the pair (g, m). Decomposing,
verifying and generating a field, and the Killing residuals and tangency
directions of ``invariants``, read no dense g_m or rho_m; those are derived
only when first read, and ``build_lift`` builds both for what reads them.

g_m and rho_m are not re-checked. g_m is g tensor A and rho_m is rho tensor
the regular action of A, with A = K[T]/(T^{m+1}) commutative and associative,
so antisymmetry, the Jacobi identity and the homomorphism law carry over from
the base algebra and representation, which were checked exactly when they were
built. The ``jacobi`` and ``homomorphism`` suites check the lifts over their
grid with their own code. Every dense matrix here (the structure-constant
planes of g_m, rho_m and the lifted form B_m) is base blocks at block
positions, placed by one helper, ``_blocks``, as tuples of shared, immutable
rows. Each object is bounded by what it builds, before any block or ring is
allocated: a ``TakiffContext`` by ``check_level``, the size of the dense g_m,
and a ``LiftedRepresentation`` by the coordinates of V_m, which every ring
over V_m must fit in ``poly.MAX_VARIABLES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import InternalConsistencyError, StructuralError, ValidationError
from .lie import BilinearForm, LieAlgebra, Representation, _derived, coadjoint_rep
from .matrices import Matrix
from .poly import MAX_VARIABLES

# Largest g_m, counted in structure constants ((m+1) dim g)^3, so dim g_m <= 100;
# checked by check_level before any allocation.
MAX_STRUCTURE_CONSTANTS = 100 ** 3


@dataclass(frozen=True)
class TakiffContext:
    """A base algebra and a truncation level; g_m (``algebra``) is derived from them.

    Basis element (r, i) of g_m stands for x_i T^r and sits at flat index
    r * dim(base) + i. Construction refuses the level by ``check_level``.
    """

    base: LieAlgebra
    level: int

    def __post_init__(self):
        check_level(self.base.dim, self.level)

    @cached_property
    def algebra(self) -> LieAlgebra:
        """g_m, built on first read: [x_i T^r, x_j T^s] = [x_i, x_j] T^{r+s}."""
        m, base, d = self.level, self.base, self.base.dim
        names = tuple(_level_name(base.names[i], r) for r in range(m + 1) for i in range(d))
        # the plane of x_i T^r holds [x_i, x_j] at block (s, r + s)
        planes = _blocks(m, d, (((s, r + s, base.c[i]) for s in range(m + 1 - r))
                                for r in range(m + 1) for i in range(d)))
        return _derived(LieAlgebra, names=names, c=planes)


def _level_name(base_name: str, r: int) -> str:
    return base_name if r == 0 else f"{base_name}.T{r}"


def _blocks(level: int, n: int, family: Iterable) -> tuple[Matrix, ...]:
    """One (level+1)·n square matrix per placed list in ``family``, with base
    block B at block (R, C) for each (R, C, B) of the list (at most one per
    block row R) and zeros elsewhere. Rows are shared, immutable tuples: each
    base row is padded out to column block C once per call, and every empty or
    all-zero row is one zero row. Entries are the base's own scalars."""
    zero = (0,) * ((level + 1) * n)
    shifted = {}  # (id(B), C) -> (B, padded rows); holding B keeps its id unique
    out = []
    for placed in family:
        rows = [zero] * ((level + 1) * n)
        for r, c, block in placed:
            entry = shifted.get((id(block), c))
            if entry is None:
                left, right = (0,) * (c * n), (0,) * ((level - c) * n)
                padded = [left + row + right if any(row) else zero for row in block]
                entry = shifted[id(block), c] = block, padded
            rows[r * n:(r + 1) * n] = entry[1]
        out.append(tuple(rows))
    return tuple(out)


def require_level(m: int) -> None:
    """Refuse a level that is not an int >= 0; a bool is not an int here."""
    if type(m) is not int or m < 0:
        raise StructuralError(f"level must be an int >= 0, got {m!r}")


def check_level(base_dim: int, m: int) -> None:
    """Refuse a level by ``require_level``, or a g_m of more than
    MAX_STRUCTURE_CONSTANTS structure constants, from the dimensions alone."""
    require_level(m)
    constants = ((m + 1) * base_dim) ** 3
    if constants > MAX_STRUCTURE_CONSTANTS:
        raise StructuralError(f"level {m} of a {base_dim}-dimensional algebra needs "
                              f"{constants} structure constants, more than "
                              f"{MAX_STRUCTURE_CONSTANTS}")


def build_takiff(base: LieAlgebra, m: int) -> TakiffContext:
    """The context of g_m; its algebra is derived from the base on first read.

    At m = 0 that algebra equals the base algebra.
    """
    return TakiffContext(base, m)


@dataclass(frozen=True)
class LiftedRepresentation:
    """rho lifted to level m, given by the base representation and the level.

    Its action on V_m = V^{m+1}, blocks indexed by level, is the block sum in
    the module docstring, which reads rho and m alone. The dense g_m
    (``context``) and rho_m (``rep``) are derived on first read and kept,
    and reading either refuses the level as ``TakiffContext`` does.
    Construction refuses a level that is not an int >= 0, or a V_m of more
    than ``poly.MAX_VARIABLES`` coordinates, the bound every ring over V_m
    meets; it does not read the base algebra.
    """

    base_rep: Representation
    level: int

    def __post_init__(self):
        require_level(self.level)
        if self.space_dim > MAX_VARIABLES:
            raise StructuralError(
                f"level {self.level} of a {self.block_size}-dimensional representation "
                f"has {self.space_dim} coordinates, more than "
                f"MAX_VARIABLES = {MAX_VARIABLES}")

    @property
    def block_size(self) -> int:
        return self.base_rep.space_dim

    @property
    def space_dim(self) -> int:
        return (self.level + 1) * self.block_size

    @cached_property
    def context(self) -> TakiffContext:
        return build_takiff(self.base_rep.algebra, self.level)

    @cached_property
    def rep(self) -> Representation:
        return _lifted_rep(self.context, self.base_rep)


def _lifted_rep(ctx: TakiffContext, rho: Representation) -> Representation:
    m, n = ctx.level, rho.space_dim
    mats = _blocks(m, n, (((r + s, s, rho.matrices[i]) for s in range(m + 1 - r))
                          for r in range(m + 1) for i in range(ctx.base.dim)))
    return _derived(Representation, algebra=ctx.algebra, matrices=mats)


def lift_representation(ctx: TakiffContext, rho: Representation) -> LiftedRepresentation:
    """Lift rho, a representation of the context's base algebra, to g_m; rho_m
    is derived from rho now."""
    if rho.algebra != ctx.base:
        raise StructuralError("representation is not over the context's base algebra")
    lifted = LiftedRepresentation(rho, ctx.level)
    lifted.__dict__.update(context=ctx, rep=_lifted_rep(ctx, rho))
    return lifted


@lru_cache(maxsize=None)
def build_lift(rho: Representation, level: int) -> LiftedRepresentation:
    """Takiff context plus lifted representation, both derived now and cached per
    (rho, level).

    The callers that read the dense rho_m come here: the ``lift-rep`` command
    and the homomorphism suite, which checks rho_m itself. All inputs are
    immutable, so the result is memoized.
    """
    ctx = build_takiff(rho.algebra, level)
    return lift_representation(ctx, rho)


@dataclass(frozen=True)
class FlipReport:
    """Outcome of the flip-conjugation identity between the two dual lifts."""

    level: int
    dim: int
    passed: bool
    failing_basis: str | None


def verify_flip_identity(g: LieAlgebra, m: int) -> FlipReport:
    """Check theta . rho(X) . theta = tau(X) for every basis element X of g_m.

    Here rho is the lift of the coadjoint action of g, tau is the coadjoint
    action of g_m itself, and theta is the block reversal, which sends
    coordinate (s, a) of V_m to (m - s, a). So theta M theta is M read at
    the reversed indices, and no matrix is multiplied. Both sides are exact;
    a failure reports the first offending basis element.
    """
    ctx = build_takiff(g, m)
    rho = lift_representation(ctx, coadjoint_rep(g))
    tau = coadjoint_rep(ctx.algebra)
    flip = [(m - s) * g.dim + a for s in range(m + 1) for a in range(g.dim)]
    for k, name in enumerate(ctx.algebra.names):
        lifted = rho.rep.matrices[k]
        if tuple(tuple(lifted[p][q] for q in flip) for p in flip) != tau.matrices[k]:
            return FlipReport(m, ctx.algebra.dim, False, name)
    return FlipReport(m, ctx.algebra.dim, True, None)


def lift_bilinear_form(ctx: TakiffContext, form: BilinearForm) -> BilinearForm:
    """Pair levels r and s only when r + s = m: B_m(x T^r, y T^s) = B(x, y).

    The input must be symmetric, nondegenerate and invariant for the base
    algebra. The output is checked, exactly, to be nondegenerate and invariant
    for g_m; with a valid input those checks cannot fail.
    """
    g = ctx.base
    if form.size != g.dim:
        raise StructuralError("form size does not match the base algebra")
    if not form.is_nondegenerate():
        raise ValidationError("input form is degenerate")
    if not form.is_invariant_for(g):
        raise ValidationError("input form is not invariant for the base algebra")
    m = ctx.level
    lifted = BilinearForm(_blocks(m, g.dim, [[(r, m - r, form.gram) for r in range(m + 1)]])[0])
    if not lifted.is_nondegenerate():
        raise InternalConsistencyError("lifted form should be nondegenerate")
    if not lifted.is_invariant_for(ctx.algebra):
        raise InternalConsistencyError("lifted form should be invariant for g_m")
    return lifted
