"""Completeness oracle: the Dixmier property of rho_m, box by box.

In a box (representation, level m, degree d), the fields on V_m whose
components are homogeneous of degree d in f_0..f_m form a finite-dimensional
space, and annihilating the lifted invariants Phi_0..Phi_m is a linear
condition on their coefficients. The theorem says that every annihilator is a
Killing combination rho_m(b) F: the annihilators' dimension equals the rank
of b |-> rho_m(b) F on coefficients of degree d - 1. Both sides are computed
here with SymPy, from the representation's matrices and the invariants alone,
sharing no code with ``takiff.decompose`` or ``takiff.matrices``; then every
annihilator in the basis must decompose and verify, and every coordinate
field e_c mu outside the annihilators must be refused with a witness.
"""

import itertools
from fractions import Fraction

import pytest

from takiff.decompose import builtin_solver, takiff_decompose, verify_decomposition
from takiff.errors import DecompositionRefused
from takiff.lie import abelian, make_standard, so_n
from takiff.poly import STATE, Monomial, Polynomial, Ring, VariableBlock, VectorField
from takiff.takiff_algebra import LiftedRepresentation

sympy = pytest.importorskip("sympy")
DomainMatrix = sympy.polys.matrices.DomainMatrix
QQ = sympy.QQ


def _quadratic(gram):
    """(1/2) x^T G x and G, as a function of the coordinates x."""
    def phi(x):
        return [sum(gram[a][b] * x[a] * x[b] for a in range(len(x))
                    for b in range(len(x))) / 2]
    return phi, gram


def _trace_form(rep):
    mats = [sympy.Matrix(m) for m in rep.matrices]
    return [[int((p * q).trace()) for q in mats] for p in mats]


def _box(kind):
    """(representation, invariants as a function of x, Gram for the solver)."""
    if kind == "so3":
        rep = so_n(3)[1]
        return (rep,) + _quadratic([[int(a == b) for b in range(3)] for a in range(3)])
    if kind == "sl2_adjoint":
        rep = make_standard("sl2_adjoint")[1]
        return (rep,) + _quadratic(_trace_form(rep))
    rep = abelian(2)[1]
    return rep, lambda x: list(x), None


# (kind, m, d, unknowns, annihilators): the trivial solver's annihilator space is 0
BOXES = [("so3", 1, 2, 126, 34), ("so3", 2, 2, 405, 78), ("sl2_adjoint", 1, 2, 126, 34),
         ("abelian2", 1, 2, 40, 0)]


def _monomials(count, degree):
    """Exponent tuples of the monomials of one degree in ``count`` variables."""
    out = []
    for combo in itertools.combinations_with_replacement(range(count), degree):
        exps = [0] * count
        for c in combo:
            exps[c] += 1
        out.append(tuple(exps))
    return out


def _matrix(rows, shape):
    """A sparse DomainMatrix over QQ from {row: {column: entry}}, zeros dropped."""
    rows = {r: {c: x for c, x in row.items() if x} for r, row in rows.items()}
    return DomainMatrix({r: row for r, row in rows.items() if row}, shape, QQ)


def _oracle(rep, invariants, m, d):
    """The annihilator basis, the Killing-map rank and the equations' columns.

    Unknown (c, mu) is the coefficient of the monomial mu in component c of
    the field, c = j n + a for coordinate a of block f_j.
    """
    n, dim = len(rep.matrices[0]), len(rep.matrices)
    size = (m + 1) * n
    v = sympy.symbols(f"v0:{size}")
    t = sympy.Symbol("t")
    curve = [sum(t ** j * v[j * n + a] for j in range(m + 1)) for a in range(n)]
    unknowns = [(c, mu) for c in range(size) for mu in _monomials(size, d)]
    column = {u: k for k, u in enumerate(unknowns)}
    # one equation per (lifted invariant, monomial of sum_c a_c dPhi/dv_c)
    rows: dict = {}
    for g, phi in enumerate(invariants(curve)):
        expanded = sympy.Poly(sympy.expand(phi), t)
        for k in range(m + 1):
            lifted = expanded.coeff_monomial(t ** k)
            for c in range(size):
                grad = sympy.Poly(sympy.diff(lifted, v[c]), *v)
                for mono, coeff in grad.terms():
                    for mu in _monomials(size, d):
                        key = (g, k, tuple(map(sum, zip(mono, mu))))
                        row = rows.setdefault(key, {})
                        col = column[(c, mu)]
                        row[col] = row.get(col, 0) + QQ.from_sympy(coeff)
    equations = _matrix(dict(enumerate(rows.values())), (len(rows), len(unknowns)))
    # the Killing map: b_{r,i} = nu sends component (j, t) to
    # nu * sum_s rho(x_i)_ts f_{j-r,s}, for j >= r
    killing = {}
    index = 0
    for r in range(m + 1):
        for i in range(dim):
            for nu in _monomials(size, d - 1):
                for j in range(r, m + 1):
                    for t_ in range(n):
                        for s in range(n):
                            x = rep.matrices[i][t_][s]
                            if x:
                                mu = list(nu)
                                mu[(j - r) * n + s] += 1
                                row = killing.setdefault(column[(j * n + t_, tuple(mu))], {})
                                row[index] = row.get(index, 0) + QQ(x.numerator, x.denominator)
                index += 1
    killing = _matrix(killing, (len(unknowns), index))
    assert (equations * killing).to_sdm() == {}  # every combination annihilates
    nonzero_columns = {c for row in equations.to_sdm().values() for c in row}
    basis = [[Fraction(int(x.p), int(x.q)) for x in row]
             for row in equations.nullspace().to_Matrix().tolist()]
    return unknowns, basis, killing.rank(), nonzero_columns


def _field(ring, m, n, d, unknowns, values):
    """The field with coefficient values[k] at unknown k."""
    comps = [{} for _ in range((m + 1) * n)]
    names = [(b.name, a) for b in ring.state_blocks() for a in range(n)]
    for (c, mu), x in zip(unknowns, values):
        if x:
            mono = Monomial.from_map({names[k]: e for k, e in enumerate(mu) if e})
            comps[c][mono] = x
    return VectorField(ring, tuple(Polynomial(ring, terms) for terms in comps))


@pytest.mark.parametrize("kind, m, d, size, annihilators", BOXES,
                         ids=[f"{k}-m{m}-d{d}" for k, m, d, _, _ in BOXES])
def test_the_annihilators_of_a_box_are_the_killing_combinations(kind, m, d, size,
                                                                 annihilators):
    rep, invariants, gram = _box(kind)
    n = rep.space_dim
    unknowns, basis, rank, outside = _oracle(rep, invariants, m, d)
    assert (len(unknowns), len(basis)) == (size, annihilators)
    assert len(basis) == rank
    lifted = LiftedRepresentation(rep, m)
    solver = builtin_solver(rep, gram)
    ring = Ring(tuple(VariableBlock(f"f{j}", n, STATE) for j in range(m + 1)))
    for values in basis:
        field = _field(ring, m, n, d, unknowns, values)
        dec = takiff_decompose(lifted, solver, field)
        assert verify_decomposition(lifted, field, dec)[0]
    for k in sorted(outside):
        field = _field(ring, m, n, d, unknowns, [int(j == k) for j in range(len(unknowns))])
        with pytest.raises(DecompositionRefused) as info:
            takiff_decompose(lifted, solver, field)
        assert info.value.witness is not None and not info.value.witness.is_zero()
