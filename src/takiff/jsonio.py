"""JSON interchange for every domain type, exact and deterministic.

Scalars are serialized as strings ("-3", "1/2") so nothing is ever rounded.
A polynomial is emitted as its ring plus a term list

    {"ring": [{"name": "f0", "size": 2, "role": "state"}],
     "terms": [{"coeff": "1/2", "exps": {"f0.0": 2}}]}

with exponent keys "block.index" (the index is everything after the last
dot, so block names must not end in ".<digits>"). Terms are sorted by
monomial and all objects are dumped with sorted keys, so equal values always
serialize to identical bytes.

Readers accept nothing inexact or truncated: a scalar is a JSON string or
integer, read by ``matrices.scalar``, and sizes, dimensions and exponents are
JSON integers (never booleans or floats). Text that does not parse, a missing
key and a value of the wrong JSON type all raise StructuralError.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from . import matrices as mx
from .decompose import Decomposition
from .errors import StructuralError
from .lie import BilinearForm, LieAlgebra, Representation
from .matrices import Matrix, Scalar, scalar
from .poly import Monomial, Polynomial, Ring, Var, VariableBlock, VectorField


_JSON_TYPES = {dict: "a JSON object", list: "a JSON array", int: "an integer",
               str: "a string"}


def _expect(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``; a bool is never an int."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise StructuralError(
            f"{what} must be {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _get(data, key: str, kind: type):
    """``data[key]``: ``data`` must be a JSON object holding ``key`` of type ``kind``."""
    if key not in _expect(data, dict, f"the value holding {key!r}"):
        raise StructuralError(f"missing key {key!r}")
    return _expect(data[key], kind, repr(key))


def scalar_to_str(value: Scalar) -> str:
    return str(scalar(value))


def scalar_from_str(text: str | int) -> Scalar:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise StructuralError(
            f"scalar must be a string or an integer, got {type(text).__name__}")
    return scalar(text)


def matrix_to_json(matrix: Matrix) -> list[list[str]]:
    return [[scalar_to_str(v) for v in row] for row in matrix]


def matrix_from_json(data: Sequence[Sequence[str]]) -> Matrix:
    return mx.mat([[scalar_from_str(v) for v in _expect(row, list, "matrix row")]
                   for row in _expect(data, list, "matrix")])


# -- rings and polynomials --------------------------------------------------

def ring_to_json(ring: Ring) -> list[dict]:
    return [{"name": b.name, "size": b.size, "role": b.role} for b in ring.blocks]


def ring_from_json(data: Sequence[Mapping]) -> Ring:
    return Ring(tuple(
        VariableBlock(_get(b, "name", str), _get(b, "size", int), _get(b, "role", str))
        for b in _expect(data, list, "ring")))


def _var_key(var: Var) -> str:
    return f"{var[0]}.{var[1]}"


def _var_from_key(key: str) -> Var:
    name, dot, idx = key.rpartition(".")
    if not dot or not idx.isdigit():
        raise StructuralError(f"malformed variable key {key!r} (want 'block.index')")
    return (name, int(idx))


def _terms_to_json(p: Polynomial) -> list[dict]:
    out = []
    for mono, coeff in p.sorted_terms():
        out.append({"coeff": scalar_to_str(coeff),
                    "exps": {_var_key(v): e for v, e in mono}})
    return out


def _terms_from_json(data: Sequence[Mapping], ring: Ring) -> Polynomial:
    terms: dict[Monomial, Scalar] = {}
    for item in _expect(data, list, "term list"):
        mono = Monomial.from_map({_var_from_key(k): _expect(e, int, f"exponent of {k!r}")
                                  for k, e in _get(item, "exps", dict).items()})
        coeff = scalar_from_str(_get(item, "coeff", object))
        terms[mono] = terms[mono] + coeff if mono in terms else coeff
    return Polynomial(ring, terms)


def polynomial_to_json(p: Polynomial) -> dict:
    return {"ring": ring_to_json(p.ring), "terms": _terms_to_json(p)}


def polynomial_from_json(data: Mapping) -> Polynomial:
    ring = ring_from_json(_get(data, "ring", list))
    return _terms_from_json(_get(data, "terms", list), ring)


# -- algebras and representations -------------------------------------------

def algebra_to_json(g: LieAlgebra) -> dict:
    return {
        "dim": g.dim,
        "names": list(g.names),
        "c": [[[scalar_to_str(v) for v in g.c[i][j]] for j in range(g.dim)]
              for i in range(g.dim)],
    }


def algebra_from_json(data: Mapping) -> LieAlgebra:
    names = tuple(_expect(n, str, "basis name") for n in _get(data, "names", list))
    dim = _get(data, "dim", int)
    c = tuple(matrix_from_json(plane) for plane in _get(data, "c", list))
    g = LieAlgebra(names, c)
    if g.dim != dim:
        raise StructuralError(f"declared dim {dim} but {g.dim} basis names")
    return g


def representation_to_json(rep: Representation) -> dict:
    n = rep.space_dim
    return {
        "algebra": algebra_to_json(rep.algebra),
        "space_dim": n,
        "matrices": [[scalar_to_str(m[r][s]) for r in range(n) for s in range(n)]
                     for m in rep.matrices],
    }


def representation_from_json(data: Mapping) -> Representation:
    g = algebra_from_json(_get(data, "algebra", dict))
    n = _get(data, "space_dim", int)
    if n < 1:
        raise StructuralError(f"space_dim must be positive, got {n}")
    mats = []
    for flat in _get(data, "matrices", list):
        if len(_expect(flat, list, "flattened matrix")) != n * n:
            raise StructuralError(
                f"matrix has {len(flat)} entries, expected {n * n}")
        values = [scalar_from_str(v) for v in flat]
        mats.append([values[r * n:(r + 1) * n] for r in range(n)])
    return Representation(g, tuple(mats))


def bilinear_from_json(data: Mapping) -> BilinearForm:
    form = BilinearForm(matrix_from_json(_get(data, "gram", list)))
    size = _get(data, "size", int)
    if form.size != size:
        raise StructuralError(
            f"declared size {size} but Gram is {form.size}x{form.size}")
    return form


# -- fields and decompositions ----------------------------------------------

def field_to_json(field: VectorField) -> dict:
    return {
        "ring": ring_to_json(field.ring),
        "components": [_terms_to_json(p) for p in field.components],
    }


def field_from_json(data: Mapping) -> VectorField:
    ring = ring_from_json(_get(data, "ring", list))
    return VectorField(ring, tuple(
        _terms_from_json(t, ring) for t in _get(data, "components", list)))


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "ring": ring_to_json(dec.ring),
        "coefficients": [[_terms_to_json(p) for p in level]
                         for level in dec.coefficients],
    }


def decomposition_from_json(data: Mapping) -> Decomposition:
    ring = ring_from_json(_get(data, "ring", list))
    return Decomposition(ring, tuple(
        tuple(_terms_from_json(t, ring) for t in _expect(level, list, "coefficient level"))
        for level in _get(data, "coefficients", list)))


def points_from_json(data: Mapping) -> tuple[Matrix, Matrix | None]:
    """Sample points, and parameter values per point when the key is present."""
    points = matrix_from_json(_get(data, "points", list))
    params = data.get("parameters")
    return points, None if params is None else matrix_from_json(params)


def dumps(obj: Any) -> str:
    """The one serializer: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
