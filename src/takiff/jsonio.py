"""JSON interchange for every domain type, exact and deterministic.

Scalars are serialized as strings ("-3", "1/2") so nothing is ever rounded.
A polynomial is emitted as its ring plus a term list

    {"ring": [{"name": "f0", "size": 2, "role": "state"}],
     "terms": [{"coeff": "1/2", "exps": {"f0.0": 2}}]}

with exponent keys "block.index": the index is everything after the last
dot and is written in ASCII digits with no leading zero, so block names must
not end in ".<digits>". Terms are sorted by monomial and all objects are
dumped with sorted keys, so equal values always serialize to identical bytes.

``dumps`` is the one serializer. A ``Polynomial``, ``VectorField`` or
``Decomposition`` is written as the document its ``*_to_json`` function
describes, and every other value exactly as
``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)`` writes it;
a newline ends the text. A list of strings is written in one join, since the
standard library's indenting encoder is pure Python. The ``*_to_json``
functions parse the text ``dumps`` writes, so the dict form and the bytes
cannot drift apart. The command line hands ``dumps`` the objects themselves
and writes its text as UTF-8 bytes, to stdout and to ``--out`` alike.

A term list is written as text straight from a polynomial's packed keys.
Each ring builds one key table on first use (``Ring._key_table``): every
variable's rank in variable order, its rank in key-text order and its key
text escaped as a JSON object key. ``_terms_text`` walks each key once by
``poly._fields``, the walk ``poly._decode`` makes too, so each term's fields
sort into the term order of ``Polynomial.sorted_terms`` and give its ``exps``
in key order; a coefficient is written from its numerator and the
denominator with one gcd. No ``Monomial``, no ``Fraction`` and no term dict
is made. Each ring's block list is written once per indent and kept on the
ring (``Ring._block_texts``), since a document repeats it for every
polynomial.

Readers accept nothing inexact or truncated: a scalar is a JSON string or
integer, read by ``matrices.scalar``, and sizes, dimensions and exponents are
JSON integers (never booleans or floats). Text that does not parse, a missing
key, a value of the wrong JSON type and a variable key in any other spelling
all raise StructuralError.

A reader parses each document once: every distinct variable key is resolved
once per field or decomposition to its field in the ring's packed monomial
keys, and each term list goes straight into the packed numerators of
``Polynomial``. A coefficient string is read by ``int`` when it is integral,
and in its canonical spelling "p/q" (ASCII digits, an optional leading "-", a
nonzero q) without the ``Fraction`` string parser; every other spelling goes
to ``matrices.scalar``, so the strings accepted, their values and the error
texts are ``scalar``'s own. Integral coefficients are summed as ``int``, and
fractional ones are put over the lcm of their denominators once, at the end
of the list. Among structure constants and matrix entries the string "0" is
skipped unread; every other string is read by ``matrices.scalar`` once, a
constant here straight into the algebra's table of nonzero constants, which
is checked as the ``LieAlgebra`` constructor checks it, and a matrix entry by
the ``Representation`` constructor. The writers write "0" for every entry
missing from that table or from a representation's sparse rows.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _escape
from math import gcd, lcm
from operator import itemgetter
from typing import Any, Mapping, Sequence

from . import matrices as mx
from .decompose import Decomposition
from .errors import StructuralError, digit_limit_error
from .lie import BilinearForm, LieAlgebra, Representation, _bracket_table, _checked_algebra
from .matrices import Matrix, Scalar, scalar
from .poly import (MAX_EXPONENT, Polynomial, Ring, Var, VariableBlock, VectorField,
                   _fields, _ratio)


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
    if type(data) is not dict:
        _expect(data, dict, f"the value holding {key!r}")
    if key not in data:
        raise StructuralError(f"missing key {key!r}")
    value = data[key]
    return value if type(value) is kind else _expect(value, kind, repr(key))


def scalar_to_str(value: Scalar) -> str:
    try:
        return str(scalar(value))
    except ValueError as exc:  # CPython's limit on int/str conversion
        raise digit_limit_error("cannot write a number of") from exc


def _json_scalar(value):
    """``value`` unconverted, if it is a JSON scalar: a string or an integer, not a bool.

    Callers test ``type(value) is str`` first, the common case, and call this
    for the rest.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise StructuralError(
            f"scalar must be a string or an integer, got {type(value).__name__}")
    return value


def scalar_from_str(text: str | int) -> Scalar:
    """A JSON scalar, a string or an integer, read by ``matrices.scalar``."""
    return scalar(text if type(text) is str else _json_scalar(text))


def matrix_to_json(matrix: Matrix) -> list[list[str]]:
    return [[scalar_to_str(v) for v in row] for row in matrix]


def _json_rows(data) -> list[list]:
    """A JSON array of arrays of JSON scalars, type-checked but not yet read."""
    return [[v if type(v) is str else _json_scalar(v) for v in _expect(row, list, "matrix row")]
            for row in _expect(data, list, "matrix")]


def matrix_from_json(data: Sequence[Sequence[str]]) -> Matrix:
    return mx.mat(_json_rows(data))


# -- rings and polynomials --------------------------------------------------

def ring_to_json(ring: Ring) -> list[dict]:
    return [{"name": b.name, "size": b.size, "role": b.role} for b in ring.blocks]


def ring_from_json(data: Sequence[Mapping]) -> Ring:
    return Ring(tuple(
        VariableBlock(_get(b, "name", str), _get(b, "size", int), _get(b, "role", str))
        for b in _expect(data, list, "ring")))


def _var_from_key(key: str) -> Var:
    """The variable of a canonical key "block.index" (ASCII digits, no leading zero)."""
    name, dot, idx = key.rpartition(".")
    if not (dot and idx.isascii() and idx.isdigit() and (idx == "0" or idx[0] != "0")):
        raise StructuralError(f"malformed variable key {key!r} (want 'block.index')")
    return (name, int(idx))


def _check_exponent(ring: Ring, key: str, e, shift: int) -> None:
    """Raise unless ``e`` is an exponent the packed key of a monomial can hold.

    ``shift`` is the bit offset of the variable of ``key`` in ``ring``, -1
    when the ring has no such variable; a zero exponent passes, for any key.
    """
    _expect(e, int, f"exponent of {key!r}")
    if e < 0:
        raise StructuralError("negative exponent in monomial")
    if e and shift < 0:
        raise StructuralError(f"variable {key} not in ring with blocks {ring.names()}")
    if e > MAX_EXPONENT:
        raise StructuralError(f"exponent {e} of {key} is outside 1..{MAX_EXPONENT}")


def _ratio_text(text: str) -> tuple[int, int]:
    """A scalar string as (numerator, positive denominator), not always in lowest terms.

    The canonical spelling "p/q" (ASCII digits, an optional leading "-" and a
    nonzero q) is read without the ``Fraction`` string parser; any other
    spelling, and every error, is ``matrices.scalar``'s own.
    """
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if (slash and digits.isdigit() and den.isdigit() and digits.isascii() and den.isascii()
            and den.strip("0")):
        try:
            return int(num), int(den)
        except ValueError:  # past the digit limit, which scalar names
            pass
    return _ratio(text)


def _terms_from_json(data: Sequence[Mapping], ring: Ring,
                     shifts: dict[str, int]) -> Polynomial:
    """The polynomial of a term list over ``ring``; repeated monomials are summed.

    ``shifts`` maps each variable key already read in this document to its
    bit offset in ``ring`` (-1 for a variable the ring lacks), so a key is
    parsed once per document however many terms repeat it. Integral
    coefficients are summed as ``int``; a fractional one is kept as a
    numerator and denominator until the end, when all are put over their lcm.
    """
    coeffs: dict[int, int] = {}
    fractions: list[tuple[int, int, int]] = []
    for item in _expect(data, list, "term list"):
        exps = item.get("exps") if type(item) is dict else None
        if type(exps) is not dict:
            exps = _get(item, "exps", dict)
        key = 0
        for k, e in exps.items():
            s = shifts.get(k)
            if s is None:
                s = shifts[k] = ring._shift.get(_var_from_key(k), -1)
            if type(e) is not int or not 0 < e <= MAX_EXPONENT or s < 0:
                _check_exponent(ring, k, e, s)
                if not e:
                    continue
            key += e << s
        c = item.get("coeff")
        if type(c) is str:
            try:
                c = int(c)
            except ValueError:
                n, d = _ratio_text(c)
                if n % d:
                    fractions.append((key, n, d))
                    c = 0  # the key keeps its place in the term order
                else:
                    c = n // d
        elif type(c) is not int:
            c = scalar_from_str(_get(item, "coeff", object))
        if key in coeffs:
            c += coeffs[key]
        coeffs[key] = c
    den = 1
    if fractions:
        den = lcm(*[d for _, _, d in fractions])
        coeffs = {key: c * den for key, c in coeffs.items()}
        for key, n, d in fractions:
            coeffs[key] += n * (den // d)
    return Polynomial._make(ring, {key: c for key, c in coeffs.items() if c}, den)


def polynomial_to_json(p: Polynomial) -> dict:
    return json.loads(_polynomial_text(p, "\n"))


def polynomial_from_json(data: Mapping) -> Polynomial:
    ring = ring_from_json(_get(data, "ring", list))
    return _terms_from_json(_get(data, "terms", list), ring, {})


# -- algebras and representations -------------------------------------------

def _dense_text(pairs, size: int) -> list[str]:
    """The strings of a dense row of ``size`` entries from its nonzero ``(k, x)``
    pairs; every other entry is "0"."""
    row = ["0"] * size
    for k, x in pairs:
        row[k] = scalar_to_str(x)
    return row


def algebra_to_json(g: LieAlgebra) -> dict:
    d = g.dim
    return {
        "dim": d,
        "names": list(g.names),
        "c": [[_dense_text(pairs, d) for pairs in plane] for plane in g.brackets],
    }


def _nonzero_json(values: list) -> tuple[tuple[int, Scalar], ...]:
    """The nonzero pairs (k, x) of a row of JSON scalars: the string "0" is
    skipped unread, any other string read by ``matrices.scalar``, and an
    integer taken as it is."""
    if values.count("0") == len(values):  # most rows, found without a Python loop
        return ()
    return tuple((k, x) for k, v in enumerate(values)
                 if v != "0" and (x := scalar(v) if type(v) is str else _json_scalar(v)))


def algebra_from_json(data: Mapping) -> LieAlgebra:
    names = tuple(_expect(n, str, "basis name") for n in _get(data, "names", list))
    dim = _get(data, "dim", int)
    c = _get(data, "c", list)
    for plane in c:
        for row in _expect(plane, list, "matrix"):
            _expect(row, list, "matrix row")
    g = _checked_algebra(names, _bracket_table(len(names), c, _nonzero_json))
    if g.dim != dim:
        raise StructuralError(f"declared dim {dim} but {g.dim} basis names")
    return g


def representation_to_json(rep: Representation) -> dict:
    n = rep.space_dim
    return {
        "algebra": algebra_to_json(rep.algebra),
        "space_dim": n,
        "matrices": [_dense_text(((r * n + s, x) for r, row in enumerate(rows)
                                  for s, x in row.items()), n * n)
                     for rows in rep._sparse_rows],
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
        # the string "0" is read as 0 here; the constructor reads the rest
        values = [(0 if v == "0" else v) if type(v) is str else _json_scalar(v) for v in flat]
        mats.append([values[r * n:(r + 1) * n] for r in range(n)])
    return Representation(g, tuple(mats))


def bilinear_from_json(data: Mapping) -> BilinearForm:
    form = BilinearForm(_json_rows(_get(data, "gram", list)))
    size = _get(data, "size", int)
    if form.size != size:
        raise StructuralError(
            f"declared size {size} but Gram is {form.size}x{form.size}")
    return form


# -- fields and decompositions ----------------------------------------------

def field_to_json(field: VectorField) -> dict:
    return json.loads(_field_text(field, "\n"))


def field_from_json(data: Mapping) -> VectorField:
    ring = ring_from_json(_get(data, "ring", list))
    shifts: dict[str, int] = {}
    return VectorField(ring, tuple(
        _terms_from_json(t, ring, shifts) for t in _get(data, "components", list)))


def decomposition_to_json(dec: Decomposition) -> dict:
    return json.loads(_decomposition_text(dec, "\n"))


def decomposition_from_json(data: Mapping, like: Ring | None = None) -> Decomposition:
    """The decomposition a document holds; read over the ring ``like`` when
    that ring equals the document's, so its polynomials share that object."""
    ring = ring_from_json(_get(data, "ring", list))
    if like is not None and like == ring:
        ring = like
    shifts: dict[str, int] = {}
    return Decomposition(ring, tuple(
        tuple(_terms_from_json(t, ring, shifts)
              for t in _expect(level, list, "coefficient level"))
        for level in _get(data, "coefficients", list)))


def points_from_json(data: Mapping) -> tuple[Matrix, Matrix | None]:
    """Sample points, and parameter values per point when the key is present."""
    points = matrix_from_json(_get(data, "points", list))
    params = data.get("parameters")
    return points, None if params is None else matrix_from_json(params)


def _fallback(value, ind: str) -> str:
    """``value`` written by ``json.dumps`` itself, its lines moved to ``ind``."""
    return json.dumps(value, indent=2, sort_keys=True,
                      ensure_ascii=False).replace("\n", ind)


def _list_text(values, ind: str, write) -> str:
    """The JSON array of ``values`` at ``ind``, each item written by ``write(item, inner)``."""
    if not values:
        return "[]"
    inner = ind + "  "
    return f"[{inner}" + f",{inner}".join([write(v, inner) for v in values]) + f"{ind}]"


def _ring_text(ring: Ring, ind: str) -> str:
    """The block list of ``ring`` at ``ind``, written once per ring and indent."""
    texts = ring._block_texts
    text = texts.get(ind)
    if text is None:
        text = texts[ind] = _dump(ring_to_json(ring), ind)
    return text


def _terms_text(p: Polynomial, ind: str) -> str:
    """The term list of ``p`` at ``ind``, written from its packed keys in one walk.

    Each key is walked once by ``poly._fields``, the walk ``poly._decode``
    makes, labelled from the ring's key table: sorted by variable rank, its
    fields are the term's place in the order of ``sorted_terms``, and they
    carry the escaped key texts of its ``exps``, in key order unless the ring
    says otherwise. A coefficient is written from its numerator and the
    denominator with one gcd. No ``Monomial`` and no ``Fraction`` is made.
    """
    num = p._num
    if not num:
        return "[]"
    labels, in_key_order = p.ring._key_table
    den = p._den
    term = ind + "  "  # the line each term opens on,
    entry = term + "  "  # its "coeff" and "exps" lines,
    var = entry + "  "  # and its exponent lines
    head = f'{{{entry}"coeff": "'
    no_exps = f'",{entry}"exps": {{}}{term}}}'
    exps_open = f'",{entry}"exps": {{{var}'
    sep = f",{var}"
    tail = f"{entry}}}{term}}}"
    rows = []
    try:
        for key, n in num.items():
            if den == 1:
                coeff = str(n)
            else:
                g = gcd(n, den)
                coeff = str(n // g) if g == den else f"{n // g}/{den // g}"
            if not key:  # the unit monomial, first in term order
                rows.append(([], head + coeff + no_exps))
                continue
            cells = _fields(key, labels)
            cells.sort()
            exps = sep.join([f"{text}{e}" for (_, _, text), e in
                             (cells if in_key_order else sorted(cells, key=_key_rank))])
            rows.append((cells, head + coeff + exps_open + exps + tail))
    except ValueError as exc:  # str() of an int past the interpreter's digit limit
        raise digit_limit_error("cannot write a number of") from exc
    rows.sort(key=itemgetter(0))
    return f"[{term}" + f",{term}".join([text for _, text in rows]) + f"{ind}]"


def _key_rank(cell) -> int:
    """The rank in key-text order of a labelled field of a packed key."""
    return cell[0][1]


def _level_text(polys, ind: str) -> str:
    """A list of the term lists of ``polys``, at ``ind``."""
    return _list_text(polys, ind, _terms_text)


def _polynomial_text(p: Polynomial, ind: str) -> str:
    inner = ind + "  "
    return (f'{{{inner}"ring": {_ring_text(p.ring, inner)},'
            f'{inner}"terms": {_terms_text(p, inner)}{ind}}}')


def _field_text(field: VectorField, ind: str) -> str:
    inner = ind + "  "
    return (f'{{{inner}"components": {_level_text(field.components, inner)},'
            f'{inner}"ring": {_ring_text(field.ring, inner)}{ind}}}')


def _decomposition_text(dec: Decomposition, ind: str) -> str:
    inner = ind + "  "
    return (f'{{{inner}"coefficients": {_list_text(dec.coefficients, inner, _level_text)},'
            f'{inner}"ring": {_ring_text(dec.ring, inner)}{ind}}}')


_OBJECT_TEXT = {Polynomial: _polynomial_text, VectorField: _field_text,
                Decomposition: _decomposition_text}


def _dump(value, ind: str) -> str:
    """``value`` as indented JSON text whose lines after the first start at ``ind``.

    ``ind`` is a newline and the indent of the line ``value`` starts on.
    """
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = ind + "  "
        try:  # a list of strings is written by one join, not one chunk per item
            return f"[{inner}" + f",{inner}".join(map(_escape, value)) + f"{ind}]"
        except TypeError:
            return _list_text(value, ind, _dump)
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            return _fallback(value, ind)
        inner = ind + "  "
        body = f",{inner}".join([f"{_escape(k)}: {_dump(value[k], inner)}"
                                 for k in sorted(value)])
        return f"{{{inner}{body}{ind}}}"
    write = _OBJECT_TEXT.get(kind)
    if write is not None:
        return write(value, ind)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    return _fallback(value, ind)


def dumps(obj: Any) -> str:
    """The one serializer: sorted keys, two-space indent, trailing newline.

    A ``Polynomial``, ``VectorField`` or ``Decomposition``, at any depth, is
    written as the document of its ``*_to_json`` function, with no dict made;
    every other value exactly as ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False)`` writes it, by contract. A list or tuple of strings is
    written in one join; a float, a dict with a key that is not a ``str`` and
    any other type are handed to ``json.dumps``. A coefficient past the
    interpreter's digit limit is a ``StructuralError``.
    """
    return _dump(obj, "\n") + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past CPython's digit limit
        raise digit_limit_error("invalid JSON: an integer literal has") from exc
