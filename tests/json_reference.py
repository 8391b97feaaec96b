"""Reference JSON writer for the tests.

The term lists of polynomials, fields and decompositions written the plain
way: each term decoded to its sorted ``Monomial`` by ``Polynomial.sorted_terms``,
each coefficient written by ``jsonio.scalar_to_str`` and each variable key
formatted as "block.index", then the whole document written by ``json.dumps``.
``jsonio`` writes the same data and the same bytes straight from packed keys.
"""

import json

from takiff.jsonio import scalar_to_str


def ring_json(ring) -> list[dict]:
    return [{"name": b.name, "size": b.size, "role": b.role} for b in ring.blocks]


def terms_json(p) -> list[dict]:
    return [{"coeff": scalar_to_str(c), "exps": {f"{name}.{i}": e for (name, i), e in mono}}
            for mono, c in p.sorted_terms()]


def polynomial_json(p) -> dict:
    return {"ring": ring_json(p.ring), "terms": terms_json(p)}


def field_json(field) -> dict:
    return {"ring": ring_json(field.ring),
            "components": [terms_json(p) for p in field.components]}


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
