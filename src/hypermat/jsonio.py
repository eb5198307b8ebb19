"""JSON encoding of hyperfields, elements, vectors, H-matroids, and reports.

Schema tag: "hypermat/1".  Elements are "0" or {"r": ..., "g": [...]}, with
"r" omitted for Krasner residues and "g" omitted at rank 0.  Every emitted
document re-parses to an equal value.  ``hvectors_to_json`` and
``hmatroid_to_json`` give every occurrence of an element the same JSON
object, so callers treat emitted values as read-only.  ``dumps`` writes the
bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` in one pass and
writes each shared object once.
"""

from __future__ import annotations

import json

from .errors import SpecError
from .hmatroid import HMatroid, HVector, hmatroid_from_circuits
from .hyperfields import HElement, Hyperfield

SCHEMA = "hypermat/1"
VERSION = "0.1.0"


# The keys besides "kind" that each kind reads; the writer sets no others.
_KEYS = {
    "krasner": (),
    "sign": (),
    "field": ("p",),
    "tropical": ("rank",),
    "stringent": ("residue", "rank", "p"),
    "quotient": ("p", "subgroup"),
}


def hyperfield_to_json(H: Hyperfield) -> dict:
    if H.kind == "quotient" and H.subgroup is None:
        raise SpecError("table-built hyperfields have no JSON form")
    out = {"kind": H.kind}
    if H.kind == "stringent":
        out["residue"] = H.residue_kind
    if H.rank:
        out["rank"] = H.rank
    if H.p is not None:
        out["p"] = H.p
    if H.subgroup is not None:
        out["subgroup"] = list(H.subgroup)
    return out


def hyperfield_from_json(d, path="$.hyperfield") -> Hyperfield:
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError(f"{path}: expected an object with a 'kind' key")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _KEYS:
        raise SpecError(f"{path}.kind: unknown hyperfield kind {kind!r}")
    for key in d:
        if key != "kind" and key not in _KEYS[kind]:
            raise SpecError(f"{path}.{key}: a {kind} hyperfield has no {key!r} key")
    p = d.get("p")
    if p is not None or kind == "quotient":
        p = _int_of(p, f"{path}.p")
    if kind == "quotient":
        return Hyperfield.quotient(p, _ints_of(d.get("subgroup"), f"{path}.subgroup"))
    rank = _int_of(d.get("rank", 1), f"{path}.rank") if "rank" in _KEYS[kind] else 0
    residue = {"tropical": "krasner", "stringent": d.get("residue")}.get(kind, kind)
    return Hyperfield(residue, p, rank)


def _int_of(value, path) -> int:
    """``value`` itself if it is an exact integer; bools and floats are refused."""
    if type(value) is not int:
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    return value


def _ints_of(values, path) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise SpecError(f"{path}: expected a list of integers, got {values!r}")
    return tuple(_int_of(v, f"{path}[{i}]") for i, v in enumerate(values))


def element_to_json(H: Hyperfield, x: HElement):
    if x.is_zero:
        return "0"
    out = {}
    if H.residue_kind == "sign":
        out["r"] = "+" if x.residue == 1 else "-"
    elif H.residue_kind != "krasner":
        out["r"] = x.residue
    if H.rank:
        out["g"] = list(x.grade)
    return out


def element_from_json(H: Hyperfield, d, path="$") -> HElement:
    if d == "0":
        return H.zero()
    if not isinstance(d, dict):
        raise SpecError(f'{path}: expected "0" or an object')
    grade = _ints_of(d.get("g", []), f"{path}.g")
    if len(grade) != H.rank:
        raise SpecError(f"{path}.g: expected {H.rank} grade coordinates")
    r = d.get("r")
    if H.residue_kind == "krasner":
        if r is not None and _int_of(r, f"{path}.r") != 1:
            raise SpecError(f"{path}.r: Krasner residues carry no unit label")
        residue = 1
    elif H.residue_kind == "sign":
        if r == "+":
            residue = 1
        elif r == "-":
            residue = -1
        else:
            raise SpecError(f'{path}.r: expected "+" or "-", got {r!r}')
    else:
        residue = _int_of(r, f"{path}.r")
    x = HElement(residue, grade)
    if not H.is_element(x):
        raise SpecError(f"{path}: {d!r} is not an element of the hyperfield")
    return x


def hvector_to_json(V: HVector) -> list:
    return [element_to_json(V.field, x) for x in V.entries]


def hvectors_to_json(vectors) -> list:
    """The rows of ``hvector_to_json`` for vectors over one hyperfield.

    Equal elements get one shared JSON value, built once: the values are
    read-only, and ``dumps`` writes each of them once.
    """
    shared = {}
    rows = []
    for V in vectors:
        row = []
        for x in V.entries:
            key = (x.residue, x.grade)  # hashed in C, unlike HElement
            value = shared.get(key)
            if value is None:
                value = shared[key] = element_to_json(V.field, x)
            row.append(value)
        rows.append(row)
    return rows


def hvector_from_json(H: Hyperfield, ground, entries, path="$") -> HVector:
    if not isinstance(entries, list) or len(entries) != len(ground):
        raise SpecError(f"{path}: expected a list of {len(ground)} entries")
    return HVector(
        H,
        tuple(ground),
        tuple(element_from_json(H, e, f"{path}[{i}]") for i, e in enumerate(entries)),
    )


def hmatroid_to_json(M: HMatroid) -> dict:
    """M's document; a right-labelled M is written over the opposite of its field."""
    return {
        "schema": SCHEMA,
        "hyperfield": hyperfield_to_json(M.field.op() if M.side == "right" else M.field),
        "ground": list(M.ground),
        "side": M.side,
        "circuits": hvectors_to_json(M.circuits.reps),
        "cocircuits": hvectors_to_json(M.cocircuits.reps),
        "circuit_supports": [sorted(v.support) for v in M.circuits.reps],
        "cocircuit_supports": [sorted(v.support) for v in M.cocircuits.reps],
    }


def hmatroid_parts_from_json(d, path="$"):
    """``(H, ground, circuit vectors, side)`` of an H-matroid document; a
    right matroid is read as the left one over H^op, so H is the opposite.

    Every shape check of the document is made here; the circuit axioms are
    left to ``hmatroid_from_circuits`` or to a step-by-step check.
    """
    if not isinstance(d, dict) or "hyperfield" not in d:
        raise SpecError(f"{path}: expected an H-matroid document with a 'hyperfield' key")
    H = hyperfield_from_json(d["hyperfield"], f"{path}.hyperfield")
    ground = _ground_of(d, path)
    circuits = d.get("circuits")
    if not isinstance(circuits, list):  # [] is the free matroid
        raise SpecError(f"{path}.circuits: expected a list")
    side = d.get("side", "left")
    if side not in ("left", "right"):
        raise SpecError(f"{path}.side: expected 'left' or 'right'")
    if side == "right":
        H = H.op()
    vecs = [
        hvector_from_json(H, ground, entry, f"{path}.circuits[{i}]")
        for i, entry in enumerate(circuits)
    ]
    return H, ground, vecs, side


def hmatroid_from_json(d, path="$") -> HMatroid:
    return hmatroid_from_circuits(*hmatroid_parts_from_json(d, path))


def _ground_of(d, path):
    ground = d.get("ground")
    if not isinstance(ground, list) or not ground:
        raise SpecError(f"{path}.ground: expected a nonempty list of labels")
    seen = set()
    for i, label in enumerate(ground):
        if type(label) is not str:
            raise SpecError(f"{path}.ground[{i}]: expected a string label, got {label!r}")
        if label in seen:
            raise SpecError(f"{path}.ground[{i}]: duplicate label {label!r}")
        seen.add(label)
    return tuple(ground)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SpecError(f"{path}: no such file") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, written in one pass.

    Exact strs, ints, lists and dicts with str keys are written here; any
    other value goes to ``json.dumps`` at its indent, which is exact because
    JSON text holds no raw newline.  A dict object met again at the same
    indent is not written again: its text is kept for this call only.
    """
    out = []
    _write(obj, "\n", out, {})
    out.append("\n")
    return "".join(out)


_string = json.encoder.encode_basestring_ascii


def _write(o, nl, out, seen):
    """Append the text of ``o`` to ``out``; ``nl`` is a newline and the indent of its line."""
    t = type(o)
    if t is str:
        out.append(_string(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is list and o:
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out, seen)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict and o:
        key = (id(o), len(nl))
        text = seen.get(key)
        if text is None:
            start = len(out)
            if all(type(k) is str for k in o):
                inner = nl + "  "
                sep = "{" + inner
                for k in sorted(o):
                    out.append(sep + _string(k) + ": ")
                    _write(o[k], inner, out, seen)
                    sep = "," + inner
                out.append(nl + "}")
            else:
                _stdlib(o, nl, out)
            text = seen[key] = "".join(out[start:])
            del out[start:]
        out.append(text)
    else:
        _stdlib(o, nl, out)


def _stdlib(o, nl, out):
    out.append(json.dumps(o, sort_keys=True, indent=2).replace("\n", nl))
