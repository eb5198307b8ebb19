"""The three benchmark workloads: seeded inputs, requests, known answers.

Every workload is a fixed list of requests, each one ``hypermat`` command
line run in-process through ``hypermat.cli.run``.  Inputs are written as
JSON documents from the seed alone, and each request carries a checker
that compares the verdict with a known answer derived without the code
path under test.  Checkers run after the timed region.

A checker takes the ``Outcome`` of a call (see run.py) and returns one
status per verdict:

- ``ok``: the verdict matches its known answer;
- ``failed``: an exception escaped ``cli.run`` on an input that must be
  rejected (the input is refused, but not with the one-line error the CLI
  promises);
- ``wrong``: any other disagreement, such as a valid input refused or a
  wrong vector set.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import gfp
from hypermat import jsonio
from hypermat.vectorspace import reconstruct_from_vectors, vectors_generate

SCHEMA = "hypermat/1"


@dataclass
class Request:
    """One command line with the checker for its verdicts."""

    label: str
    argv: list
    out: str
    check: object  # Outcome -> list of statuses, one per verdict
    per_record: bool = False  # verdicts are the report's check records


def write_doc(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def _ground(n):
    return [str(i + 1) for i in range(n)]


def _matroid_doc(hyperfield, n, circuits):
    return {
        "schema": SCHEMA,
        "hyperfield": hyperfield,
        "ground": _ground(n),
        "side": "left",
        "circuits": circuits,
    }


# -- battery -----------------------------------------------------------------


def battery(seed, workdir) -> list[Request]:
    """The full acceptance battery; the seed is recorded and has no effect."""
    out = os.path.join(workdir, "suite.json")

    def check(o):
        if o.error is not None or o.code != 0 or o.report is None:
            return ["wrong"] * 11
        records = o.doc()["checks"]
        statuses = ["ok" if r["status"] == "pass" else "wrong" for r in records]
        return statuses + ["wrong"] * (11 - len(statuses))

    return [Request("suite", ["suite", "--out", out], out, check, per_record=True)]


# -- enumerate ---------------------------------------------------------------

# (hyperfield, window, rank, |E|, also run `matroid perfect`).  Enumeration
# cost is |window box|^|E| candidates; the known answer (vector generation)
# grows with the corank, so high-corank instances stay at small |E|.
ENUMERATE_GRID = [
    ("sign", 0, 2, 4, True),
    ("sign", 0, 3, 5, True),
    ("sign", 0, 3, 6, True),
    ("sign", 0, 4, 7, True),
    ("gf3", 0, 2, 4, True),
    ("gf3", 0, 3, 4, True),
    ("gf3", 0, 1, 5, True),
    ("gf3", 0, 4, 5, True),
    ("tropical", 1, 2, 4, True),
    ("tropical", 1, 3, 5, True),
    ("tropical", 1, 4, 6, False),
    ("tropical", 1, 4, 7, False),
    ("tropical", 2, 2, 4, True),
    ("tropical", 2, 2, 5, False),
    ("tropical", 2, 3, 6, False),
    ("tropical", 2, 4, 6, False),
    ("stringent", 1, 2, 4, True),
    ("stringent", 1, 3, 5, True),
    ("stringent", 1, 5, 6, False),
    ("stringent", 2, 2, 4, True),
    ("stringent", 2, 3, 5, False),
]

HYPERFIELDS = {
    "sign": {"kind": "sign"},
    "gf3": {"kind": "field", "p": 3},
    "tropical": {"kind": "tropical", "rank": 1},
    "stringent": {"kind": "stringent", "residue": "sign", "rank": 1},
}


def uniform_matrix(rng, r, n, p):
    """A seeded r x n matrix over GF(p) whose column matroid is U_{r,n}."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        if gfp.is_uniform(m, p):
            return m


def oriented_uniform(rng, r, n):
    """A seeded rational r x n matrix whose column matroid is U_{r,n}.

    A Vandermonde matrix on seeded distinct nodes, with seeded column signs,
    so no draw is rejected.  Also returns each column's node rank: its
    oriented matroid depends only on the node order and the signs.
    """
    nodes = rng.sample(range(-9, 10), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    matrix = [[s * x**i for x, s in zip(nodes, signs)] for i in range(r)]
    order = sorted(nodes)
    return matrix, [order.index(x) for x in nodes]


# Element e gets grade weight WEIGHTS[node rank of e]: every seed relabels
# and reorients one graded instance per grid entry, so seeds differ in their
# inputs but not in how much work they take.
WEIGHTS = (-1, 0, 1, 0, 1, -1, 0)


def graded_circuits(kind, rng, r, n):
    """Circuit entries of U_{r,n} over ``kind``, as JSON.

    Residues come from the circuits of a seeded matrix (signs of a rational
    matrix, or a GF(3) matrix), so every signature is a matroid; graded
    kinds then rescale each element by its grade weight.
    """
    if kind == "gf3":
        p, matrix, ranks = 3, uniform_matrix(rng, r, n, 3), range(n)
    else:
        p, (matrix, ranks) = None, oriented_uniform(rng, r, n)
    circuits, _ = gfp.column_matroid(matrix, p)
    weights = [WEIGHTS[k] for k in ranks]
    out = []
    for vec in sorted(circuits):
        entries = []
        for e, x in enumerate(vec):
            if x == 0:
                entries.append("0")
            elif kind == "gf3":
                entries.append({"r": int(x)})
            elif kind == "sign":
                entries.append({"r": "+" if x > 0 else "-"})
            elif kind == "tropical":
                entries.append({"g": [weights[e]]})
            else:
                entries.append({"r": "+" if x > 0 else "-", "g": [weights[e]]})
        out.append(entries)
    return out


def enumerate_docs(seed):
    """[(name, window, perfect, document)] for the enumerate grid."""
    rng = random.Random(seed)
    docs = []
    for kind, window, r, n, perfect in ENUMERATE_GRID:
        circuits = graded_circuits(kind, rng, r, n)
        doc = _matroid_doc(HYPERFIELDS[kind], n, circuits)
        docs.append((f"{kind}-U{r}{n}-w{window}", window, perfect, doc))
    return docs


def enumerate_workload(seed, workdir) -> list[Request]:
    requests = []
    for name, window, perfect, doc in enumerate_docs(seed):
        path = os.path.join(workdir, f"{name}.json")
        write_doc(path, doc)
        verbs = [("vectors", ["--enumerate"])] + ([("perfect", [])] if perfect else [])
        for verb, extra in verbs:
            out = os.path.join(workdir, f"{name}.{verb}.out.json")
            argv = ["matroid", verb, *extra, path, "--window", str(window), "--out", out]
            check = _vectors_check(doc, window) if verb == "vectors" else _perfect_check
            requests.append(Request(f"{verb} {name}", argv, out, check))
    return requests


def _vectors_check(doc, window):
    def check(o):
        if o.error is not None or o.code != 0 or o.report is None:
            return ["wrong"]
        M = jsonio.hmatroid_from_json(doc)
        result = o.doc()["result"]
        got = frozenset(jsonio.hvector_from_json(M.field, M.ground, v) for v in result["vectors"])
        if result["count"] != len(got) or got != vectors_generate(M, window):
            return ["wrong"]
        if reconstruct_from_vectors(got, side=M.side).circuits != M.circuits:
            return ["wrong"]
        return ["ok"]

    return check


def _perfect_check(o):
    if o.error is not None or o.code != 0 or o.report is None:
        return ["wrong"]
    checks = o.doc()["checks"]
    ok = [c["check"] for c in checks] == ["perfection"] and checks[0]["status"] == "pass"
    return ["ok" if ok else "wrong"]


# -- construct ---------------------------------------------------------------

# U_{r,n} is representable over GF(p) only for n <= p + 1 at these ranks,
# so GF(3) carries U_{2,4} alone.
CONSTRUCT_GRID = [
    (3, 2, 4),
    (101, 2, 4),
    (101, 2, 5),
    (101, 3, 6),
    (10007, 2, 4),
    (10007, 2, 5),
    (10007, 3, 6),
]


@dataclass
class Realized:
    """A seeded GF(p) matrix, its circuit signature, and one corrupted copy."""

    name: str
    p: int
    matrix: list
    circuits: set
    cocircuits: set
    corrupted: list  # the circuits, with one entry of one of them scaled


def realized_signatures(seed):
    rng = random.Random(seed)
    out = []
    for p, r, n in CONSTRUCT_GRID:
        matrix = uniform_matrix(rng, r, n, p)
        circuits, cocircuits = gfp.column_matroid(matrix, p)
        # The scaled entry is always the last one of the circuit with the
        # last support, so every seed's corrupted copy fails at the same step
        # of dual synthesis; the seed picks the factor.
        bad = [list(c) for c in sorted(circuits)]
        victim = max(bad, key=lambda c: [i for i, x in enumerate(c) if x])
        e = max(i for i, x in enumerate(victim) if x)
        victim[e] = victim[e] * rng.randrange(2, p) % p
        out.append(Realized(f"gf{p}-U{r}{n}", p, matrix, circuits, cocircuits, bad))
    return out


def field_doc(p, n, circuits):
    rows = [["0" if x == 0 else {"r": int(x)} for x in c] for c in sorted(circuits)]
    return _matroid_doc({"kind": "field", "p": p}, n, rows)


def construct_workload(seed, workdir) -> list[Request]:
    requests = []
    for sig in realized_signatures(seed):
        n = len(sig.matrix[0])
        for tag, circuits in (("valid", sig.circuits), ("corrupt", sig.corrupted)):
            path = os.path.join(workdir, f"{sig.name}-{tag}.json")
            write_doc(path, field_doc(sig.p, n, circuits))
            verbs = [("check", [], None), ("dual", [], None)]
            for e in range(n):
                verbs.append(("minor", ["--delete", str(e + 1)], (e, False)))
                verbs.append(("minor", ["--contract", str(e + 1)], (e, True)))
            for i, (verb, extra, minor) in enumerate(verbs):
                out = os.path.join(workdir, f"{sig.name}-{tag}.{i}.out.json")
                argv = ["matroid", verb, *extra, path, "--out", out]
                if tag == "corrupt":
                    check = _rejected_check
                else:
                    check = _valid_check(sig, verb, minor)
                label = " ".join([verb, *extra, f"{sig.name}-{tag}"])
                requests.append(Request(label, argv, out, check))
    return requests


def _field_vectors(rows):
    return {tuple(0 if x == "0" else x["r"] for x in row) for row in rows}


def _valid_check(sig: Realized, verb, minor):
    if verb == "check":
        want = (sig.circuits, sig.cocircuits)
    elif verb == "dual":
        want = (sig.cocircuits, sig.circuits)
    else:
        want = None

    def check(o):
        if o.error is not None or o.code != 0 or o.report is None:
            return ["wrong"]
        result = o.doc()["result"]
        expected = want or gfp.minor_answers(sig.matrix, *minor, sig.p)
        got = (_field_vectors(result["circuits"]), _field_vectors(result["cocircuits"]))
        return ["ok" if got == expected else "wrong"]

    return check


def _rejected_check(o):
    """A non-zero exit with a one-line error, never a traceback."""
    if o.error is not None:
        return ["failed"]
    if o.code == 2:
        lines = o.stderr.strip().splitlines()
        return ["ok" if len(lines) == 1 and lines[0].startswith("error:") else "wrong"]
    if o.code == 1 and o.report is not None:
        failing = [c for c in o.doc()["checks"] if c["status"] == "fail"]
        errors = [(c.get("witness") or {}).get("error") for c in failing]
        one_line = all(isinstance(e, str) and "\n" not in e for e in errors)
        return ["ok" if errors and one_line else "wrong"]
    return ["wrong"]


WORKLOADS = {
    "battery": battery,
    "enumerate": enumerate_workload,
    "construct": construct_workload,
}
