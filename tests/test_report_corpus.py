"""Golden reports of the matroid verbs, compared byte for byte.

``tests/data/reports/`` holds eight H-matroid documents, ``<name>.json``, and
for each the outcome of ``matroid check``, ``dual``, ``minor --delete 1``,
``minor --contract 1``, ``residue``, ``pushforward --hom valuation``, and
``perfect``, ``vector-axioms``, ``farkas`` (R = {1}, G = {2}, B the rest
of the ground set), ``vectors --enumerate`` and ``vectors --generate`` at
``--window 1`` in ``<name>.reports.txt``, one line per
verb: the exit code, the stderr text and the report with every
``elapsed_ms`` removed, or, for an exception that escapes ``cli.run``, its
type, message and witness repr.  Each report file must also be the text
``json.dumps(report, sort_keys=True, indent=2)`` and a newline.
The documents are seeded GF(p) realizations of U_{3,6} (valid and with one
scaled entry) and U_{2,5}, a corrupted GF(3) U_{2,4}, a sign U_{2,4} with one
flipped sign, the tropical and stringent-sign windowed U_{2,4}(1,0,0,1) of
the battery and a GF(7)/{1,2,4} U_{2,4}.

Regenerate with ``PYTHONPATH=src python tests/test_report_corpus.py``, and
only when a report is meant to change.
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest

from hypermat import Hyperfield
from hypermat.cli import run
from hypermat.instances import graded_rescaled, u24_orientation_signs, windowed_instances
from hypermat.instances import u24 as u24_matroid
from hypermat.jsonio import SCHEMA, dumps, hmatroid_to_json, hvector_to_json

from test_construction_reference import uniform_realization

CORPUS = os.path.join(os.path.dirname(__file__), "data", "reports")


def verbs(ground) -> dict[str, list[str]]:
    """The verbs run on a document with this ground set, by line name."""
    partition = json.dumps({"R": ["1"], "G": ["2"], "B": [e for e in ground if e not in ("1", "2")]})
    return {
        "check": ["check"],
        "dual": ["dual"],
        "delete-1": ["minor", "--delete", "1"],
        "contract-1": ["minor", "--contract", "1"],
        "residue": ["residue"],
        "pushforward-valuation": ["pushforward", "--hom", "valuation"],
        "perfect-w1": ["perfect", "--window", "1"],
        "vector-axioms-w1": ["vector-axioms", "--window", "1"],
        "farkas-w1": ["farkas", "--window", "1", "--partition", partition],
        "vectors-enumerate-w1": ["vectors", "--enumerate", "--window", "1"],
        "vectors-generate-w1": ["vectors", "--generate", "--window", "1"],
    }


def _doc(hyperfield, rows):
    return {"schema": SCHEMA, "hyperfield": hyperfield,
            "ground": [str(i + 1) for i in range(len(rows[0]))], "side": "left", "circuits": rows}


def _field_doc(p, circuits):
    return _doc({"kind": "field", "p": p}, [["0" if x == 0 else {"r": x} for x in c] for c in circuits])


def _scaled(circuits, p, factor):
    """The circuits with the last support entry of the last one times ``factor``."""
    bad = [list(c) for c in circuits]
    e = max(i for i, x in enumerate(bad[-1]) if x)
    bad[-1][e] = bad[-1][e] * factor % p
    return bad


def documents() -> dict[str, dict]:
    rng = random.Random(17)
    u36 = uniform_realization(rng, 3, 6, 101)
    u25 = uniform_realization(rng, 2, 5, 10007)
    u24 = uniform_realization(rng, 2, 4, 3)
    windowed = dict(windowed_instances())
    S = Hyperfield.sign()
    flipped = [hvector_to_json(v) for v in graded_rescaled(
        S, u24_matroid(), {e: 0 for e in "1234"}, u24_orientation_signs()).circuits.reps]
    e = max(i for i, x in enumerate(flipped[-1]) if x != "0")
    flipped[-1][e] = {"r": "-" if flipped[-1][e]["r"] == "+" else "+"}
    # the image of a GF(7) U_{2,4} under the coset map onto GF(7)/{1,2,4}
    gf7 = uniform_realization(rng, 2, 4, 7)
    squares = {1, 2, 4}
    quotient = [["0" if x == 0 else {"r": 1 if x in squares else 3} for x in c] for c in gf7]
    return {
        "gf101-U36-valid": _field_doc(101, u36),
        "gf101-U36-scaled": _field_doc(101, _scaled(u36, 101, 5)),
        "gf10007-U25-valid": _field_doc(10007, u25),
        "gf3-U24-corrupt": _field_doc(3, _scaled(u24, 3, 2)),
        "sign-U24-flipped": _doc({"kind": "sign"}, flipped),
        "tropical-U24-1001": hmatroid_to_json(windowed["T-U24(1,0,0,1)"]),
        "stringent-sign-U24-1001": hmatroid_to_json(windowed["S-U24(1,0,0,1)"]),
        "gf7q124-U24": _doc({"kind": "quotient", "p": 7, "subgroup": [1, 2, 4]}, quotient),
    }


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def outcome(path, argv) -> dict:
    """What ``hypermat matroid <argv> <path>`` does, without timings."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = run(["matroid", *argv, path, "--out", out])
        except Exception as exc:  # an escape is part of what the corpus pins
            return {"exception": {"type": type(exc).__name__, "message": str(exc),
                                  "witness": repr(getattr(exc, "witness", None))}}
        report = None
        if os.path.exists(out):
            with open(out) as fh:
                text = fh.read()
            report = json.loads(text)
            # the compact line drops layout, so pin it here
            assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
            report = _strip(report)
        return {"exit": code, "stderr": err.getvalue(), "report": report}


def reports_text(path) -> str:
    """One line per verb: its name and its outcome as compact JSON."""
    with open(path) as fh:
        ground = json.load(fh)["ground"]
    return "".join(f"{name} {json.dumps(outcome(path, argv), sort_keys=True, separators=(',', ':'))}\n"
                   for name, argv in verbs(ground).items())


NAMES = sorted(f[: -len(".reports.txt")] for f in os.listdir(CORPUS) if f.endswith(".reports.txt")) \
    if os.path.isdir(CORPUS) else []


def test_corpus_is_complete_and_small():
    assert NAMES == sorted(documents())
    size = sum(os.path.getsize(os.path.join(CORPUS, f)) for f in os.listdir(CORPUS))
    assert size < 100_000


@pytest.mark.parametrize("name", NAMES)
def test_reports_are_byte_identical(name):
    with open(os.path.join(CORPUS, name + ".reports.txt")) as fh:
        expected = fh.read()
    assert reports_text(os.path.join(CORPUS, name + ".json")) == expected


def main():
    os.makedirs(CORPUS, exist_ok=True)
    for name, doc in documents().items():
        path = os.path.join(CORPUS, name + ".json")
        with open(path, "w") as fh:
            fh.write(dumps(doc))
        with open(os.path.join(CORPUS, name + ".reports.txt"), "w") as fh:
            fh.write(reports_text(path))


if __name__ == "__main__":
    main()
