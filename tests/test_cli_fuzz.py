"""Fuzz the command line's exit contract.

Every input ends in exit 0 or 1 with a JSON report on stdout, or in exit 2
with exactly one ``error:`` line on stderr; nothing ends in a traceback.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat.cli import main


def fuzz(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None)


# (JSON form, residue labels, rank); the labels include a few non-members
HYPERFIELDS = [
    ({"kind": "sign"}, ["+", "-", "x"], 0),
    ({"kind": "field", "p": 3}, [0, 1, 2, 3], 0),
    ({"kind": "field", "p": 5}, [1, 2, 3, 4, 5], 0),
    ({"kind": "tropical", "rank": 1}, [None], 1),
    ({"kind": "stringent", "residue": "sign", "rank": 1}, ["+", "-"], 1),
    ({"kind": "quotient", "p": 7, "subgroup": [1, 2, 4]}, [1, 2, 3], 0),
]


def _entry(residues, rank):
    unit = st.builds(
        lambda r, g: {k: v for k, v in (("r", r), ("g", g)) if v is not None},
        st.sampled_from(residues),
        st.lists(st.integers(-2, 2), min_size=rank, max_size=rank) if rank else st.none(),
    )
    return st.one_of(st.just("0"), unit)


@st.composite
def matroid_runs(draw):
    """A matroid document plus one argv for a ``matroid`` verb on it."""
    hf, residues, rank = draw(st.sampled_from(HYPERFIELDS))
    ground = ["1", "2", "3"][: draw(st.integers(2, 3))]
    entry = _entry(residues, rank)
    row = st.lists(entry, min_size=len(ground), max_size=len(ground))
    doc = {
        "hyperfield": hf,
        "ground": ground,
        "side": draw(st.sampled_from(["left", "right"])),
        "circuits": draw(st.lists(row, min_size=0, max_size=3)),
    }
    e = draw(st.sampled_from(ground))
    rho = {g: draw(entry) for g in ground}
    partition = {}
    for g in ground:
        partition.setdefault(draw(st.sampled_from("RGB")), []).append(g)
    verb = draw(st.sampled_from([
        ["check"],
        ["dual"],
        ["minor", "--delete", e],
        ["minor", "--contract", e],
        ["rescale", "--rho", json.dumps(rho)],
        ["residue"],
        ["vectors", "--enumerate"],
        ["vectors", "--generate"],
        ["perfect"],
        ["vector-axioms"],
        ["pushforward", "--hom", "valuation"],
        ["pushforward", "--hom", "sign"],
        ["farkas", "--partition", json.dumps(partition)],
        ["farkas", "--partition", json.dumps(partition), "--weak"],
    ]))
    window = draw(st.integers(0, 1))
    return doc, ["matroid", *verb, "--window", str(window)]


hyperfield_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["krasner", "sign", "field", "tropical", "stringent", "quotient", "bogus"])},
    optional={
        "p": st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7, 9]),
        "rank": st.integers(-1, 1),
        "residue": st.sampled_from(["krasner", "sign", "field", "bogus"]),
        "subgroup": st.lists(st.integers(-1, 8), max_size=3),
    },
)


def _run_main(doc, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main([*argv, path])
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        report = json.loads(out)
        passed = all(c["status"] == "pass" for c in report["checks"])
        assert code == (0 if passed else 1)


@fuzz(300)
@given(matroid_runs())
def test_matroid_verbs_keep_the_exit_contract(run):
    doc, argv = run
    _assert_exit_contract(*_run_main(doc, argv))


@fuzz(150)
@given(hyperfield_docs, st.integers(0, 1))
def test_check_hyperfield_keeps_the_exit_contract(doc, window):
    _assert_exit_contract(*_run_main(doc, ["check-hyperfield", "--window", str(window)]))
