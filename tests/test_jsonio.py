import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import Hyperfield, SpecError, __version__
from hypermat import jsonio


ALL_KINDS = [
    Hyperfield.krasner(),
    Hyperfield.sign(),
    Hyperfield.field(5),
    Hyperfield.tropical(1),
    Hyperfield.tropical(2),
    Hyperfield.stringent("sign", 1),
    Hyperfield.stringent("field", 1, p=3),
    Hyperfield.quotient(7, [1, 2, 4]),
]


def test_hyperfield_round_trip():
    for H in ALL_KINDS:
        doc = jsonio.hyperfield_to_json(H)
        assert jsonio.hyperfield_from_json(doc) == H


def test_stringent_krasner_residue_canonicalizes_to_tropical():
    doc = {"kind": "stringent", "residue": "krasner", "rank": 2}
    assert jsonio.hyperfield_from_json(doc) == Hyperfield.tropical(2)


def test_element_round_trip():
    for H in ALL_KINDS:
        for x in H.elements_box(2):
            doc = jsonio.element_to_json(H, x)
            assert jsonio.element_from_json(H, doc) == x


def test_element_json_shapes():
    S = Hyperfield.sign()
    assert jsonio.element_to_json(S, S.zero()) == "0"
    assert jsonio.element_to_json(S, S.unit(-1)) == {"r": "-"}
    T = Hyperfield.tropical(1)
    assert jsonio.element_to_json(T, T.unit(1, (2,))) == {"g": [2]}
    SS = Hyperfield.stringent("sign", 1)
    assert jsonio.element_to_json(SS, SS.unit(1, (2,))) == {"r": "+", "g": [2]}


def test_element_errors_carry_location():
    S = Hyperfield.sign()
    with pytest.raises(SpecError, match=r"\$\.here"):
        jsonio.element_from_json(S, {"r": "x"}, "$.here")
    with pytest.raises(SpecError):
        jsonio.element_from_json(S, {"r": "+", "g": [1]})


@pytest.mark.parametrize("doc", [
    {"kind": "field", "p": "x"},
    {"kind": "field", "p": 7.5},
    {"kind": "field", "p": 7.0},
    {"kind": "field", "p": True},
    {"kind": "tropical", "rank": 1.5},
    {"kind": "stringent", "residue": "sign", "rank": True},
    {"kind": "stringent", "residue": "field", "rank": 1, "p": 7.0},
    {"kind": "quotient", "p": "7", "subgroup": [1, 2, 4]},
    {"kind": "quotient", "p": 7, "subgroup": [1, "2", 4]},
    {"kind": "quotient", "p": 7, "subgroup": "1,2,4"},
])
def test_non_integer_hyperfield_parameters_rejected(doc):
    with pytest.raises(SpecError, match=r"^\$\.hyperfield\.(p|rank|subgroup)\S*: expected a.* integer"):
        jsonio.hyperfield_from_json(doc)


@pytest.mark.parametrize("H, doc", [
    (Hyperfield.field(5), {"r": True}),
    (Hyperfield.field(5), {"r": 1.5}),
    (Hyperfield.field(5), {"r": 2.0}),
    (Hyperfield.field(5), {}),
    (Hyperfield.krasner(), {"r": True}),
    (Hyperfield.quotient(7, [1, 2, 4]), {"r": True}),
    (Hyperfield.tropical(1), {"g": [1.5]}),
    (Hyperfield.tropical(1), {"g": [True]}),
    (Hyperfield.tropical(1), {"g": 1}),
    (Hyperfield.stringent("sign", 1), {"r": "+", "g": [0.0]}),
])
def test_inexact_element_numbers_rejected(H, doc):
    with pytest.raises(SpecError, match=r"^\$\.here\.(r|g)\S*: expected a.* integer"):
        jsonio.element_from_json(H, doc, "$.here")


def test_hmatroid_round_trip(u23_sign, trop_u23, stringent_sign_u23):
    for M in (u23_sign, trop_u23, stringent_sign_u23):
        doc = jsonio.hmatroid_to_json(M)
        again = jsonio.hmatroid_from_json(doc)
        assert again == M
        assert jsonio.hmatroid_to_json(again) == doc


def test_hmatroid_requires_hyperfield_key():
    with pytest.raises(SpecError):
        jsonio.hmatroid_from_json({"ground": ["1"], "circuits": [["0"]]})


def test_unknown_kind_rejected():
    with pytest.raises(SpecError, match="unknown hyperfield kind"):
        jsonio.hyperfield_from_json({"kind": "phase"})


def test_package_version_is_read_from_jsonio():
    # pyproject.toml keeps no copy of its own: setuptools reads jsonio.VERSION
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hypermat.jsonio.VERSION"}
    assert __version__ == jsonio.VERSION


def test_hvectors_to_json_shares_equal_elements(stringent_sign_u23):
    reps = stringent_sign_u23.circuits.reps + stringent_sign_u23.cocircuits.reps
    rows = jsonio.hvectors_to_json(reps)
    assert rows == [jsonio.hvector_to_json(v) for v in reps]
    entries = [x for row in rows for x in row]
    assert len({id(x) for x in entries}) == len({json.dumps(x) for x in entries}) < len(entries)


_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
                   max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, -2**60), st.floats(), _STRINGS,
)


def _values(depth):
    """JSON values nested at most ``depth`` containers deep, tuples and int keys included."""
    if depth == 0:
        return _SCALARS
    inner = _values(depth - 1)
    return st.one_of(
        _SCALARS,
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(_STRINGS, inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=2),
    )


@st.composite
def _shared_dict(draw):
    """One dict object placed twice at one depth and once at another."""
    shared = draw(st.dictionaries(_STRINGS, _values(2), min_size=1, max_size=3))
    return {"twice": [shared, draw(_values(2)), shared], "once": {"deeper": [shared]}}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(_values(5), _shared_dict()))
def test_dumps_matches_the_stdlib_encoder(value):
    assert jsonio.dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_dumps_keeps_no_text_between_calls():
    shared = {"g": [1]}
    doc = [shared, {"x": shared}]
    first = jsonio.dumps(doc)
    shared["g"].append(2)
    second = jsonio.dumps(doc)
    assert second != first
    assert second == json.dumps(doc, sort_keys=True, indent=2) + "\n"
