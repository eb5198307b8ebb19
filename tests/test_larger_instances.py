"""Five-element and field-residue instances beyond the acceptance family."""

import pytest

from hypermat import (
    Hyperfield,
    check_circuit_axioms,
    check_vector_axioms,
    hmatroid_from_circuits,
    hvector,
    is_perfect,
    perp_k,
    reconstruct_from_vectors,
    residue_matroid,
    uniform_matroid,
    vectors_enumerate,
    vectors_generate,
)
from hypermat.instances import graded_rescaled

G5 = ("1", "2", "3", "4", "5")

# orientation of U_{2,5} realized by the columns (1,0),(0,1),(1,1),(1,2),(1,3)
U25_SIGNS = {
    frozenset({"1", "2", "3"}): {"1": 1, "2": 1, "3": -1},
    frozenset({"1", "2", "4"}): {"1": 1, "2": 1, "4": -1},
    frozenset({"1", "2", "5"}): {"1": 1, "2": 1, "5": -1},
    frozenset({"1", "3", "4"}): {"1": 1, "3": -1, "4": 1},
    frozenset({"1", "3", "5"}): {"1": 1, "3": -1, "5": 1},
    frozenset({"1", "4", "5"}): {"1": 1, "4": -1, "5": 1},
    frozenset({"2", "3", "4"}): {"2": 1, "3": 1, "4": -1},
    frozenset({"2", "3", "5"}): {"2": 1, "3": 1, "5": -1},
    frozenset({"2", "4", "5"}): {"2": 1, "4": 1, "5": -1},
    frozenset({"3", "4", "5"}): {"3": 1, "4": -1, "5": 1},
}


@pytest.fixture(scope="module")
def u25_sign():
    S = Hyperfield.sign()
    return graded_rescaled(S, uniform_matroid(2, G5), {e: 0 for e in G5}, U25_SIGNS)


@pytest.fixture(scope="module")
def trop_u25():
    T = Hyperfield.tropical(1)
    return graded_rescaled(T, uniform_matroid(2, G5), {"1": 1, "2": 0, "3": 2, "4": 0, "5": 1})


@pytest.fixture(scope="module")
def sf31_u23():
    SF31 = Hyperfield.stringent("field", 1, p=3)
    signs = {frozenset({"1", "2", "3"}): {"1": 1, "2": 1, "3": 2}}
    return graded_rescaled(SF31, uniform_matroid(2, ("1", "2", "3")), {"1": 2, "2": 2, "3": 1}, signs)


def test_u25_orientation_is_valid(u25_sign):
    assert check_circuit_axioms(u25_sign.circuits) == []
    ok, witness = perp_k(u25_sign.circuits, u25_sign.cocircuits, None)
    assert ok, witness


def test_u25_duality_and_minors(u25_sign):
    assert u25_sign.dual().dual() == u25_sign
    for e in G5:
        assert u25_sign.contract(e).dual() == u25_sign.dual().delete(e)


def test_u25_vectors(u25_sign):
    vs = vectors_enumerate(u25_sign, 0)
    assert vectors_generate(u25_sign, 0) == vs
    ok, witness = is_perfect(u25_sign, 0, vectors=vs)
    assert ok, witness
    rec = reconstruct_from_vectors(vs)
    assert rec.circuits == u25_sign.circuits


def test_tropical_u25(trop_u25):
    vs = vectors_enumerate(trop_u25, 1)
    assert vectors_generate(trop_u25, 1) == vs
    ok, witness = is_perfect(trop_u25, 1, vectors=vs)
    assert ok, witness
    M0 = residue_matroid(trop_u25)
    # weights (1,0,2,0,1): every circuit tops out on 1, 3 or 5 alone except
    # the {1,5}-flat ones, so 1, 3, 5 become loops and 2, 4 stay free
    assert {frozenset(v.support) for v in M0.circuits.reps} == {
        frozenset({"1"}), frozenset({"3"}), frozenset({"5"})
    }
    assert {frozenset(v.support) for v in M0.cocircuits.reps} == {
        frozenset({"2"}), frozenset({"4"})
    }
    assert M0.underlying.rank == 2


def test_sf31_instance(sf31_u23):
    assert sf31_u23.field.residue_kind == "field"
    assert check_circuit_axioms(sf31_u23.circuits) == []
    vs = vectors_enumerate(sf31_u23, 2)
    assert vectors_generate(sf31_u23, 2) == vs
    ok, witness = is_perfect(sf31_u23, 2, vectors=vs)
    assert ok, witness
    assert check_vector_axioms(vs, 2) == []
    M0 = residue_matroid(sf31_u23)
    assert M0.field == Hyperfield.field(3)
    assert {frozenset(v.support) for v in M0.circuits.reps} == {frozenset({"1", "2"})}
    rep = M0.circuits.reps[0]
    assert rep["1"].residue == 1 and rep["2"].residue == 1


def test_sf31_minor_dual(sf31_u23):
    for e in ("1", "2", "3"):
        assert sf31_u23.contract(e).dual() == sf31_u23.dual().delete(e)
