"""Rank-2 lexicographic grades and matroids over quotient hyperfields."""

import itertools

import pytest

from hypermat import (
    Hyperfield,
    HVector,
    coset_map,
    covectors_enumerate,
    hmatroid_from_circuits,
    hvector,
    perp,
    perp_k,
    residue_matroid,
    validate_axioms,
    check_stringent,
    vectors_enumerate,
)

from test_hmatroid import pairing

G3 = ("1", "2", "3")


T2 = Hyperfield.tropical(2)
SS2 = Hyperfield.stringent("sign", 2)


def test_rank2_axioms_and_stringency():
    assert validate_axioms(T2, 1) == []
    assert validate_axioms(SS2, 1) == []
    assert check_stringent(T2, 1) == (True, None)


def test_rank2_lex_comparisons():
    hi = T2.unit(1, (1, -5))
    lo = T2.unit(1, (0, 99))
    assert T2.hyperadd(hi, lo).the_singleton() == hi
    s = T2.hyperadd(hi, hi)
    assert lo in s and T2.unit(1, (1, -6)) in s and T2.unit(1, (1, -4)) not in s


def test_rank2_matroid_and_residue():
    u = T2.unit
    X = hvector(T2, G3, {"1": u(1, (1, 0)), "2": u(1, (0, 1)), "3": u(1, (0, 0))})
    M = hmatroid_from_circuits(T2, G3, [X])
    assert M.dual().dual() == M
    ok, witness = perp_k(M.circuits, M.cocircuits, None)
    assert ok, witness
    M0 = residue_matroid(M)
    # (1,0) beats (0,1) lexicographically, so only element 1 tops out
    assert {frozenset(v.support) for v in M0.circuits.reps} == {frozenset({"1"})}
    assert M0.underlying.is_loop("1")


def test_rank2_vector_window():
    u = T2.unit
    X = hvector(T2, G3, {"1": u(1, (0, 0)), "2": u(1, (0, 0)), "3": u(1, (0, 0))})
    M = hmatroid_from_circuits(T2, G3, [X])
    vs = vectors_enumerate(M, 1)
    assert all(all(perp(v, y) for y in M.cocircuits.reps) for v in vs)
    # corank 1: the nine box scalings of the flat circuit, plus zero
    assert len(vs) == 10


QUOT = Hyperfield.quotient(7, [1, 2, 4])


def gf7_u23():
    F7 = Hyperfield.field(7)
    u = F7.unit
    vecs = [hvector(F7, G3, {"1": u(1), "2": u(1), "3": u(6)})]
    return hmatroid_from_circuits(F7, G3, vecs)


def test_pushforward_along_coset_map_gives_quotient_matroid():
    M = gf7_u23()
    f = coset_map(7, [1, 2, 4])
    MQ = M.push_forward(f)
    assert MQ.field == QUOT
    assert MQ.underlying == M.underlying
    ok, witness = perp_k(MQ.circuits, MQ.cocircuits, None)
    assert ok, witness


def test_quotient_matroid_vectors_and_covectors():
    MQ = gf7_u23().push_forward(coset_map(7, [1, 2, 4]))
    vs = vectors_enumerate(MQ)
    us = covectors_enumerate(MQ)
    assert any(not v.is_zero for v in vs)
    for v in vs:
        for y in MQ.cocircuits.reps:
            assert perp(v, y) == pairing(v, y).contains_zero


def _covectors_by_definition(M, window):
    """Brute force: U (over H^op) is a covector iff every circuit
    representative is orthogonal to it, with the circuit as the left factor."""
    out = set()
    for combo in itertools.product(M.field.elements_box(window), repeat=len(M.ground)):
        U = HVector(M.field.op(), M.ground, combo)
        if all(perp(X, U) for X in M.circuits.reps):
            out.add(U)
    return frozenset(out)


def test_dual_vectors_are_covectors(u23_sign, trop_u23):
    for M, w in ((u23_sign, 0), (trop_u23, 2)):
        for N, side in ((M, "left"), (M.dual(), "right")):
            assert N.side == side
            assert covectors_enumerate(N, w) == _covectors_by_definition(N, w)


def test_vector_uparrow_lands_in_residue_vectors(stringent_sign_u23):
    # windowed vectors whose top grade is zero project into the residue space
    M = stringent_sign_u23
    M0 = residue_matroid(M)
    R = M0.field
    residue_vectors = vectors_enumerate(M0, 0)
    for V in vectors_enumerate(M, 2):
        if V.is_zero or max(x.grade for x in V.entries if not x.is_zero) != (0,):
            continue
        up = V.uparrow()
        proj = HVector(R, M.ground, tuple(
            R.zero() if x.is_zero else R.unit(x.residue) for x in up.entries
        ))
        assert proj in residue_vectors
