"""Desk-scale instance catalog used by the acceptance battery and tests."""

from __future__ import annotations

import itertools

from .hmatroid import (
    HMatroid,
    HVector,
    _align_for_elimination,
    _elimination_exists,
    _support_mask,
    hmatroid_from_circuits,
    hvector,
    modular_support_pairs,
)
from .hyperfields import HElement, Hyperfield
from .matroids import ClassicalMatroid, from_circuits, uniform_matroid

GROUND3 = ("1", "2", "3")
GROUND4 = ("1", "2", "3", "4")


def u23() -> ClassicalMatroid:
    return uniform_matroid(2, GROUND3)


def u24() -> ClassicalMatroid:
    return uniform_matroid(2, GROUND4)


def three_circuit_rank2() -> ClassicalMatroid:
    """Rank-2 matroid on four elements with exactly three circuits: 3,4 parallel."""
    return from_circuits(GROUND4, [{"1", "2", "3"}, {"1", "2", "4"}, {"3", "4"}])


def perfection_family_matroids() -> list[tuple[str, ClassicalMatroid]]:
    """The |E| <= 4 family (duals included; U_{1,3} is the dual of U_{2,3})."""
    return [
        ("U23", u23()),
        ("U13", u23().dual()),
        ("U24", u24()),
        ("P", three_circuit_rank2()),
        ("P*", three_circuit_rank2().dual()),
    ]


def all_signatures(field: Hyperfield, matroid: ClassicalMatroid) -> list[HMatroid]:
    """Every circuit signature of the matroid over the field that is a matroid.

    Normalized representatives fix the first support entry to 1, so each
    class has |units|^(|support|-1) candidate assignments.  The classes are
    assigned depth first, in support order, so candidates come out in the
    order of the product of those assignments.  A candidate failing modular
    elimination (C3) is no matroid (Baker and Bowler), so each (C3) test, a
    modular pair X, Y and an element e of both, runs as soon as X, Y and
    every circuit inside (X | Y) - e are assigned, and a failure cuts off
    the subtree.  A complete assignment that passes every (C3) test satisfies
    the weak circuit axioms, so cocircuit synthesis cannot refuse it; if it
    does, the error escapes.  ``tests/test_signature_search_reference.py``
    keeps the brute force over every candidate as an oracle.
    """
    ground = matroid.ground
    one = field.one()
    supports = sorted(matroid.circuits, key=sorted)
    slots = [sorted(sup, key=ground.index) for sup in supports]
    index = {sup: i for i, sup in enumerate(supports)}
    due = [[] for _ in supports]
    for s1, s2 in modular_support_pairs(supports):
        for e in sorted(s1 & s2):
            inside = [index[t] for t in supports if t <= (s1 | s2) - {e}]
            due[max([index[s1], index[s2]] + inside)].append((index[s1], index[s2], e, inside))
    unit_elems = [HElement(r, (0,) * field.rank) for r in field.residue_units()]
    vecs: list[HVector] = []
    out = []

    def assign(d):
        if d == len(slots):
            out.append(hmatroid_from_circuits(field, ground, vecs))
            return
        elems = slots[d]
        for coeffs in itertools.product(unit_elems, repeat=len(elems) - 1):
            vecs.append(hvector(field, ground, dict(zip(elems, (one, *coeffs)))))
            if all(_eliminates(vecs, test) for test in due[d]):
                assign(d + 1)
            vecs.pop()

    assign(0)
    return out


def _eliminates(vecs, test) -> bool:
    """Does (C3) hold for the test (i, j, e, inside) on the assigned classes:
    is some circuit among ``vecs[inside]`` an eliminant of ``vecs[i]`` and
    ``vecs[j]`` at e?"""
    i, j, e, inside = test
    X = vecs[i]
    circuits = [(vecs[k], _support_mask(vecs[k])) for k in inside]
    return _elimination_exists(X.field, circuits, X, _align_for_elimination(X.field, X, vecs[j], e), e)


def graded_rescaled(field: Hyperfield, matroid: ClassicalMatroid, weights: dict[str, int],
                    signs: dict[frozenset, dict[str, int]] | None = None) -> HMatroid:
    """Signature whose circuit entries carry the per-element grade weights.

    This is the rescaling of the flat (all grade 0) signature by the weight
    vector; ``signs`` optionally orients each circuit first.
    """
    vecs = []
    for sup in sorted(matroid.circuits, key=sorted):
        mapping = {}
        for e in sorted(sup):
            r = 1
            if signs is not None:
                r = signs[frozenset(sup)][e]
            mapping[e] = HElement(r, (weights[e],) * field.rank if field.rank else ())
        vecs.append(hvector(field, matroid.ground, mapping))
    return hmatroid_from_circuits(field, matroid.ground, vecs)


def u24_orientation_signs() -> dict[frozenset, dict[str, int]]:
    """Circuit signs of U_{2,4} realized by the columns (1,0),(0,1),(1,1),(1,2)."""
    return {
        frozenset({"1", "2", "3"}): {"1": 1, "2": 1, "3": -1},
        frozenset({"1", "2", "4"}): {"1": -1, "2": -1, "4": 1},
        frozenset({"1", "3", "4"}): {"1": 1, "3": -1, "4": 1},
        frozenset({"2", "3", "4"}): {"2": -1, "3": -1, "4": 1},
    }


def windowed_instances() -> list[tuple[str, HMatroid]]:
    """Named graded instances for the windowed acceptance criteria."""
    T = Hyperfield.tropical(1)
    SS = Hyperfield.stringent("sign", 1)
    w223 = {"1": 2, "2": 2, "3": 1}
    flat4 = {e: 0 for e in GROUND4}
    w1001 = {"1": 1, "2": 0, "3": 0, "4": 1}
    all_plus3 = {frozenset({"1", "2", "3"}): {"1": 1, "2": 1, "3": 1}}
    inst = [
        ("T-U23(2,2,1)", graded_rescaled(T, u23(), w223)),
        ("T-U24(0,0,0,0)", graded_rescaled(T, u24(), flat4)),
        ("T-U24(1,0,0,1)", graded_rescaled(T, u24(), w1001)),
        ("S-U23(2,2,1)", graded_rescaled(SS, u23(), w223, all_plus3)),
        ("S-U24(1,0,0,1)", graded_rescaled(SS, u24(), w1001, u24_orientation_signs())),
    ]
    inst += [(name + "*", M.dual()) for name, M in list(inst)]
    return inst


def corrupted_signatures(count: int = 20):
    """Deterministically corrupted graded signatures for the (C3)' agreement check.

    Corruptions bump a grade or flip a sign at a non-leading support entry,
    which preserves (C0)-(C2) structurally; some corruptions are harmless
    rescalings and both checkers must still agree on those.
    """
    bases = [M for _, M in windowed_instances()]
    out = []
    i = 0
    while len(out) < count:
        M = bases[i % len(bases)]
        H = M.field
        reps = list(M.circuits.reps)
        rep_idx = (i // len(bases)) % len(reps)
        vecs = []
        for j, rep in enumerate(reps):
            if j != rep_idx:
                vecs.append(rep)
                continue
            sup = sorted(rep.support, key=M.ground.index)
            pos = 1 + i % (len(sup) - 1)
            e = sup[pos]
            x = rep[e]
            if i % 2 == 0:
                new = HElement(x.residue, tuple(c + 1 + (i % 3) for c in x.grade))
            else:
                flipped = H.residue_neg(x.residue) if H.residue_kind == "sign" else x.residue
                new = HElement(flipped, tuple(c + (i % 3) for c in x.grade))
            entries = list(rep.entries)
            entries[M.ground.index(e)] = new
            vecs.append(HVector(H, M.ground, tuple(entries)))
        out.append((f"corrupt-{i}", H, M.ground, tuple(vecs)))
        i += 1
    return out
