"""The table-driven vector-axiom checker against the per-pair one it replaced.

``reference_check_vector_axioms`` and ``_reference_v3_eliminant_exists``
are the earlier ``check_vector_axioms`` and ``_v3_eliminant_exists``,
kept verbatim as a test-only oracle: they build an ``HVector`` for every
composition, hypersum and eliminant candidate.  The new checker must return
the same report list, witnesses and order included, on the battery's sets
and on seeded perturbed copies of them.
"""

import itertools
import random

import pytest

from hypermat import (
    DomainMismatchError,
    Hyperfield,
    HVector,
    UnsupportedOperationError,
    check_vector_axioms,
    compose_vectors,
    hvector,
    reconstruct_from_vectors,
    vectors_enumerate,
    zero_vector,
)
from hypermat.acceptance import AcceptanceContext
from hypermat.errors import HypermatError
from hypermat.vectorspace import _grade_spread, _vector_hypersum, _within_box


def reference_check_vector_axioms(vectors, window: int = 4, side: str = "left") -> list[dict]:
    vectors = frozenset(vectors)
    if not vectors:
        return [{"check": "V0", "witness": None}]
    some = next(iter(vectors))
    H, ground = some.field, some.ground
    report = []
    if zero_vector(H, ground) not in vectors:
        report.append({"check": "V0", "witness": None})
    recon = None
    if any(not v.is_zero for v in vectors):
        try:
            recon = reconstruct_from_vectors(vectors, side=side)
        except HypermatError:
            recon = None
    scalars = H.units_box(2 * window) if H.rank else H.units_box(0)
    for V in sorted(vectors, key=lambda v: v.sort_key()):
        for a in scalars:
            aV = V.scale_left(a) if side == "left" else V.scale_right(a)
            if _within_box(aV, window) and aV not in vectors:
                report.append({"check": "V1", "witness": {"a": a, "V": V}})
    residue = H.residue_kind
    ordered = sorted(vectors, key=lambda v: v.sort_key())
    for V, W in itertools.product(ordered, ordered):
        VW = compose_vectors(V, W)
        support_ok = VW.support == V.support | W.support
        if residue in ("krasner", "sign") or support_ok:
            if _within_box(VW, window) and VW not in vectors:
                report.append({"check": "V2'", "witness": {"V": V, "W": W}})
        if residue == "field":
            total = _vector_hypersum((V, W))
            if total is not None and _within_box(total, window) and total not in vectors:
                report.append({"check": "V2''", "witness": {"V": V, "W": W}})
    slack = window + _grade_spread(recon.circuits) + 1 if recon is not None else window
    for i, V in enumerate(ordered):
        for W in ordered[i:]:
            for e in ground:
                ve, we = V[e], W[e]
                if ve.is_zero or H.neg(ve) != we:
                    continue
                if not _reference_v3_eliminant_exists(vectors, V, W, e, window, recon, slack):
                    report.append({"check": "V3", "witness": {"V": V, "W": W, "e": e}})
    return report


def _reference_v3_eliminant_exists(vectors, V, W, e, window, recon, slack) -> bool:
    H = V.field
    ground = V.ground
    sums = [H.hyperadd(a, b) for a, b in zip(V.entries, W.entries)]
    fixed = {}
    free = []
    for i, s in enumerate(sums):
        elt = s.the_singleton()
        if elt is not None:
            fixed[i] = elt
        elif ground[i] == e:
            fixed[i] = H.zero()
        else:
            free.append(i)
    ei = ground.index(e)
    if ei in fixed and not fixed[ei].is_zero:
        return False
    # cheapest first: all-zero choice on the cancelling coordinates
    base = [fixed.get(i, H.zero()) for i in range(len(ground))]
    candidate = HVector(H, ground, tuple(base))
    if all(b in s for b, s in zip(candidate.entries, sums)) and candidate in vectors:
        return True
    choices = [sums[i].elements_within(window) for i in free]
    total = 1
    for c in choices:
        total *= len(c)
    if total <= max(len(vectors), 1):
        for picks in itertools.product(*choices):
            entries = list(base)
            for i, val in zip(free, picks):
                entries[i] = val
            Z = HVector(H, ground, tuple(entries))
            if Z in vectors:
                return True
    else:
        for Z in vectors:
            if Z[e].is_zero and all(z in s for z, s in zip(Z.entries, sums)):
                return True
    if recon is None or H.rank == 0:
        return False
    # no in-box member: look for an eliminant whose entries escape the box
    deep = [sums[i].elements_within(slack) for i in free]
    for picks in itertools.product(*deep):
        entries = list(base)
        for i, val in zip(free, picks):
            entries[i] = val
        Z = HVector(H, ground, tuple(entries))
        if not all(recon.vector_perp(Z, Y) for Y in recon.cocircuits.reps):
            continue
        return not _within_box(Z, window)
    return False


# -- inputs ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def battery_sets():
    """(name, vector set, window, side) for every family instance and T-U23(2,2,1)*."""
    ctx = AcceptanceContext()
    chosen = ctx.family() + [(n, M) for n, M in ctx.windowed() if n == "T-U23(2,2,1)*"]
    out = []
    for name, M in chosen:
        w = ctx.instance_window(M)
        out.append((name, ctx.vectors(M, w), w, M.side))
    assert len(out) == len(ctx.family()) + 1
    return out


def _dropped(rng, vs, count):
    ordered = sorted(vs, key=lambda v: v.sort_key())
    return frozenset(vs) - frozenset(rng.sample(ordered, min(count, len(ordered))))


def _with_foreign(rng, vs, window):
    """The set plus one vector with entries in the window box that it lacks."""
    some = next(iter(vs))
    box = some.field.elements_box(window)
    while True:
        V = HVector(some.field, some.ground, tuple(rng.choice(box) for _ in some.ground))
        if V not in vs:
            return frozenset(vs) | {V}


def _perturbed(battery_sets):
    """Seeded copies with one vector dropped, three dropped, or one foreign added.

    The rank-0 family instances take the three kinds in turn; the graded
    instance gets all three.
    """
    rng = random.Random(20240611)
    kinds = [
        ("-1", lambda vs, w: _dropped(rng, vs, 1)),
        ("-3", lambda vs, w: _dropped(rng, vs, 3)),
        ("+1", lambda vs, w: _with_foreign(rng, vs, w)),
    ]
    out = []
    for i, (name, vs, w, side) in enumerate(battery_sets):
        for label, perturb in kinds if w else [kinds[i % 3]]:
            out.append((f"{name} {label}", perturb(vs, w), w, side))
    return out


def _assert_same(cases):
    for name, vs, w, side in cases:
        assert check_vector_axioms(vs, w, side) == reference_check_vector_axioms(vs, w, side), name


# -- differential tests ---------------------------------------------------------


def test_same_reports_on_battery_sets(battery_sets):
    _assert_same(battery_sets)


def test_same_reports_on_perturbed_sets(battery_sets):
    cases = _perturbed(battery_sets)
    _assert_same(cases)
    # the perturbations reach every check, so the comparison covers each branch
    seen = {r["check"] for name, vs, w, side in cases for r in check_vector_axioms(vs, w, side)}
    assert seen == {"V0", "V1", "V2'", "V2''", "V3"}


def test_same_reports_on_right_side_and_hand_made_sets(sign):
    one, m = sign.one(), sign.neg(sign.one())
    G3 = ("1", "2", "3")
    vs = [
        zero_vector(sign, G3),
        hvector(sign, G3, {"1": one, "2": one}),
        hvector(sign, G3, {"1": one, "2": m}),
        hvector(sign, G3, {"2": m, "3": one}),
    ]
    for side in ("left", "right"):
        assert check_vector_axioms(vs, 0, side) == reference_check_vector_axioms(vs, 0, side)
    assert check_vector_axioms([], 0) == reference_check_vector_axioms([], 0)


@pytest.mark.parametrize("name, window, entries", [
    ("T-U23(2,2,1)*", 1, [None, (1, -1), (1, 0)]),
    ("S-U23(2,2,1)*", 0, [(1, 0), (-1, 0), None]),
])
def test_same_reports_with_a_circuit_scaling_dropped(name, window, entries):
    # (V3) then searches beyond the box, and the first eliminant it finds is
    # the dropped vector, inside the box, so the pair is reported
    M = dict(AcceptanceContext().windowed())[name]
    H = M.field
    X = HVector(H, M.ground, tuple(H.zero() if x is None else H.unit(x[0], (x[1],)) for x in entries))
    vs = vectors_enumerate(M, window)
    assert X in vs
    report = check_vector_axioms(vs - {X}, window, M.side)
    assert report == reference_check_vector_axioms(vs - {X}, window, M.side)
    assert any(r["check"] == "V3" for r in report)


def test_non_stringent_hyperfield_is_refused_by_both():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    G3 = ("1", "2", "3")
    one = Q.one()
    vs = [zero_vector(Q, G3), hvector(Q, G3, {"1": one, "2": one})]
    for check in (check_vector_axioms, reference_check_vector_axioms):
        with pytest.raises(UnsupportedOperationError):
            check(vs, 0)


def test_vectors_over_different_grounds_are_refused(sign, u23_sign):
    vs = set(vectors_enumerate(u23_sign, 0))
    vs.add(zero_vector(sign, ("1", "2", "4")))
    with pytest.raises(DomainMismatchError):
        check_vector_axioms(vs, 0)
