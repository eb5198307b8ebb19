"""The table-driven vector-axiom checker against the per-pair one it replaced.

``reference_check_vector_axioms`` and ``_reference_v3_eliminant_exists``
are the earlier ``check_vector_axioms`` and ``_v3_eliminant_exists``,
kept as a test-only oracle: they build an ``HVector`` for every
composition, hypersum and eliminant candidate.  They keep the side of the
earlier code: a right vector set over H asks for right scalings, and the
matroid beyond the box is rebuilt on that side by ``reference_matroid`` of
``test_construction_reference``.  The new checker must return the same
report list, witnesses and order included, on the battery's sets and on
seeded perturbed copies of them.

``reference_table_check_vector_axioms`` and
``_reference_table_v3_eliminant_exists`` are the table-driven checker
before (V3) looked its eliminants up in ``_EntryTable.index``, kept
verbatim in the same way: per cancelling coordinate they try the all-zero
choice, then the product of in-box hypersum members or a scan of every
row.  It reads every set as the vectors of a left matroid, as the checker
does.  The checker must return the same report on every windowed battery
instance and on seeded perturbed copies, with and without the matroid, and
likewise on the twisted U_{2,3} of ``test_skew_products``, whose hyperfield
is not commutative, over H and over H^op.
"""

import bisect

import itertools
import random

import pytest

from hypermat import (
    DomainMismatchError,
    Hyperfield,
    InvalidInputError,
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
from hypermat.vectorspace import (
    _EntryTable,
    _first_point,
    _grade_spread,
    _vector_hypersum,
    _within_box,
)
from test_construction_reference import reference_matroid, reference_pairs_to_zero, reference_scale
from test_skew_products import _u23


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
    nonzero = [v for v in vectors if not v.is_zero]
    if nonzero:
        sups = {v.support for v in nonzero}
        try:
            recon = reference_matroid(H, ground, [v for v in nonzero if not any(s < v.support for s in sups)], side)
        except HypermatError:
            recon = None
    scalars = H.units_box(2 * window) if H.rank else H.units_box(0)
    for V in sorted(vectors, key=lambda v: v.sort_key()):
        for a in scalars:
            aV = reference_scale(V, a, side)
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
        if not all(reference_pairs_to_zero(recon.side, Z, Y) for Y in recon.cocircuits.reps):
            continue
        return not _within_box(Z, window)
    return False


def reference_table_check_vector_axioms(vectors, window: int = 4, matroid=None) -> list[dict]:
    """(V0), windowed (V1), (V2)'/(V2)'', and (V3) for a finite vector set.

    Scalings and compositions are only required to be present when they stay
    inside the window box.  An eliminant for (V3) must be in the set when it
    fits the box; eliminants whose entries dip below the box are searched
    for with ``_orthogonal_points`` against cocircuits: those of ``matroid``
    when the set is known to be its windowed vector set, else those of the
    matroid reconstructed from the set.  Reconstruction fails when the
    window is narrower than the circuits' grade spread; with no matroid
    given, that box truncation can then produce spurious (V3) failures.

    Entries are coded by a ``BoxCode`` (see ``_EntryTable``), so each
    hypersum and product of two entries is computed once, and (V3) only
    visits pairs of vectors with opposite entries somewhere.
    """
    vectors = frozenset(vectors)
    if not vectors:
        return [{"check": "V0", "witness": None}]
    some = next(iter(vectors))
    H, ground = some.field, some.ground
    if any(V.field != H or V.ground != ground for V in vectors):
        raise DomainMismatchError("vectors live over different hyperfields or grounds")
    report = []
    if zero_vector(H, ground) not in vectors:
        report.append({"check": "V0", "witness": None})
    recon = matroid
    if recon is None and any(not v.is_zero for v in vectors):
        try:
            recon = reconstruct_from_vectors(vectors)
        except HypermatError:
            recon = None
    scalars = H.units_box(2 * window) if H.rank else H.units_box(0)
    ordered = sorted(vectors, key=lambda v: v.sort_key())
    table = _EntryTable(ordered, window)
    rows, present = table.rows, table.present
    scaled = table.scalings(scalars)
    for V, v in zip(ordered, rows):
        for a, products in zip(scalars, scaled):
            aV = tuple([products[c] for c in v])
            if None not in aV and aV not in present:
                report.append({"check": "V1", "witness": {"a": a, "V": V}})
    table.add_pairs()
    field = H.residue_kind == "field"
    for V, v in zip(ordered, rows):
        composed = [table.composed[a] for a in v]
        singles = [table.single_in_box[a] for a in v]
        for W, w in zip(ordered, rows):
            VW = tuple([c[b] for c, b in zip(composed, w)])
            if None not in VW and VW not in present:
                report.append({"check": "V2'", "witness": {"V": V, "W": W}})
            if field:
                total = tuple([s[b] for s, b in zip(singles, w)])
                if None not in total and total not in present:
                    report.append({"check": "V2''", "witness": {"V": V, "W": W}})
    slack = window + _grade_spread(recon.circuits) + 1 if recon is not None else window
    zero = table.zero
    negated = {a: table.code(H.neg(table.elements[a])) for a in set().union(*rows) if a != zero}
    # holders[k][a]: ascending positions of the vectors with entry a at coordinate k
    holders = [{} for _ in ground]
    for j, row in enumerate(rows):
        for k, a in enumerate(row):
            holders[k].setdefault(a, []).append(j)
    for i, (V, v) in enumerate(zip(ordered, rows)):
        hits = []
        for k, a in enumerate(v):
            if a != zero:
                js = holders[k].get(negated[a], ())
                hits.extend((j, k) for j in js[bisect.bisect_left(js, i):])
        for j, k in sorted(hits):
            if not _reference_table_v3_eliminant_exists(table, v, rows[j], k, recon, slack):
                report.append({"check": "V3", "witness": {"V": V, "W": ordered[j], "e": ground[k]}})
    return report


def _reference_table_v3_eliminant_exists(table, v, w, ei, recon, slack) -> bool:
    """Does (V3) hold for the coded vectors v, w, which cancel at ei?

    True if the set holds an eliminant (zero at ei, inside the pointwise
    hypersum), or if the first eliminant of ``recon`` that
    ``_first_point`` finds among the hypersum members within
    ``slack`` leaves the window box, so the set could not hold it.
    """
    zero, elements = table.zero, table.elements
    pairs = list(zip(v, w))
    # w[ei] = -v[ei], so by (H1) a singleton sum at ei is {0}
    fixed = [table.single[a][b] for a, b in pairs]
    free = [i for i, c in enumerate(fixed) if c is None and i != ei]
    base = [zero if c is None else c for c in fixed]
    # cheapest first: all-zero choice on the cancelling coordinates
    if tuple(base) in table.present and all(
        table.sets[table.sum(a, b)].contains_zero for (a, b), c in zip(pairs, fixed) if c is None
    ):
        return True
    choices = [table.within(*pairs[i], table.window) for i in free]
    total = 1
    for c in choices:
        total *= len(c)
    if total <= max(len(table.rows), 1):
        for picks in itertools.product(*choices):
            for i, c in zip(free, picks):
                base[i] = c
            if tuple(base) in table.present:
                return True
    else:
        sums = [table.sets[table.sum(a, b)] for a, b in pairs]
        for z in table.rows:
            if z[ei] == zero and all(elements[c] in s for c, s in zip(z, sums)):
                return True
    if recon is None or table.field.rank == 0:
        return False
    # no in-box member: the first eliminant of recon, in pick order, whose
    # entries may escape the box decides
    domains = [[elements[c]] for c in base]
    for i in free:
        domains[i] = [elements[c] for c in table.within(*pairs[i], slack)]
    order = [i for i in range(len(base)) if i not in free] + free
    Z = _first_point(recon, domains, order)
    return Z is not None and not _within_box(Z, table.window)



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
        assert check_vector_axioms(vs, w) == reference_check_vector_axioms(vs, w, side), name


# -- differential tests ---------------------------------------------------------


def test_same_reports_on_battery_sets(battery_sets):
    _assert_same(battery_sets)


def test_same_reports_on_perturbed_sets(battery_sets):
    cases = _perturbed(battery_sets)
    _assert_same(cases)
    # the perturbations reach every check, so the comparison covers each branch
    seen = {r["check"] for name, vs, w, side in cases for r in check_vector_axioms(vs, w)}
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
    # over a commutative hyperfield both sides read the set alike
    for side in ("left", "right"):
        assert check_vector_axioms(vs, 0) == reference_check_vector_axioms(vs, 0, side)
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
    report = check_vector_axioms(vs - {X}, window)
    assert report == reference_check_vector_axioms(vs - {X}, window, M.side)
    assert any(r["check"] == "V3" for r in report)


@pytest.fixture(scope="module")
def windowed_sets():
    """(name, M, vector set, window) for every windowed battery instance."""
    ctx = AcceptanceContext()
    out = []
    for name, M in ctx.windowed():
        w = ctx.instance_window(M)
        out.append((name, M, ctx.vectors(M, w), w))
    assert len(out) == 10
    return out


def _rebuilds(vs):
    try:
        reconstruct_from_vectors(vs)
    except HypermatError:
        return False
    return True


def test_same_reports_as_the_table_checker_on_windowed_sets(windowed_sets):
    # with no matroid, a set the matroid cannot be rebuilt from is refused
    rng = random.Random(20261018)
    compared = failing = refused = 0
    for name, M, vs, w in windowed_sets:
        cases = [(name, vs), (f"{name} -3", _dropped(rng, vs, 3)), (f"{name} +1", _with_foreign(rng, vs, w))]
        for label, s in cases:
            for matroid in (M, None):
                if matroid is None and M.field.rank and not _rebuilds(s):
                    with pytest.raises(InvalidInputError, match=f"at window {w} .*pass matroid="):
                        check_vector_axioms(s, w, matroid)
                    refused += 1
                    continue
                got = check_vector_axioms(s, w, matroid)
                want = reference_table_check_vector_axioms(s, w, matroid)
                assert got == want, (label, matroid is None)
                compared += 1
                failing += any(r["check"] == "V3" for r in got)
    assert (compared, refused) == (52, 8)
    # (V3) failures are compared, witnesses included, not only clean passes
    assert failing


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


@pytest.mark.parametrize("side", ["left", "right"])
def test_same_reports_as_the_table_checker_over_a_skew_hyperfield(side):
    # the column path of (V2') and the (V3) memo read the twisted product
    M = _u23(side)
    vs = vectors_enumerate(M, 1)
    rng = random.Random(20261019)
    cases = [("", vs), ("-1", _dropped(rng, vs, 1)), ("-3", _dropped(rng, vs, 3)), ("+1", _with_foreign(rng, vs, 1))]
    seen, compared = set(), 0
    for label, s in cases:
        for matroid in (M, None):
            if matroid is None and not _rebuilds(s):
                with pytest.raises(InvalidInputError):
                    check_vector_axioms(s, 1, matroid)
                continue
            got = check_vector_axioms(s, 1, matroid)
            assert got == reference_table_check_vector_axioms(s, 1, matroid), (label, matroid is None)
            seen.update(r["check"] for r in got)
            compared += 1
    assert (compared, seen) == (7, {"V1", "V2'", "V3"})
