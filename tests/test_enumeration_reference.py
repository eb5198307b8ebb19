"""The pruned enumerator and class-level perfection against brute force.

``reference_vectors_enumerate`` and ``reference_is_perfect`` are the earlier
``vectors_enumerate`` and ``is_perfect``, kept as a test-only oracle: the
first builds an ``HVector`` for every point of the window box and tests it
against every cocircuit, the second tests every vector against every
covector in sort order.  Each pair is decided by ``reference_perp``, the
``pairing_contains_zero`` rule of ``test_hmatroid``, so no oracle here
shares the ``PairingFold`` that the code under test decides pairings with.
The new code must return the same vector sets, and the same verdicts and
witnesses, on the battery's instances and their duals, on the family's
single-element minors, on hand-made edge cases and on sets with a foreign
vector or covector added.

``reference_farkas_vector`` is the earlier ``_farkas_vector``, kept in the
same way: it builds an ``HVector`` for every candidate and tests it with
``reference_perp``.  The search that replaced it must find the same vector,
or none, for every partition of every battery instance, strict and weak.

``reference_farkas_cocircuit`` is the earlier ``_farkas_cocircuit``, kept
verbatim: it reads entries by label and decides the G-sum with
``hyperadd_multi``.  The rewrite must return the same cocircuit, or none,
on every partition of every battery instance, strict and weak.

Every oracle here keeps the side of the earlier code: it reads a
``Sided`` matroid of ``test_construction_reference``, over H, with its
vectors on its side.  The package's left matroids are given to them as
the matroids their labels name (``sided``), and results are compared by
their entries where the two hyperfields differ (over H^op).
"""

import itertools
import random

import pytest

from hypermat import (
    HElement,
    HVector,
    Hyperfield,
    coset_map,
    hmatroid_from_circuits,
    hvector,
    is_perfect,
    vectors_enumerate,
)
from hypermat.acceptance import AcceptanceContext
from hypermat.vectorspace import _farkas_cocircuit, _farkas_vector, check_budget

from test_acceptance import _with_cocircuit
from test_construction_reference import Sided, other_side, reference_pairs_to_zero, reference_scale, sided
from test_hmatroid import plain, retag
from test_skew_products import _u23 as twisted_u23


def reference_perp(M: Sided, V: HVector, Y: HVector) -> bool:
    """Is V, on M's side, orthogonal to Y, on the other side?"""
    return reference_pairs_to_zero(M.side, V, Y)


def reference_vectors_enumerate(M: Sided, window: int = 4) -> frozenset[HVector]:
    """All windowed vectors: orthogonal to every cocircuit representative."""
    check_budget(M.field, M.ground, window)
    cands = M.field.elements_box(window)
    cocircs = M.cocircuits.reps
    out = []
    for combo in itertools.product(cands, repeat=len(M.ground)):
        V = HVector(M.field, M.ground, combo)
        if all(reference_perp(M, V, Y) for Y in cocircs):
            out.append(V)
    return frozenset(out)


def reference_is_perfect(M: Sided, window: int = 4, vectors=None, covectors=None):
    """Check every windowed vector against every windowed covector."""
    vs = reference_vectors_enumerate(M, window) if vectors is None else vectors
    us = reference_vectors_enumerate(M.dual(), window) if covectors is None else covectors
    us = sorted(us, key=lambda u: u.sort_key())
    for V in sorted(vs, key=lambda v: v.sort_key()):
        for U in us:
            if not reference_perp(M, V, U):
                return False, (V, U)
    return True, None


def reference_farkas_vector(M, R, G, B, window, weak):
    H = M.field
    one = H.one()
    zero = H.zero()
    zero_grade = (0,) * H.rank
    if H.rank == 0:
        r_vals = [zero] + ([HElement(r) for r in H.residue_units()] if weak else [])
    elif weak:
        r_vals = [zero] + [x for x in H.units_box(window) if x.grade <= zero_grade]
    else:
        r_vals = [zero] + [x for x in H.units_box(window) if x.grade < zero_grade]
    r_order = sorted(R)
    cocircs = M.cocircuits.reps
    for picks in itertools.product(r_vals, repeat=len(r_order)):
        mapping = {e: one for e in G}
        mapping.update({e: zero for e in B})
        mapping.update(dict(zip(r_order, picks)))
        V = hvector(H, M.ground, mapping)
        if all(reference_perp(M, V, Y) for Y in cocircs):
            return V
    return None


def reference_farkas_cocircuit(M, R, G, weak):
    H = M.field
    for Y in M.cocircuits.reps:
        on_g = [Y[e] for e in sorted(G) if not Y[e].is_zero]
        if not on_g:
            continue
        m_g = max(x.grade for x in on_g)
        on_r = [Y[e].grade for e in sorted(R) if not Y[e].is_zero]
        if weak:
            if on_r and max(on_r) >= m_g:
                continue
        else:
            if on_r and max(on_r) > m_g:
                continue
        gsum = H.hyperadd_multi([Y[e] for e in sorted(G)])
        if gsum.contains_zero:
            continue
        shift = HElement(H.one().residue, tuple(-c for c in m_g))
        return reference_scale(Y, shift, other_side(M.side))
    return None


def _assert_same_vectors(M, window):
    got = vectors_enumerate(M, window)
    assert plain(got) == plain(reference_vectors_enumerate(sided(M), window))
    return got


def _reference_is_perfect(M, window, vectors=None, covectors=None):
    """``reference_is_perfect`` on the matroid that M's label names, with
    the vector sets read over its hyperfield."""
    S = sided(M)
    vectors, covectors = (None if vs is None else frozenset(retag(vs, S.field)) for vs in (vectors, covectors))
    return plain(reference_is_perfect(S, window, vectors, covectors))


@pytest.fixture(scope="module")
def battery():
    """(name, M, window, vectors, covectors) for every battery instance."""
    ctx = AcceptanceContext()
    out = []
    for name, M in ctx.family() + ctx.windowed():
        w = ctx.instance_window(M)
        vs = _assert_same_vectors(M, w)
        us = _assert_same_vectors(M.dual(), w)
        out.append((name, M, w, vs, us))
    return out


def test_same_vectors_and_verdicts_on_battery_instances_and_duals(battery):
    assert len(battery) == 90
    for name, M, w, vs, us in battery:
        assert is_perfect(M, w, vs, us) == (True, None), name
        assert _reference_is_perfect(M, w, vs, us) == (True, None), name
        assert is_perfect(M.dual(), w, us, vs) == (True, None), name


def test_same_vectors_on_single_element_minors():
    for name, M in AcceptanceContext().family():
        for e in M.ground:
            _assert_same_vectors(M.contract(e), 0)
            _assert_same_vectors(M.delete(e), 0)


def _foreign(rng, M, window, vs):
    """A seeded box point of M that is not one of its vectors."""
    box = M.field.elements_box(window)
    while True:
        V = HVector(M.field, M.ground, tuple(rng.choice(box) for _ in M.ground))
        if V not in vs:
            return V


def test_same_witness_with_a_foreign_vector_or_covector(battery):
    rng = random.Random(6)
    failing = 0
    for name, M, w, vs, us in battery:
        cases = [
            (vs | {_foreign(rng, M, w, vs)}, us),
            (vs, us | {_foreign(rng, M.dual(), w, us)}),
        ]
        for vectors, covectors in cases:
            got = is_perfect(M, w, vectors, covectors)
            assert plain(got) == _reference_is_perfect(M, w, vectors, covectors), name
            failing += not got[0]
    # the witness path is exercised, not only the verdict
    assert failing > len(battery)


def test_same_witness_without_sets_on_planted_cocircuits():
    """Perfection on box rows, with no sets given, falls back to the pair
    scan on the same witness.  Each family instance is rebuilt through the
    raw constructor with one cocircuit entry negated, so its vectors and its
    dual's need not be orthogonal."""
    failing = 0
    for name, M in AcceptanceContext().family():
        Y = M.cocircuits.reps[0].entries
        k = next(i for i, y in enumerate(Y) if i and not y.is_zero)
        planted = _with_cocircuit(M, 0, Y[:k] + (M.field.neg(Y[k]),) + Y[k + 1:])
        got = is_perfect(planted, 0)
        assert plain(got) == _reference_is_perfect(planted, 0), name
        failing += not got[0]
    assert failing


@pytest.mark.parametrize("side", ["left", "right"])
def test_same_witness_over_the_twisted_hyperfield(side):
    """The pairwise witness scan takes the vector as the left factor; the
    oracle takes it as the right factor of a right matroid over H, and the
    package as the left factor of the left matroid over H^op.  Over a skew
    product the other order would pick other failing pairs."""
    M = twisted_u23(side)
    vs, us = vectors_enumerate(M, 1), vectors_enumerate(M.dual(), 1)
    rng = random.Random(f"twisted-{side}")
    for _ in range(6):
        cases = [(vs | {_foreign(rng, M, 1, vs)}, us), (vs, us | {_foreign(rng, M.dual(), 1, us)})]
        for vectors, covectors in cases:
            assert plain(is_perfect(M, 1, vectors, covectors)) == _reference_is_perfect(M, 1, vectors, covectors)


def _loop_and_coloop(H):
    # "1" is a loop, "4" a coloop, and "2", "3" are parallel
    G4 = ("1", "2", "3", "4")
    one = H.one()
    vecs = [
        hvector(H, G4, {"1": one}),
        hvector(H, G4, {"2": one, "3": H.neg(one)}),
    ]
    return hmatroid_from_circuits(H, G4, vecs)


def _right_side():
    SS = Hyperfield.stringent("sign", 1)
    G3 = ("1", "2", "3")
    u = SS.unit
    vecs = [hvector(SS, G3, {"1": u(1, (1,)), "2": u(-1, (0,)), "3": u(1, (1,))})]
    return hmatroid_from_circuits(SS, G3, vecs, "right")


def _quotient_u23():
    F7 = Hyperfield.field(7)
    G3 = ("1", "2", "3")
    u = F7.unit
    M = hmatroid_from_circuits(F7, G3, [hvector(F7, G3, {"1": u(1), "2": u(1), "3": u(6)})])
    return M.push_forward(coset_map(7, [1, 2, 4]))


@pytest.mark.parametrize(
    "make, window",
    [
        (lambda: _loop_and_coloop(Hyperfield.sign()), 0),
        (lambda: _loop_and_coloop(Hyperfield.tropical(1)), 1),
        (_right_side, 1),
        (_quotient_u23, 0),
    ],
    ids=["loop-coloop-sign", "loop-coloop-tropical", "right-side", "quotient"],
)
def test_same_results_on_edge_cases(make, window):
    M = make()
    for N in (M, M.dual()):
        vs = _assert_same_vectors(N, window)
        assert any(not V.is_zero for V in vs)
        assert plain(is_perfect(N, window)) == _reference_is_perfect(N, window)


def _det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** k * x * _det([row[:k] + row[k + 1:] for row in rows[1:]])
        for k, x in enumerate(rows[0])
    )


def _vandermonde_uniform(H, r, n, weights, side="left"):
    """U_{r,n} oriented by a signed Vandermonde matrix, with grade weights.

    The circuit on an (r+1)-set S has the signed maximal minors of the
    columns in S as its signs (Cramer's rule); over a graded hyperfield each
    element then carries its weight as grade.
    """
    nodes = (-3, -1, 0, 2, 3, 5, 7)[:n]
    columns = [[(-1) ** e * x**i for i in range(r)] for e, x in enumerate(nodes)]
    ground = tuple(str(e + 1) for e in range(n))
    circuits = []
    for S in itertools.combinations(range(n), r + 1):
        mapping = {}
        for k, e in enumerate(S):
            minor = _det([list(row) for row in zip(*[columns[f] for f in S if f != e])])
            residue = 1 if H.residue_kind == "krasner" else (-1) ** k * (1 if minor > 0 else -1)
            mapping[ground[e]] = H.unit(residue, (weights[e],) * H.rank)
        circuits.append(hvector(H, ground, mapping))
    return hmatroid_from_circuits(H, ground, circuits, side)


@pytest.mark.parametrize(
    "make, window",
    [
        (lambda: _vandermonde_uniform(Hyperfield.sign(), 4, 7, [0] * 7), 0),
        (lambda: _vandermonde_uniform(Hyperfield.tropical(1), 3, 6, (-1, 0, 1, 0, 1, -1)), 1),
        (lambda: _vandermonde_uniform(Hyperfield.stringent("sign", 1), 2, 4, (1, 0, -1, 0), "right"), 2),
    ],
    ids=["sign-U47-w0", "tropical-U36-w1", "right-stringent-sign-U24-w2"],
)
def test_same_results_on_workload_shapes(make, window):
    M = make()
    vs = _assert_same_vectors(M, window)
    us = _assert_same_vectors(M.dual(), window)
    # perfect by the main theorem; the all-pairs scan is too slow for U_{4,7}
    assert is_perfect(M, window, vs, us) == (True, None)


def test_single_element_and_empty_ground():
    S = Hyperfield.sign()
    loop = hmatroid_from_circuits(S, ("1",), [hvector(S, ("1",), {"1": S.one()})])
    coloop = hmatroid_from_circuits(S, ("1",), [])
    for M in (loop, coloop):
        for N in (M, M.dual()):
            _assert_same_vectors(N, 0)
            assert is_perfect(N, 0) == _reference_is_perfect(N, 0) == (True, None)
    empty = hmatroid_from_circuits(S, (), [])
    assert vectors_enumerate(empty, 0) == reference_vectors_enumerate(sided(empty), 0)
    assert vectors_enumerate(empty, 0) == frozenset({HVector(S, (), ())})


def test_same_farkas_vectors_on_battery_instances(battery):
    found = missing = 0
    for name, M, w, vs, us in battery:
        for colors in itertools.product("RGB", repeat=len(M.ground)):
            R, G, B = (frozenset(e for e, c in zip(M.ground, colors) if c == k) for k in "RGB")
            for weak in (False, True):
                got = _farkas_vector(M, R, G, w, weak)
                assert got == reference_farkas_vector(sided(M), R, G, B, w, weak), (name, colors, weak)
                found += got is not None
                missing += got is None
    # both outcomes of the search are compared, not only one
    assert found and missing


def test_same_farkas_cocircuits_on_battery_instances(battery):
    unshifted = shifted = missing = 0
    for name, M, w, vs, us in battery:
        for colors in itertools.product("RGB", repeat=len(M.ground)):
            R, G = (frozenset(e for e, c in zip(M.ground, colors) if c == k) for k in "RG")
            for weak in (False, True):
                got = _farkas_cocircuit(M, R, G, weak)
                assert got == reference_farkas_cocircuit(sided(M), R, G, weak), (name, colors, weak)
                if got is None:
                    missing += 1
                elif got in M.cocircuits.reps:
                    unshifted += 1
                else:
                    shifted += 1
    # no witness, a representative returned as it is (top grade on G already
    # zero) and one shifted to top grade zero on G are all compared
    assert unshifted and shifted and missing
