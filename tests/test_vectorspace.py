import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (
    DomainMismatchError,
    Hyperfield,
    HVector,
    InvalidInputError,
    ResourceLimitError,
    check_vector_axioms,
    compose_vectors,
    covectors_enumerate,
    enumerate_matroids,
    farkas_witness,
    hmatroid_from_circuits,
    hvector,
    is_perfect,
    reconstruct_from_vectors,
    uniform_matroid,
    vectors_enumerate,
    vectors_generate,
    zero_vector,
)
from hypermat.acceptance import _catalog
from hypermat.cli import run
from hypermat.hmatroid import PairingFold, normalize_vector, perp
from hypermat.instances import graded_rescaled, u23, windowed_instances
from hypermat.jsonio import dumps, hmatroid_to_json
from hypermat.vectorspace import _classes_orthogonal, _grade_spread, _vector_hypersum, check_budget

from test_hmatroid import pairing
from test_skew_products import S3

G3 = ("1", "2", "3")
G4 = ("1", "2", "3", "4")
G5 = ("1", "2", "3", "4", "5")


# -- enumeration --------------------------------------------------------------


BOX_FIELDS = _catalog() + [("S3", S3), ("S3-op", S3.op())]


@pytest.mark.parametrize("name, H", BOX_FIELDS, ids=[name for name, _ in BOX_FIELDS])
def test_the_window_box_is_in_sort_order(name, H):
    # sorted box rows are sorted vectors only if the box itself is sorted
    for w in range(3):
        box = H.elements_box(w)
        assert box == sorted(box, key=H.sort_key)


def test_u23_sign_vector_and_covector_counts(u23_sign):
    assert len(vectors_enumerate(u23_sign)) == 3
    assert len(covectors_enumerate(u23_sign)) == 13


def test_u13_sign_thirteen_vectors(u13_sign):
    vs = vectors_enumerate(u13_sign)
    assert len(vs) == 13
    # oracle: closure of the signed circuits under sign composition
    closure = set(u13_sign.circuits.scalings(0))
    closure.add(zero_vector(u13_sign.field, G3))
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(tuple(closure), repeat=2):
            c = compose_vectors(a, b)
            if c not in closure:
                closure.add(c)
                grew = True
    assert vs == frozenset(closure)


def test_zero_vector_always_included(u23_sign, trop_u23):
    for M in (u23_sign, trop_u23):
        assert zero_vector(M.field, M.ground) in vectors_enumerate(M, 2)


def test_krasner_vectors_are_unions_of_circuits():
    for N in enumerate_matroids(G3) + [uniform_matroid(2, G4)]:
        M = graded_rescaled(Hyperfield.krasner(), N, dict.fromkeys(N.ground, 0))
        got = {v.support for v in vectors_enumerate(M)}
        unions = set()
        circuits = sorted(N.circuits, key=sorted)
        for k in range(len(circuits) + 1):
            for combo in itertools.combinations(circuits, k):
                unions.add(frozenset().union(*combo) if combo else frozenset())
        assert got == unions


def test_budget_estimator_refuses_large_runs():
    H = Hyperfield.stringent("sign", 2)
    ground = tuple(str(i) for i in range(8))
    with pytest.raises(ResourceLimitError):
        check_budget(H, ground, 6)


def test_budget_counts_the_candidate_box():
    catalog = [
        Hyperfield.krasner(), Hyperfield.sign(), Hyperfield.field(2), Hyperfield.field(7),
        Hyperfield.tropical(1), Hyperfield.tropical(2), Hyperfield.stringent("sign", 1),
        Hyperfield.stringent("sign", 2), Hyperfield.stringent("field", 1, p=3),
        Hyperfield.quotient(7, [1, 2, 4]),
    ]
    for H in catalog:
        for w in range(3):
            n = len(H.elements_box(w))
            assert H.elements_box_size(w) == n
            assert check_budget(H, G3, w) == n**3


def test_budget_refuses_large_modulus_without_allocating():
    H = Hyperfield.field(2**31 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            check_budget(H, ("1", "2"), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- generation ----------------------------------------------------------------


def test_generate_equals_enumerate_on_sign_fixtures(u23_sign, u13_sign, u24_sign):
    for M in (u23_sign, u13_sign, u24_sign):
        assert vectors_generate(M, 0) == vectors_enumerate(M, 0)


def test_generate_equals_enumerate_tropical(trop_u23):
    assert vectors_generate(trop_u23, 3) == vectors_enumerate(trop_u23, 3)


def test_generate_equals_enumerate_stringent_sign(stringent_sign_u23):
    assert vectors_generate(stringent_sign_u23, 2) == vectors_enumerate(stringent_sign_u23, 2)


WINDOWED = [pytest.param(M, id=name) for name, M in windowed_instances()]
# S-U23, S-U24 and their duals
GRADED_SIGN = [p for p in WINDOWED if p.id.startswith("S-")]


@pytest.mark.parametrize("M", WINDOWED)
def test_generate_equals_enumerate_on_windowed_instances(M):
    # at the battery windows; the duals of the left-side instances are
    # right-side, so their circuits are scaled on the right
    w = 3 if M.field.residue_kind == "krasner" else 2
    assert vectors_generate(M, w) == vectors_enumerate(M, w)


def test_generate_equals_enumerate_field_residue():
    # U_{2,4} realized over GF(3) by the columns (1,0),(0,1),(1,1),(1,2)
    F3 = Hyperfield.field(3)
    u = F3.unit
    vecs = [
        hvector(F3, G4, {"1": u(2), "2": u(2), "3": u(1)}),
        hvector(F3, G4, {"1": u(2), "2": u(1), "4": u(1)}),
        hvector(F3, G4, {"1": u(1), "3": u(1), "4": u(1)}),
        hvector(F3, G4, {"2": u(2), "3": u(2), "4": u(1)}),
    ]
    M = hmatroid_from_circuits(F3, G4, vecs)
    assert vectors_generate(M, 0) == vectors_enumerate(M, 0)


def test_tropical_u23_vectors_are_scaled_circuits(trop_u23):
    # corank 1: within the window the vectors are the scaled circuits plus 0
    vs = vectors_enumerate(trop_u23, 3)
    nonzero = [v for v in vs if not v.is_zero]
    assert all(v.support == frozenset(G3) for v in nonzero)
    assert len(vs) == 7


# -- perfection ----------------------------------------------------------------


def test_fixtures_are_perfect(u23_sign, u13_sign, u24_sign, trop_u23, stringent_sign_u23):
    for M, w in ((u23_sign, 0), (u13_sign, 0), (u24_sign, 0),
                 (trop_u23, 3), (stringent_sign_u23, 2)):
        ok, witness = is_perfect(M, w)
        assert ok, witness


def test_krasner_matroids_are_perfect():
    for N in enumerate_matroids(G3):
        ok, _ = is_perfect(graded_rescaled(Hyperfield.krasner(), N, dict.fromkeys(N.ground, 0)), 0)
        assert ok


def test_imperfect_negative_control(sign):
    # hand-built vector families need not be orthogonal: injecting a foreign
    # covector produces a definite failure with a witness pair
    one = sign.one()
    M1 = hmatroid_from_circuits(sign, G3, [hvector(sign, G3, {"1": one, "2": one, "3": one})])
    vs = vectors_enumerate(M1)
    us = covectors_enumerate(M1)
    assert all(perp(v, u) for v in vs for u in us)
    probe = hvector(sign, G3, {"1": one})
    ok, witness = is_perfect(M1, 0, vectors=vs, covectors=frozenset({probe}))
    assert not ok
    assert witness[1] == probe and not perp(witness[0], probe)


def test_perfection_refuses_vectors_over_another_ground(u23_sign, sign):
    stray = hvector(sign, G4, {"1": sign.one()})
    with pytest.raises(DomainMismatchError):
        is_perfect(u23_sign, 0, covectors=frozenset({stray}))


# the hyperfields of the shared orthogonality rule, each with the box of
# entry grades up to 2·window at window 2 (normalized classes reach that far)
RULE_FIELDS = [
    Hyperfield.sign(),
    Hyperfield.field(3),
    Hyperfield.field(5),
    Hyperfield.tropical(1),
    Hyperfield.stringent("sign", 1),
    Hyperfield.stringent("field", 1, p=3),
    Hyperfield.quotient(7, [1, 2, 4]),
]


@st.composite
def _rule_case(draw):
    H = draw(st.sampled_from(RULE_FIELDS))
    box = H.elements_box(4)
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.sampled_from(box)] * n).map(lambda e: HVector(H, G5[:n], e))
    vs = draw(st.lists(vector, min_size=1, max_size=3))
    us = draw(st.lists(vector, min_size=1, max_size=3))
    return H, vs, us


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_rule_case())
def test_table_decision_and_perp_agree_with_pairing(case):
    H, vs, us = case
    # the vector is the left factor
    want = [pairing(V, U).contains_zero for V in vs for U in us]
    assert [perp(V, U) for V in vs for U in us] == want
    assert [_orthogonal_sets(H, [V], [U]) for V in vs for U in us] == want
    assert _orthogonal_sets(H, vs, us) == all(want)


def _orthogonal_sets(H, vs, us):
    """``_classes_orthogonal`` on the rows of vs and us, coded by one fold."""
    fold = PairingFold(H)
    return _classes_orthogonal(fold, *([tuple(map(fold.code, V.entries)) for V in xs] for xs in (vs, us)))


# -- vector axioms and reconstruction ------------------------------------------


def test_vector_axioms_pass_on_fixtures(u23_sign, u24_sign, trop_u23, stringent_sign_u23):
    for M, w in ((u23_sign, 0), (u24_sign, 0), (trop_u23, 3), (stringent_sign_u23, 2)):
        assert check_vector_axioms(vectors_enumerate(M, w), w) == []


def test_vector_axioms_catch_missing_composition(u13_sign):
    vs = set(vectors_enumerate(u13_sign))
    full = [v for v in vs if len(v.support) == 3]
    vs.discard(full[0])
    report = check_vector_axioms(vs, 0)
    assert any(r["check"].startswith("V2") for r in report)


def test_vector_axioms_trivial_set(sign):
    report = check_vector_axioms({zero_vector(sign, G3)}, 0)
    assert report == []


def test_vector_axioms_report_when_reconstruction_fails(sign):
    # (+,+,0) and (+,-,0) share a support, so reconstruction refuses the set;
    # the checker must still return its report instead of raising
    one, m = sign.one(), sign.neg(sign.one())
    vs = [
        zero_vector(sign, G3),
        hvector(sign, G3, {"1": one, "2": one}),
        hvector(sign, G3, {"1": one, "2": m}),
    ]
    report = check_vector_axioms(vs, 0)
    assert report


def _krasner_u24():
    """U_{2,4} over stringent GF(3)·Z, pushed forward from the kernel of a
    rational matrix along x -> (leading residue mod 3, -v_3(x)).  Its
    circuits' grade spread is 3, so reconstruction from the window-1 vector
    set fails."""
    A = [[-3, 5, 4, 9], [4, 4, -3, 6]]
    H = Hyperfield.stringent("field", 1, p=3)

    def image(x):
        v = 0
        while x % 3 == 0:
            x, v = x // 3, v + 1
        return H.unit(x % 3, (-v,))

    def minor(i, j):
        return A[0][i] * A[1][j] - A[0][j] * A[1][i]

    circuits = []
    for i, j, k in itertools.combinations(range(4), 3):
        kernel = {i: minor(j, k), j: -minor(i, k), k: minor(i, j)}
        circuits.append(hvector(H, G4, {G4[e]: image(x) for e, x in kernel.items()}))
    return hmatroid_from_circuits(H, G4, circuits)


def test_vector_axioms_use_the_known_matroid_beyond_the_box(tmp_path):
    M = _krasner_u24()
    vs = vectors_enumerate(M, 1)
    assert check_vector_axioms(vs, 1, M) == []
    path = tmp_path / "krasner-u24.json"
    path.write_text(dumps(hmatroid_to_json(M)))
    out = tmp_path / "report.json"
    assert run(["matroid", "vector-axioms", "--window", "1", str(path), "--out", str(out)]) == 0


def test_vector_axioms_refuse_a_set_the_matroid_cannot_be_rebuilt_from():
    # without the matroid, the search beyond the box has no cocircuits, and
    # it used to report 330 (V3) failures here instead
    vs = vectors_enumerate(_krasner_u24(), 1)
    with pytest.raises(InvalidInputError, match="at window 1 .*pass matroid="):
        check_vector_axioms(vs, 1)


def test_reconstruct_recovers_circuits(u23_sign, u24_sign, trop_u23):
    for M, w in ((u23_sign, 0), (u24_sign, 0), (trop_u23, 3)):
        vs = vectors_enumerate(M, w)
        rec = reconstruct_from_vectors(vs)
        assert rec.circuits == M.circuits
        assert vectors_enumerate(rec, w) == vs


# -- minor-vector identities ----------------------------------------------------


def test_minor_vector_identities(u24_sign):
    vs = vectors_enumerate(u24_sign, 0)
    for e in G4:
        assert vectors_enumerate(u24_sign.contract(e), 0) == frozenset(
            v.drop(e) for v in vs
        )
        assert vectors_enumerate(u24_sign.delete(e), 0) == frozenset(
            v.drop(e) for v in vs if v[e].is_zero
        )


def test_rescaled_vectors_are_scaled_vectors(u24_sign, sign):
    one, m = sign.one(), sign.neg(sign.one())
    rho = {"1": m, "2": one, "3": m, "4": one}
    Mr = u24_sign.rescale(rho)
    vs = vectors_enumerate(u24_sign, 0)
    scaled = frozenset(
        HVector(sign, G4, tuple(sign.mul(x, rho[e]) for e, x in zip(G4, v.entries)))
        for v in vs
    )
    assert vectors_enumerate(Mr, 0) == scaled


# -- dichotomy -------------------------------------------------------------------


def test_farkas_trivial_all_blue(u23_sign):
    w = farkas_witness(u23_sign, {"R": [], "G": [], "B": list(G3)}, 0)
    assert w.kind == "vector" and w.vec.is_zero


def test_farkas_all_green_returns_circuit_scaling(u23_sign, sign):
    w = farkas_witness(u23_sign, {"R": [], "G": list(G3), "B": []}, 0)
    assert w.kind == "vector"
    assert all(x == sign.one() for x in w.vec.entries)


def test_farkas_coloop_gives_cocircuit(trop_u23):
    # element 3 tops out alone in the residue, and G={3} forces the cocircuit side
    w = farkas_witness(trop_u23, {"R": [], "G": ["3"], "B": ["1", "2"]}, 3)
    assert w.kind == "cocircuit"
    assert not w.vec["3"].is_zero


def test_farkas_branches_are_exclusive(u24_sign):
    # if a vector witness exists, no cocircuit witness may exist and vice versa
    for colors in itertools.product("RGB", repeat=4):
        parts = {"R": [], "G": [], "B": []}
        for e, c in zip(G4, colors):
            parts[c].append(e)
        w = farkas_witness(u24_sign, parts, 0)
        if w.kind == "vector":
            from hypermat.vectorspace import _farkas_cocircuit
            assert _farkas_cocircuit(u24_sign, frozenset(parts["R"]), frozenset(parts["G"]), False) is None


def test_farkas_weak_variant(u23_sign):
    for colors in itertools.product("RGB", repeat=3):
        parts = {"R": [], "G": [], "B": []}
        for e, c in zip(G3, colors):
            parts[c].append(e)
        farkas_witness(u23_sign, parts, 0, weak=True)


def test_farkas_strictness_flips_the_branch(u23_sign, sign):
    # R={1}, G={2,3}: strictly below 1 on R forces the cocircuit side, while
    # the weak variant admits the all-ones circuit scaling as a vector witness
    parts = {"R": ["1"], "G": ["2", "3"], "B": []}
    strict = farkas_witness(u23_sign, parts, 0)
    assert strict.kind == "cocircuit"
    weak = farkas_witness(u23_sign, parts, 0, weak=True)
    assert weak.kind == "vector"
    assert all(x == sign.one() for x in weak.vec.entries)


@pytest.mark.parametrize("parts", [
    {"G": ["1", "2", "3"]},
    {"R": ["1"], "G": ["2", "3"]},
    {"B": ["1", "2", "3"]},
    {},
])
def test_farkas_reads_a_missing_part_as_empty(parts):
    N = u23()
    M = graded_rescaled(Hyperfield.krasner(), N, dict.fromkeys(N.ground, 0))
    full = {k: parts.get(k, []) for k in ("R", "G", "B")}
    if not any(full.values()):
        with pytest.raises(InvalidInputError):
            farkas_witness(M, parts, 0)
        return
    assert farkas_witness(M, parts, 0) == farkas_witness(M, full, 0)


def test_singleton_hypersums_of_vectors_are_vectors(u24_sign, stringent_sign_u23):
    for M, w in ((u24_sign, 0), (stringent_sign_u23, 2)):
        vs = vectors_enumerate(M, w)
        for V in vs:
            for W in vs:
                total = _vector_hypersum((V, W))
                if total is not None:
                    assert all(perp(total, Y) for Y in M.cocircuits.reps)


# -- elimination and decomposition -----------------------------------------------
#
# Both are properties of the enumerated vector sets, checked by brute force:
# vector elimination (V3) over pairs of enumerated vectors, and the
# decomposition of every vector into at most corank many scaled circuits.


def eliminants(vectors, V, W, e):
    """The members of ``vectors`` that are zero at e and lie in the pointwise
    hypersum of V and W."""
    H = V.field
    sums = {f: H.hyperadd(V[f], W[f]) for f in V.ground}
    return [
        Z for Z in sorted(vectors, key=lambda v: v.sort_key())
        if Z[e].is_zero and all(Z[f] in sums[f] for f in V.ground)
    ]


def circuit_decomposition(M, V, window=2):
    """Scaled circuits of M whose iterated hypersum is exactly {V}, or None.

    Tries every multiset of at most corank many scaled circuits that fit
    under V (support inside V's, grades at most V's).
    """
    H = M.field
    if V.is_zero:
        return []
    if H.rank:
        vmax = max(abs(c) for x in V.entries if not x.is_zero for c in x.grade)
        pool = [
            f
            for f in M.circuits.scalings(vmax + _grade_spread(M.circuits) + window)
            if f.support <= V.support
            and all(
                x.is_zero or (not v.is_zero and x.grade <= v.grade)
                for x, v in zip(f.entries, V.entries)
            )
        ]
    else:
        pool = M.circuits.scalings(0)
    pool = sorted(set(pool), key=lambda v: v.sort_key())
    for size in range(1, M.corank + 1):
        for combo in itertools.combinations_with_replacement(pool, size):
            if _vector_hypersum(combo) == V:
                return list(combo)
    return None


def test_eliminate_opposite_vectors_gives_zero(u23_sign, sign):
    V = u23_sign.circuits.reps[0]
    minus_V = V.scale_left(sign.neg(sign.one()))
    assert minus_V in vectors_enumerate(u23_sign)
    # U_{2,3} has no nonzero vector on two elements, so zero is the only eliminant
    assert eliminants(vectors_enumerate(u23_sign), V, minus_V, "1") == [zero_vector(sign, G3)]


def test_eliminate_sign_pair_matches_om_elimination(u24_sign, sign):
    vs = sorted(vectors_enumerate(u24_sign, 0), key=lambda v: v.sort_key())
    pairs = [
        (V, W, e)
        for V in vs for W in vs for e in G4
        if not V[e].is_zero and sign.neg(V[e]) == W[e]
    ]
    assert pairs
    for V, W, e in pairs:
        assert eliminants(vs, V, W, e), (V, W, e)


def test_eliminate_requires_cancellation(u23_sign, sign):
    V = u23_sign.circuits.reps[0]
    # V[e] + V[e] is {V[e]} over the signs: nothing to eliminate at e
    assert not sign.hyperadd(V["1"], V["1"]).contains_zero
    assert eliminants(vectors_enumerate(u23_sign), V, V, "1") == []


def test_eliminate_tropical_equal_top(trop_u23, tropical1):
    vs = vectors_enumerate(trop_u23, 3)
    V = trop_u23.circuits.reps[0]
    # tropically x + x contains zero, so a vector eliminates against itself
    assert tropical1.hyperadd(V["1"], V["1"]).contains_zero
    found = eliminants(vs, V, V, "1")
    assert found and all(Z in vs for Z in found)


def test_decompose_circuit_is_itself(u24_sign):
    V = u24_sign.circuits.reps[0]
    assert circuit_decomposition(u24_sign, V) == [V]


def test_decompose_zero_is_empty(u24_sign):
    assert circuit_decomposition(u24_sign, zero_vector(u24_sign.field, G4)) == []


def test_decompose_composite_sign_vector(u24_sign):
    vs = vectors_enumerate(u24_sign, 0)
    composite = sorted(
        (v for v in vs if len(v.support) == 4), key=lambda v: v.sort_key()
    )
    assert composite
    for V in composite:
        parts = circuit_decomposition(u24_sign, V)
        assert len(parts) == 2
        assert _vector_hypersum(parts) == V
        assert all(normalize_vector(p) in u24_sign.circuits.reps for p in parts)


@pytest.mark.parametrize("M", GRADED_SIGN)
def test_decompose_graded_vectors_back_to_themselves(M):
    for V in vectors_enumerate(M, 1):
        if not V.is_zero:
            parts = circuit_decomposition(M, V)
            assert parts is not None, V
            assert _vector_hypersum(parts) == V


def test_decompose_rejects_non_vector(u24_sign, sign):
    one = sign.one()
    fake = hvector(sign, G4, {"1": one})
    assert not all(perp(fake, Y) for Y in u24_sign.cocircuits.reps)
    assert fake not in vectors_enumerate(u24_sign, 0)
    assert circuit_decomposition(u24_sign, fake) is None


@pytest.mark.parametrize("M", GRADED_SIGN)
def test_farkas_weak_witness_for_every_graded_partition(M):
    one = M.field.one()
    for colours in itertools.product("RGB", repeat=len(M.ground)):
        parts = {k: [e for e, c in zip(M.ground, colours) if c == k] for k in "RGB"}
        w = farkas_witness(M, parts, 2, weak=True)
        if w.kind == "vector":
            assert all(w.vec[e] == one for e in parts["G"])
            assert all(w.vec[e].is_zero for e in parts["B"])
