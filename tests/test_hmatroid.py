import importlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (
    DomainMismatchError,
    HElement,
    Hyperfield,
    HVector,
    InvalidInputError,
    InvalidSignatureError,
    NotAnHMatroidError,
    UnsupportedOperationError,
    check_c3prime,
    check_circuit_axioms,
    dual_signature,
    enumerate_matroids,
    hmatroid_from_circuits,
    hvector,
    perp,
    perp_k,
    reconstruct_from_vectors,
    residue_matroid,
    sign_map,
    signature_from_vectors,
    table_map,
    uniform_matroid,
    valuation_map,
    zero_vector,
)
from hypermat.acceptance import AcceptanceContext
from hypermat.hmatroid import PairingFold
from hypermat.instances import graded_rescaled, windowed_instances

from test_symbolic_oracle import naive_add

G3 = ("1", "2", "3")
G4 = ("1", "2", "3", "4")


def pairing(X: HVector, Y: HVector):
    """Hypersum of the pointwise products X_e * Y_e, by X's product (X is the
    left factor): the oracle that ``perp``'s zero test is compared against."""
    assert X.ground == Y.ground
    H = X.field
    products = [
        H.mul(x, y) for x, y in zip(X.entries, Y.entries) if not (x.is_zero or y.is_zero)
    ]
    return H.hyperadd_multi(products)


def retag(vectors, field) -> list[HVector]:
    """The vectors with the same entries over ``field``: the elements of
    H and H^op are the same, only the product differs."""
    return [HVector(field, V.ground, V.entries) for V in vectors]


def plain(obj):
    """``obj`` with every vector and signature replaced by its entries, so
    results over H and over H^op compare by what they hold."""
    if isinstance(obj, HVector):
        return obj.entries
    if hasattr(obj, "reps"):
        return tuple(map(plain, obj.reps))
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(plain, obj))
    if isinstance(obj, (set, frozenset)):
        return frozenset(map(plain, obj))
    return obj


def pairing_contains_zero(X: HVector, Y: HVector) -> bool:
    """``pairing(X, Y).contains_zero``, read off the top-grade terms on the
    graded catalog: at least two of them (Krasner), both signs (sign), or a
    residue sum divisible by p (field).  A rule of the tests, apart from the
    ``PairingFold`` that decides every pairing in the package, and faster
    than the hypersum for the brute-force oracles."""
    H = X.field
    if H.kind == "quotient":
        return pairing(X, Y).contains_zero
    terms = [H.mul(x, y) for x, y in zip(X.entries, Y.entries) if not (x.is_zero or y.is_zero)]
    if not terms:
        return True
    top = max(t.grade for t in terms)
    residues = [t.residue for t in terms if t.grade == top]
    if H.residue_kind == "krasner":
        return len(residues) >= 2
    if H.residue_kind == "sign":
        return 1 in residues and -1 in residues
    return sum(residues) % H.p == 0


# -- vectors -----------------------------------------------------------------


def test_hvector_refuses_keys_outside_the_ground_set(sign):
    one = sign.one()
    with pytest.raises(DomainMismatchError, match="'c'"):
        hvector(sign, ("a", "b"), {"c": one, "a": one})
    assert hvector(sign, ("a", "b"), {"a": one}).entries == (one, sign.zero())


# -- pairing and orthogonality ----------------------------------------------


@pytest.mark.parametrize("error, match, call", [
    (DomainMismatchError, "entry count", lambda M: HVector(M.field, M.ground, ())),
    (DomainMismatchError, "different hyperfields or grounds",
     lambda M: perp(M.circuits.reps[0], M.circuits.reps[0].drop("1"))),
    (DomainMismatchError, "wrong ground", lambda M: signature_from_vectors(M.field, G4, M.circuits.reps)),
    (DomainMismatchError, "domain differs", lambda M: M.push_forward(valuation_map(Hyperfield.stringent("sign", 1)))),
    (UnsupportedOperationError, "Krasner or sign residue",
     lambda M: check_c3prime(signature_from_vectors(Hyperfield.field(3), M.ground, []))),
    (InvalidSignatureError, "no nonzero vectors", lambda M: reconstruct_from_vectors([zero_vector(M.field, M.ground)])),
    (DomainMismatchError, "no table image",
     lambda M: table_map(Hyperfield.field(3), Hyperfield.krasner(), {1: 1}).apply(Hyperfield.field(3).unit(2))),
], ids=["vector-length", "perp-ground", "signature-ground", "push-forward-domain", "c3prime-residue",
        "reconstruct-from-zero", "table-image"])
def test_entry_guards_refuse_mismatched_inputs(u23_sign, error, match, call):
    with pytest.raises(error, match=match):
        call(u23_sign)


def test_disjoint_supports_are_orthogonal(sign):
    one = sign.one()
    X = hvector(sign, G3, {"1": one})
    Y = hvector(sign, G3, {"2": one})
    assert perp(X, Y)
    assert pairing(X, Y).the_singleton() == sign.zero()


def test_sign_perp_example(sign):
    one, m = sign.one(), sign.neg(sign.one())
    X = hvector(sign, G3, {"1": one, "2": one})
    Y = hvector(sign, G3, {"1": one, "2": m})
    assert perp(X, Y)
    assert not perp(X, X)


def test_tropical_equal_maxima_perp(tropical1):
    u = lambda g: tropical1.unit(1, (g,))
    X = hvector(tropical1, G3, {"1": u(2), "2": u(2), "3": u(1)})
    Y = hvector(tropical1, G3, {"1": u(0), "2": u(0)})
    assert perp(X, Y)
    Y2 = hvector(tropical1, G3, {"1": u(1), "2": u(0)})
    assert not perp(X, Y2)


def test_perp_agrees_with_pairing_zero_membership():
    for H in (Hyperfield.sign(), Hyperfield.field(3), Hyperfield.tropical(1),
              Hyperfield.stringent("sign", 1)):
        ground = ("a", "b")
        cands = H.elements_box(1)
        vecs = [HVector(H, ground, combo) for combo in itertools.product(cands, repeat=2)]
        for X in vecs:
            for Y in vecs:
                assert perp(X, Y) == pairing(X, Y).contains_zero
                assert pairing_contains_zero(X, Y) == pairing(X, Y).contains_zero


def test_quotient_pairing_falls_back_to_tables():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    X = hvector(Q, G3, {"1": Q.unit(1), "2": Q.unit(1)})
    Y = hvector(Q, G3, {"1": Q.unit(1), "2": Q.unit(3)})
    assert perp(X, Y) == pairing(X, Y).contains_zero


FOLD_FIELDS = {
    "krasner": Hyperfield.krasner,
    "sign": Hyperfield.sign,
    "gf3": lambda: Hyperfield.field(3),
    "tropical1": lambda: Hyperfield.tropical(1),
    "stringent-sign-1": lambda: Hyperfield.stringent("sign", 1),
    "stringent-gf3-1": lambda: Hyperfield.stringent("field", 1, p=3),
    "gf7q124": lambda: Hyperfield.quotient(7, [1, 2, 4]),
    # imported on use: test_skew_products imports this module
    "twisted": lambda: importlib.import_module("test_skew_products").Twisted(),
}


@pytest.mark.parametrize("name", FOLD_FIELDS)
def test_pairing_fold_agrees_with_zero_in_sum(name):
    """Every term list of length <= 4 over the window-1 box (zero included,
    which the fold skips), against the element sets of the symbolic oracle,
    folded along the same prefix tree; they share no code with
    ``add_term``.  Truncating those sets to the terms' box loses no member
    that a later term or the zero test reads.  The Farkas G-sum folds
    ``add_term`` too; ``test_enumeration_reference`` checks it by its own
    route."""
    H = FOLD_FIELDS[name]()
    fold = PairingFold(H)
    box = H.elements_box(1)
    codes = [fold.code(x) for x in box]
    states = {(): (0, frozenset({H.zero()}))}
    assert fold.zero[0]
    memo = {}
    for _ in range(4):
        longer = {}
        for prefix, (s, members) in states.items():
            for i, c in enumerate(codes):
                if (members, i) not in memo:
                    memo[members, i] = frozenset(naive_add(H, members, box[i], margin=1))
                t, want = fold.add(s, c), memo[members, i]
                longer[prefix + (i,)] = (t, want)
                assert fold.zero[t] == (H.zero() in want), [box[k] for k in prefix + (i,)]
        states = longer


# -- signatures ---------------------------------------------------------------


def test_signature_rejects_zero_vector(sign):
    with pytest.raises(InvalidSignatureError):
        signature_from_vectors(sign, G3, [hvector(sign, G3, {})])


def test_signature_rejects_comparable_supports(sign):
    one = sign.one()
    with pytest.raises(InvalidSignatureError):
        signature_from_vectors(
            sign, G3,
            [hvector(sign, G3, {"1": one}), hvector(sign, G3, {"1": one, "2": one})],
        )


def test_signature_merges_scalings(sign):
    one, m = sign.one(), sign.neg(sign.one())
    v = hvector(sign, G3, {"1": one, "2": m})
    sig = signature_from_vectors(sign, G3, [v, v.scale_left(m)])
    assert len(sig.reps) == 1


def test_signature_rejects_conflicting_classes(sign):
    one, m = sign.one(), sign.neg(sign.one())
    with pytest.raises(InvalidSignatureError):
        signature_from_vectors(
            sign, G3,
            [hvector(sign, G3, {"1": one, "2": m}), hvector(sign, G3, {"1": one, "2": one})],
        )


# -- duality ------------------------------------------------------------------


def test_dual_signature_u23_sign(u23_sign, sign):
    got = {tuple(v.entries) for v in u23_sign.cocircuits.reps}
    one, m, z = sign.one(), sign.neg(sign.one()), sign.zero()
    assert got == {(z, one, m), (one, z, m), (one, m, z)}


def test_dual_signature_matches_brute_force_oracle(u23_sign, sign):
    # oracle: try every sign vector on every cocircuit support, keep the
    # normalized families that are 3-orthogonal to the circuits
    M = u23_sign
    one, m = sign.one(), sign.neg(sign.one())
    supports = sorted(M.underlying.cocircuits(), key=sorted)
    per_support = []
    for D in supports:
        elems = sorted(D)
        options = []
        for signs in itertools.product((one, m), repeat=len(elems) - 1):
            v = hvector(sign, G3, {elems[0]: one, **dict(zip(elems[1:], signs))})
            if all(perp(X, v) for X in M.circuits.reps):
                options.append(v)
        per_support.append(options)
    families = [fam for fam in itertools.product(*per_support)]
    assert len(families) == 1
    assert set(families[0]) == set(M.cocircuits.reps)


def test_dual_is_deterministic(u23_sign):
    again = dual_signature(u23_sign.underlying, u23_sign.circuits)
    assert again == u23_sign.cocircuits


def test_synthesized_cocircuits_pass_the_signature_checks():
    # dual_signature does not pass its output through signature_from_vectors;
    # the output must be a signature that it accepts unchanged
    ctx = AcceptanceContext()
    count = 0
    for name, M in ctx.family() + ctx.windowed():
        minors = [M.delete(e) for e in M.ground] + [M.contract(e) for e in M.ground]
        for N in [M, M.dual()] + minors:
            coc = N.cocircuits
            assert signature_from_vectors(coc.field, N.ground, coc.reps) == coc, name
            assert {v.support for v in coc.reps} == N.underlying.cocircuits(), name
            count += 1
    assert count == 860  # 90 instances: each, its dual, and its 2|E| minors


def test_double_dual_roundtrip(u23_sign, u24_sign, trop_u23):
    for M in (u23_sign, u24_sign, trop_u23):
        assert M.dual().dual() == M


def test_krasner_dual_gives_cocircuit_indicators():
    for N in enumerate_matroids(("1", "2", "3", "4")):
        M = graded_rescaled(Hyperfield.krasner(), N, dict.fromkeys(N.ground, 0))
        assert {v.support for v in M.cocircuits.reps} == set(N.cocircuits())


def test_some_circuit_meets_a_cocircuit_in_each_pair_of_its_elements():
    # why one propagation sweep assigns every cocircuit entry: for a
    # cocircuit D and e != f in D, some circuit C has C & D == {e, f}
    pairs = 0
    for n in range(6):
        for N in enumerate_matroids(tuple(str(i + 1) for i in range(n))):
            for D in N.cocircuits():
                for e, f in itertools.combinations(sorted(D), 2):
                    assert any(C & D == {e, f} for C in N.circuits), (N, D, e, f)
                    pairs += 1
    assert pairs == 2427


def test_propagation_refuses_an_underlying_matroid_that_does_not_match(u23_sign):
    # U_{1,3}'s one cocircuit {1, 2, 3} meets the sign U_{2,3} circuit in three elements
    with pytest.raises(NotAnHMatroidError, match="leaves entries unassigned") as err:
        dual_signature(uniform_matroid(1, G3), u23_sign.circuits)
    assert err.value.witness == ["1", "2", "3"]


def test_tropical_dual_grade_equation(trop_u23, tropical1):
    by_support = {v.support: v for v in trop_u23.cocircuits.reps}
    y = by_support[frozenset({"1", "3"})]
    assert y["3"].grade[0] - y["1"].grade[0] == 1


def test_bad_orientation_rejected(sign):
    one = sign.one()
    vecs = [
        hvector(sign, G4, {"1": one, "2": one, "3": one}),
        hvector(sign, G4, {"1": one, "2": one, "4": one}),
        hvector(sign, G4, {"1": one, "3": one, "4": one}),
        hvector(sign, G4, {"2": one, "3": one, "4": one}),
    ]
    with pytest.raises(NotAnHMatroidError):
        hmatroid_from_circuits(sign, G4, vecs)


def test_strong_duality_on_fixtures(u23_sign, u24_sign, trop_u23, stringent_sign_u23):
    for M in (u23_sign, u24_sign, trop_u23, stringent_sign_u23):
        ok, witness = perp_k(M.circuits, M.cocircuits, None)
        assert ok, witness


# -- minors and rescaling -----------------------------------------------------


def test_contract_u23(u23_sign, sign):
    Mc = u23_sign.contract("1")
    one = sign.one()
    assert [tuple(v.entries) for v in Mc.circuits.reps] == [(one, one)]
    assert [tuple(v.entries) for v in Mc.cocircuits.reps] == [(one, sign.neg(one))]


def test_minor_dual_commutation(u23_sign, u24_sign, trop_u23, stringent_sign_u23):
    for M in (u23_sign, u24_sign, trop_u23, stringent_sign_u23):
        for e in M.ground:
            assert M.contract(e).dual() == M.dual().delete(e)
            assert M.delete(e).dual() == M.dual().contract(e)


def test_rescale_identity(u23_sign, sign):
    rho = {e: sign.one() for e in G3}
    assert u23_sign.rescale(rho) == u23_sign


def test_rescale_refuses_labels_outside_the_ground_set(u23_sign, sign):
    rho = {e: sign.one() for e in (*G3, "9", "x")}
    with pytest.raises(InvalidInputError, match="outside the ground set: '9', 'x'"):
        u23_sign.rescale(rho)


def test_rescale_tropical_example(trop_u23, tropical1):
    u = lambda g: tropical1.unit(1, (g,))
    rho = {"1": u(1), "2": u(0), "3": u(0)}
    M = trop_u23.rescale(rho)
    # circuit (2,2,1) becomes the class of (1,2,1)
    rep = M.circuits.reps[0]
    assert [x.grade[0] for x in rep.entries] == [0, 1, 0]


def test_rescale_moves_cocircuits_left(trop_u23, tropical1):
    u = lambda g: tropical1.unit(1, (g,))
    rho = {"1": u(1), "2": u(0), "3": u(2)}
    M = trop_u23.rescale(rho)
    expected = signature_from_vectors(
        tropical1, G3,
        [HVector(tropical1, G3,
                 tuple(tropical1.mul(rho[e], y) for e, y in zip(G3, Y.entries)))
         for Y in trop_u23.cocircuits.reps],
    )
    assert M.cocircuits == expected


def test_rescale_preserves_orthogonality(sign):
    one, m = sign.one(), sign.neg(sign.one())
    rho = {"1": m, "2": one, "3": m}
    vecs = [
        hvector(sign, G3, {"1": one, "2": one}),
        hvector(sign, G3, {"2": one, "3": m}),
    ]
    for X in vecs:
        for Y in vecs:
            Xr = HVector(sign, G3, tuple(sign.mul(x, sign.inv(rho[e])) for e, x in zip(G3, X.entries)))
            Yr = HVector(sign, G3, tuple(sign.mul(rho[e], y) for e, y in zip(G3, Y.entries)))
            assert perp(X, Y) == perp(Xr, Yr)


# -- uparrow and the residue matroid -----------------------------------------


def test_uparrow_examples(tropical1):
    u = lambda g: tropical1.unit(1, (g,))
    X = hvector(tropical1, G3, {"1": u(2), "2": u(2), "3": u(1)})
    assert X.uparrow().support == {"1", "2"}
    flat = hvector(tropical1, G3, {"1": u(1), "2": u(1), "3": u(1)})
    assert flat.uparrow() == flat
    zero = hvector(tropical1, G3, {})
    assert zero.uparrow() == zero


def test_residue_worked_example(trop_u23):
    M0 = residue_matroid(trop_u23)
    assert {v.support for v in M0.circuits.reps} == {frozenset({"1", "2"})}
    assert {v.support for v in M0.cocircuits.reps} == {
        frozenset({"1", "2"}), frozenset({"3"})
    }
    assert M0.field == Hyperfield.krasner()


def test_residue_of_flat_grades_is_residue_signature(u24_sign, sign):
    # the fixture has all grades flat at rank 0, so the residue is itself
    M0 = residue_matroid(u24_sign)
    assert M0.circuits == u24_sign.circuits


def test_residue_keeps_signs(stringent_sign_u23, sign):
    M0 = residue_matroid(stringent_sign_u23)
    assert M0.field == sign
    rep = M0.circuits.reps[0]
    assert rep.support == {"1", "2"}
    assert rep["1"] == sign.one() and rep["2"] == sign.one()


def reference_residue_signatures(M):
    """The residue circuits and cocircuits as they were first built: each
    class scaled from the left to top grade 0, then its uparrow, minimal
    supports kept, entries read as residues."""

    def classes(sig, R):
        H = sig.field
        ups = []
        for rep in sig.reps:
            top = max(x.grade for x in rep.entries if not x.is_zero)
            ups.append(rep.scale_left(HElement(H.one().residue, tuple(-c for c in top))).uparrow())
        minimal = [v for v in ups if not any(w.support < v.support for w in ups)]
        return [HVector(R, v.ground, tuple(R.zero() if x.is_zero else HElement(x.residue, ()) for x in v.entries))
                for v in minimal]

    R = M.field.residue_field()
    return (signature_from_vectors(R, M.ground, classes(M.circuits, R)),
            signature_from_vectors(R.op(), M.ground, classes(M.cocircuits, R.op())))


def test_residue_matroid_agrees_with_the_scaled_classes():
    # every windowed instance, its dual and its single-element minors, built
    # in the test rather than at collection, so a broken fold fails this test
    for name, M in windowed_instances():
        for N in [M, M.dual(), *(N for e in M.ground for N in (M.delete(e), M.contract(e)))]:
            M0 = residue_matroid(N)
            assert (M0.circuits, M0.cocircuits) == reference_residue_signatures(N), (name, N)


def test_strat_orth_grading_property():
    H = Hyperfield.stringent("sign", 1)
    ground = ("a", "b")
    cands = H.elements_box(1)
    vecs = [HVector(H, ground, combo) for combo in itertools.product(cands, repeat=2)]
    for X in vecs:
        for Y in vecs:
            if perp(X, Y):
                assert perp(X.uparrow(), Y.uparrow())
            if X.uparrow().support & Y.uparrow().support and perp(X.uparrow(), Y.uparrow()):
                assert perp(X, Y)


# -- push-forwards ------------------------------------------------------------


def test_push_forward_identity(u23_sign, sign):
    assert u23_sign.push_forward(table_map(sign, sign, {1: 1, -1: -1})) == u23_sign


def test_push_forward_valuation(stringent_sign_u23, trop_u23):
    assert stringent_sign_u23.push_forward(valuation_map(stringent_sign_u23.field)) == trop_u23


def test_push_forward_sign_map_gf7():
    F7 = Hyperfield.field(7)
    u = F7.unit
    vecs = [
        hvector(F7, G4, {"1": u(1), "2": u(1), "3": u(6)}),
        hvector(F7, G4, {"1": u(6), "2": u(5), "4": u(1)}),
        hvector(F7, G4, {"1": u(1), "3": u(5), "4": u(1)}),
        hvector(F7, G4, {"2": u(6), "3": u(6), "4": u(1)}),
    ]
    M = hmatroid_from_circuits(F7, G4, vecs)
    oriented = M.push_forward(sign_map(F7))
    assert oriented.field == Hyperfield.sign()
    ok, witness = perp_k(oriented.circuits, oriented.cocircuits, None)
    assert ok, witness


def test_residue_underlying_matches_valuation_residue(stringent_sign_u23):
    M0 = residue_matroid(stringent_sign_u23)
    V0 = residue_matroid(stringent_sign_u23.push_forward(valuation_map(stringent_sign_u23.field)))
    assert M0.underlying == V0.underlying


# -- circuit axioms -----------------------------------------------------------


def test_circuit_axioms_pass_on_fixtures(u23_sign, u24_sign, trop_u23, stringent_sign_u23):
    for M in (u23_sign, u24_sign, trop_u23, stringent_sign_u23):
        assert check_circuit_axioms(M.circuits) == []


def test_circuit_axioms_catch_broken_elimination(sign):
    one = sign.one()
    vecs = [
        hvector(sign, G4, {"1": one, "2": one, "3": one}),
        hvector(sign, G4, {"1": one, "2": one, "4": one}),
        hvector(sign, G4, {"3": one, "4": one}),
    ]
    sig = signature_from_vectors(sign, G4, vecs)
    report = check_circuit_axioms(sig)
    assert any(r["check"] == "C3" for r in report)


def test_elimination_skips_circuits_off_the_zero_pattern(sign):
    # At e = 1, X = (+,+,+,0) and Y = (-,+,0,-) give X + Y = ({0,+,-},+,+,-).
    # Z = (0,0,+,-) fits it on Z's support, but X_2 + Y_2 = {+} holds no zero,
    # so Z is no eliminant there: (C3) fails at every e.
    p, m = sign.one(), sign.neg(sign.one())
    vecs = [
        hvector(sign, G4, {"1": p, "2": p, "3": p}),
        hvector(sign, G4, {"1": p, "2": m, "4": p}),
        hvector(sign, G4, {"3": p, "4": m}),
    ]
    sig = signature_from_vectors(sign, G4, vecs)
    report = check_circuit_axioms(sig)
    assert [r["check"] for r in report] == ["C3"] * 4
    assert sorted(r["witness"]["e"] for r in report) == ["1", "2", "3", "4"]
    assert len(check_c3prime(sig)) == 8


def test_c3prime_agrees_on_pass_and_fail(trop_u23, stringent_sign_u23, tropical1):
    for M in (trop_u23, stringent_sign_u23):
        assert check_c3prime(M.circuits) == []
    # one lifted circuit valuation with the others flat is not a valuated matroid
    u = lambda g: tropical1.unit(1, (g,))
    bad = [
        hvector(tropical1, G4, {"1": u(0), "2": u(0), "3": u(1)}),
        hvector(tropical1, G4, {"1": u(0), "2": u(0), "4": u(0)}),
        hvector(tropical1, G4, {"1": u(0), "3": u(0), "4": u(0)}),
        hvector(tropical1, G4, {"2": u(0), "3": u(0), "4": u(0)}),
    ]
    sig = signature_from_vectors(tropical1, G4, bad)
    full = check_circuit_axioms(sig)
    prime = check_c3prime(sig)
    assert full and prime
    witness = next(r["witness"] for r in full if r["check"] == "C3")
    assert set(witness) == {"X", "Y", "e"}
    with pytest.raises(NotAnHMatroidError):
        hmatroid_from_circuits(tropical1, G4, bad)


def test_empty_signature_passes_vacuously(sign):
    N = uniform_matroid(2, G3)
    M = graded_rescaled(Hyperfield.krasner(), N, dict.fromkeys(N.ground, 0))
    free = hmatroid_from_circuits(M.field, ("x", "y"), [])
    assert check_circuit_axioms(free.circuits) == []
    assert {v.support for v in free.cocircuits.reps} == {
        frozenset({"x"}), frozenset({"y"})
    }


# -- degenerate cases ---------------------------------------------------------


def test_loops_are_first_class(sign):
    one = sign.one()
    M = hmatroid_from_circuits(sign, G3, [
        hvector(sign, G3, {"1": one}),
        hvector(sign, G3, {"2": one, "3": one}),
    ])
    assert M.underlying.is_loop("1")
    assert M.contract("1") == M.delete("1")


def test_empty_ground(sign):
    M = hmatroid_from_circuits(sign, (), [])
    assert M.underlying.rank == 0
    assert M.dual().dual() == M


stringent_elements = st.sampled_from(Hyperfield.stringent("sign", 1).elements_box(2))


@settings(max_examples=150, deadline=None)
@given(st.tuples(*(stringent_elements,) * 3), st.tuples(*(stringent_elements,) * 3))
def test_strat_orth_random(xe, ye):
    H = Hyperfield.stringent("sign", 1)
    X = HVector(H, G3, xe)
    Y = HVector(H, G3, ye)
    if perp(X, Y):
        assert perp(X.uparrow(), Y.uparrow())
    if X.uparrow().support & Y.uparrow().support and perp(X.uparrow(), Y.uparrow()):
        assert perp(X, Y)
