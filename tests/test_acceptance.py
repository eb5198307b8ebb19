"""Acceptance battery: one pass/fail line per criterion, all at tolerance zero."""

import pytest

from hypermat import Hyperfield, InvalidSignatureError, acceptance, hmatroid_from_circuits, hvector, symset
from hypermat.acceptance import (
    CRITERIA,
    AcceptanceContext,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)
from hypermat.hmatroid import CircuitSignature, HMatroid, HVector, residue_matroid
from hypermat.instances import graded_rescaled, u23
from hypermat.matroids import ClassicalMatroid, from_circuits

from test_hmatroid import plain
from test_validate_axioms_reference import _unchecked

# The work each criterion reports doing, so a faster criterion cannot pass
# by silently checking less.
DETAILS = {
    "criterion_1": "10 catalog entries",
    "criterion_2": "861 pairs",
    "criterion_3": "90 instances",
    "criterion_9": "498 matroids",
    "criterion_10": "6210 partitions",
    "criterion_11": "30 signatures",
}


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion, ctx):
    record = criterion(ctx)
    line = f"{record.status.upper()}: {record.check}"
    if record.detail:
        line += f" ({record.detail})"
    print(line)
    assert record.status == "pass", record.witness
    assert record.detail == DETAILS.get(criterion.__name__, "")


# -- negative controls: each criterion below turns red on one planted fault ------


def _one_instance(name, M):
    """A context whose battery is the single instance M."""
    ctx = AcceptanceContext()
    ctx._family, ctx._windowed = [(name, M)], []
    return ctx


def _with_cocircuit(M, k, Y):
    """M through the raw constructor, with its k-th cocircuit replaced by Y."""
    reps = list(M.cocircuits.reps)
    reps[k] = HVector(M.cocircuits.field, M.ground, Y)
    return HMatroid(M.field, M.ground, M.circuits, CircuitSignature(M.cocircuits.field, M.ground, tuple(reps)),
                    M.underlying)


def test_c3_fails_on_a_covector_among_the_vectors():
    ctx = AcceptanceContext()
    M = dict(ctx.family())["U23/sign/1"]
    one = M.field.one()
    U = HVector(M.field.op(), M.ground, (M.field.zero(), one, one))
    assert U in ctx.vectors(M.dual(), 0) and U not in ctx.vectors(M, 0)
    ctx._vectors[(M, 0)] = ctx.vectors(M, 0) | {U}
    record = criterion_3(ctx)
    # U13/sign/2 is the dual of U23/sign/1, so it reads the same set as its covectors
    assert (record.status, plain(record.witness)) == ("fail", [
        {"instance": "U23/sign/1", "witness": (U.entries, U.entries)},
        {"instance": "U13/sign/2", "witness": (U.entries, U.entries)},
    ])


def test_c4_fails_on_a_cocircuit_with_one_entry_negated():
    M = dict(AcceptanceContext().family())["U23/sign/0"]
    one, m, z = M.field.one(), M.field.neg(M.field.one()), M.field.zero()
    assert M.cocircuits.reps[0].entries == (z, one, m)
    record = criterion_4(_one_instance("U23/sign/0", _with_cocircuit(M, 0, (z, one, one))))
    assert (record.status, plain(record.witness)) == ("fail", [
        {"instance": "U23/sign/0", "witness": ((one, one, one), (z, one, one))},
    ])


def test_c8_fails_on_a_dropped_vector():
    M = dict(AcceptanceContext().family())["U23/sign/0"]
    ctx = _one_instance("U23/sign/0", M)
    one, m = M.field.one(), M.field.neg(M.field.one())
    ctx._vectors[(M, 0)] = ctx.vectors(M, 0) - {HVector(M.field, M.ground, (m, m, m))}
    record = criterion_8(ctx)
    assert (record.status, plain(record.witness)) == ("fail", [
        {"instance": "U23/sign/0", "axioms": [{"check": "V1", "witness": {"a": m, "V": (one, one, one)}}]},
    ])


def test_c8_fails_when_reconstruction_fails_or_misses(monkeypatch):
    family = dict(AcceptanceContext().family())
    names = ["U23/sign/0", "U23/sign/1", "U24/sign/0"]
    ctx = AcceptanceContext()
    ctx._family, ctx._windowed = [(name, family[name]) for name in names], []
    # the same circuits as U24/sign/0, with one cocircuit entry negated,
    # so its enumerated vectors differ
    M = family["U24/sign/0"]
    Y = M.cocircuits.reps[0].entries
    k = next(i for i, y in enumerate(Y) if i and not y.is_zero)
    other = _with_cocircuit(M, 0, Y[:k] + (M.field.neg(Y[k]),) + Y[k + 1:])
    assert ctx.vectors(other, 0) != ctx.vectors(M, 0)
    rebuilt = iter([InvalidSignatureError("planted"), family["U23/sign/0"], other])

    def reconstruct(vectors):
        result = next(rebuilt)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(acceptance, "reconstruct_from_vectors", reconstruct)
    record = criterion_8(ctx)
    assert (record.status, record.witness) == ("fail", [
        {"instance": "U23/sign/0", "error": "planted"},
        {"instance": "U23/sign/1", "check": "circuit recovery"},
        {"instance": "U24/sign/0", "check": "vector set round trip"},
    ])


def test_c10_fails_on_a_cocircuit_replaced_by_a_unit_vector():
    # C10 reads no cached vector set, so the fault is planted in the
    # cocircuits: with (0, 0, 1·t^-1) among them, the partition R = {3},
    # G = {1, 2} has neither a vector nor a cocircuit witness
    name, M = AcceptanceContext().windowed()[0]
    assert name == "T-U23(2,2,1)"
    T = M.field
    bad = _with_cocircuit(M, 0, (T.zero(), T.zero(), T.unit(1, (-1,))))
    record = criterion_10(_one_instance(name, bad))
    assert (record.status, record.witness) == ("fail", [
        {"instance": name, "partition": {"R": ["3"], "G": ["1", "2"], "B": []},
         "error": "no dichotomy witness within window 3"},
    ])


def test_c1_fails_on_a_bad_table_a_non_stringent_entry_and_a_stringent_quotient(monkeypatch):
    # the Boolean table (1 + 1 = {1}) has no negative of 1; the quotient
    # sits where a stringent entry belongs, and GF(7) where the quotient does
    boolean = _unchecked(monkeypatch, (0, 1), {(1, 1): frozenset({1})}, {(1, 1): 1})
    Q, F7 = Hyperfield.quotient(7, [1, 2, 4]), Hyperfield.field(7)
    planted = {"tropical1": boolean, "sign": Q, "quotient-7-124": F7}
    catalog = [(name, planted.get(name, H)) for name, H in acceptance._catalog()]
    monkeypatch.setattr(acceptance, "_catalog", lambda: catalog)
    record = criterion_1(AcceptanceContext())
    assert (record.status, record.witness) == ("fail", [
        {"hyperfield": "tropical1",
         "violations": [{"check": "H1-unique-negation", "witness": {"x": boolean.one(), "candidates": []}}]},
        {"hyperfield": "sign", "stringency-witness": (Q.unit(1), Q.unit(1))},
        {"hyperfield": "quotient-7-124", "expected-witness": (F7.unit(1), F7.unit(1)), "got": None},
    ])


def test_c2_fails_on_a_quotient_that_claims_to_be_stringent(monkeypatch):
    Q = Hyperfield.quotient(7, [1, 2, 4])
    Q._stringent = True  # the cached verdict of check_stringent, planted wrong
    monkeypatch.setattr(acceptance, "_catalog", lambda: [("quotient", Q), ("left out", Q)])
    record = criterion_2(AcceptanceContext())
    both = symset(Q, [Q.unit(1), Q.unit(3)])
    assert (record.status, record.witness, record.detail) == ("fail", [
        {"H": repr(Q), "a": Q.unit(1), "b": Q.unit(1), "sum": both},
        {"H": repr(Q), "a": Q.unit(3), "b": Q.unit(3), "sum": both},
    ], "7 pairs")


def test_c5_fails_on_a_vector_dropped_from_the_enumeration():
    ctx = AcceptanceContext()
    name, M = ctx.windowed()[0]
    T = M.field
    V = HVector(T, M.ground, (T.unit(1, (3,)), T.unit(1, (3,)), T.unit(1, (2,))))
    assert V in ctx.vectors(M, 3)
    ctx._vectors[(M, 3)] = ctx.vectors(M, 3) - {V}
    record = criterion_5(ctx)
    assert (record.status, record.witness) == ("fail", [
        {"instance": name, "missing": [], "extra": [repr(V)]},
    ])


def test_c6_fails_on_a_vector_dropped_from_a_contraction_and_a_deletion():
    M = dict(AcceptanceContext().family())["U23/sign/0"]
    ctx = _one_instance("U23/sign/0", M)
    # deleting 1 leaves the free matroid, whose one vector is zero
    K, D = M.contract("1"), M.delete("1")
    m, z = M.field.neg(M.field.one()), M.field.zero()
    ctx._vectors[(K, 0)] = ctx.vectors(K, 0) - {HVector(M.field, K.ground, (m, m))}
    ctx._vectors[(D, 0)] = ctx.vectors(D, 0) - {HVector(M.field, D.ground, (z, z))}
    record = criterion_6(ctx)
    assert (record.status, record.witness) == ("fail", [
        {"instance": "U23/sign/0", "op": "contract 1"},
        {"instance": "U23/sign/0", "op": "delete 1"},
    ])


def test_c7_fails_on_a_quotient_instance_and_a_wrong_worked_example():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    ground = ("1", "2", "3")
    quotient_u23 = hmatroid_from_circuits(Q, ground, [hvector(Q, ground, dict.fromkeys(ground, Q.one()))])
    # the worked example has weights (2, 2, 1); flat weights give other residues
    flat = graded_rescaled(Hyperfield.tropical(1), u23(), dict.fromkeys(ground, 0))
    ctx = AcceptanceContext()
    ctx._windowed = [("Q-U23", quotient_u23), ("T-U23(2,2,1)", flat)]
    record = criterion_7(ctx)
    assert (record.status, record.witness) == ("fail", [
        {"instance": "Q-U23", "error": "residue matroid needs a graded catalog hyperfield"},
        {"instance": "worked example", "check": "residue circuits"},
        {"instance": "worked example", "check": "residue cocircuits"},
    ])


def _c7_on_the_worked_example(monkeypatch, wrong):
    """C7 on the worked example alone, with ``residue_matroid`` patched to
    answer ``wrong(M, N)`` for the matroid N, or N's residue where that is
    None; M is the worked example."""
    M = dict(AcceptanceContext().windowed())["T-U23(2,2,1)"]
    monkeypatch.setattr(acceptance, "residue_matroid", lambda N: wrong(M, N) or residue_matroid(N))
    ctx = AcceptanceContext()
    ctx._windowed = [("T-U23(2,2,1)", M)]
    return criterion_7(ctx)


# (name, the matroid whose residue comes out dualized, the check that fails)
C7_FAULTS = [
    ("valuation-residue", lambda M, N: N is not M and N.ground == M.ground, "valuation residue"),
    ("contraction", lambda M, N: N == M.contract("1"), "contract 1 commutes"),
    ("deletion", lambda M, N: N == M.delete("2"), "delete 2 commutes"),
]


@pytest.mark.parametrize("wrong_on, check", [f[1:] for f in C7_FAULTS], ids=[f[0] for f in C7_FAULTS])
def test_c7_fails_when_a_residue_disagrees(monkeypatch, wrong_on, check):
    # the residues of the worked example's push-forward, of its contraction
    # by 1 and of its deletion of 2 are not self-dual
    record = _c7_on_the_worked_example(
        monkeypatch, lambda M, N: residue_matroid(N).dual() if wrong_on(M, N) else None)
    assert (record.status, record.witness) == ("fail", [{"instance": "T-U23(2,2,1)", "check": check}])


def test_c7_fails_when_no_circuit_extends_into_a_spanning_set(monkeypatch):
    # the residue of U_{2,3} with flat weights, and its minors, in place of
    # the worked example's: they agree under the valuation and under minors,
    # but no circuit of the worked example tops out on {1, 2, 3}
    W = residue_matroid(graded_rescaled(Hyperfield.tropical(1), u23(), dict.fromkeys(("1", "2", "3"), 0)))

    def wrong(M, N):
        if N.ground == M.ground:
            return W
        e = next(e for e in M.ground if e not in N.ground)
        return W.contract(e) if N == M.contract(e) else W.delete(e)

    record = _c7_on_the_worked_example(monkeypatch, wrong)
    assert (record.status, record.witness) == ("fail", [
        {"instance": "T-U23(2,2,1)", "check": f"extend ['1', '2', '3'] into {S}"}
        for S in (["1", "2"], ["1", "3"], ["2", "3"])
    ])


def test_c9_fails_on_matroids_with_wrong_bases_or_a_permuted_ground(monkeypatch):
    # circuit {1, 2} with basis {1}: the cocircuit {1} meets the circuit in
    # one element; a matroid on ("2", "1") is not what C9 rebuilds on ("1", "2")
    pair = frozenset({"1", "2"})
    wrong_bases = ClassicalMatroid(("1", "2"), frozenset({pair}), frozenset({frozenset({"1"})}), 1)
    permuted = from_circuits(("2", "1"), [pair])
    enumerate_matroids = acceptance.enumerate_matroids
    monkeypatch.setattr(acceptance, "enumerate_matroids", lambda ground: enumerate_matroids(ground) + (
        [wrong_bases, permuted] if len(ground) == 2 else []))
    record = criterion_9(AcceptanceContext())
    assert (record.status, record.witness, record.detail) == ("fail", [
        {"matroid": repr(wrong_bases), "witness": {"axiom": "M1", "pair": (["1", "2"], ["1"])}},
        {"matroid": repr(permuted), "check": "fixed point"},
    ], "500 matroids")


class _ZeroCompose(Hyperfield):
    """Tropical T^1 whose ``compose`` is zero on every pair, so (C3)' finds
    no eliminant that full modular elimination does."""

    def __init__(self):
        super().__init__("krasner", rank=1)
        self._descriptor = ("zero-compose",) + self._descriptor
        self._hash = hash(self._descriptor)

    def compose(self, a, b):
        return self.zero()


def test_c11_fails_on_a_corruption_that_breaks_c0_and_on_disagreeing_checkers(monkeypatch):
    ctx = AcceptanceContext()
    name, M = ctx.windowed()[1]
    assert name == "T-U24(0,0,0,0)"
    H = _ZeroCompose()
    zero = HVector(H, M.ground, (H.zero(),) * len(M.ground))
    cases = [("zero-vector", H, M.ground, (zero,)),
             ("zero-compose", H, M.ground, tuple(HVector(H, M.ground, X.entries) for X in M.circuits.reps))]
    monkeypatch.setattr(acceptance, "corrupted_signatures", lambda count: cases)
    ctx._windowed = []
    record = criterion_11(ctx)
    assert (record.status, record.witness, record.detail) == ("fail", [
        {"case": "zero-vector", "error": "corruption broke (C0)-(C2): (C0) fails: zero vector in signature"},
        {"case": "zero-compose", "full": True, "c3prime": False},
    ], "1 signatures")
