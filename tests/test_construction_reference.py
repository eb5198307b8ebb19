"""Construction on support bitmasks against the frozenset construction it replaced.

``reference_dual_signature``, ``reference_perp_k``,
``reference_modular_support_pairs``, ``reference_check_circuit_axioms`` and
``reference_elimination_exists`` are the earlier ``dual_signature``,
``perp_k``, ``modular_support_pairs``, ``check_circuit_axioms`` and
``_elimination_exists``, kept as a test-only oracle: they rebuild frozenset
supports, sweep every circuit for every cocircuit, pair every support union
with every other and intersect scaled symbolic sets.  They share no pairing
or propagation code with the package: a pair is decided by the
``pairing_contains_zero`` rule of ``test_hmatroid``, and an entry is forced
by ``reference_forced_entry``, the earlier four-operation form that
multiplies by the known entry.  The bitmask construction must synthesize
the same dual signatures, or raise the same exception with the same message
and witness, and must give the same (C3) reports, modular pairs and
``perp_k`` verdicts and witnesses.

The oracles keep the side of the earlier code: a signature over H is read
as left or right classes, every scaling and product is taken on that side,
and all of it stays over H.  The package stores a right H-matroid as a left
H^op-matroid instead, so each case runs the package over H or H^op and the
oracles over H, and the two are compared by their entries (``plain``).
``reference_matroid`` builds a whole right or left H-matroid this way, as
``Sided``, for the side-aware oracles of the other reference tests.

The inputs are the battery's 80 family and 10 windowed instances, the
twisted U_{2,3} of ``test_skew_products`` on both sides, and seeded GF(p)
realizations of U_{2,4}, U_{2,5} and U_{3,6} (at p = 101 and 10007, and
U_{2,4} also at p = 3) and of U_{2,4} over GF(7) pushed onto GF(7)/{1,2,4}.
Each family instance and each realization comes with seeded copies that have
one entry changed, and the windowed ones with ``corrupted_signatures``.
The realizations are built here from seeded matrices by Gaussian
elimination (``kernel_circuits``).
"""

import itertools
import random
from dataclasses import dataclass

import pytest

from hypermat import HElement, HVector, Hyperfield
from hypermat.acceptance import AcceptanceContext
from hypermat.errors import HypermatError, InvalidSignatureError, NotAnHMatroidError
from hypermat.hmatroid import (
    CircuitSignature,
    check_circuit_axioms,
    dual_signature,
    modular_support_pairs,
    perp_k,
    signature_from_vectors,
)
from hypermat.instances import corrupted_signatures
from hypermat.matroids import ClassicalMatroid, from_circuits

from test_hmatroid import pairing_contains_zero, plain, retag
from test_skew_products import H as TWISTED
from test_skew_products import _u23 as twisted_u23


def _dependency(columns, p):
    """Coefficients c, with c at the last column 1, such that the columns
    weighted by c sum to 0 mod p; None if the last column is independent of
    the others.  The other columns must be independent, so column j of them
    pivots in row j."""
    rows = [list(r) for r in zip(*columns)]
    last = len(columns) - 1
    for j in range(last):
        i = next(i for i in range(j, len(rows)) if rows[i][j] % p)
        rows[j], rows[i] = rows[i], rows[j]
        inv = pow(rows[j][j], -1, p)
        rows[j] = [x * inv % p for x in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                rows[i] = [(a - row[j] * b) % p for a, b in zip(row, rows[j])]
    if any(row[last] for row in rows[last:]):
        return None
    return [-rows[j][last] % p for j in range(last)] + [1]


def kernel_circuits(matrix, p) -> list[tuple[int, ...]]:
    """The circuit vectors of the column matroid of ``matrix`` over GF(p),
    each scaled to 1 at the last column of its support."""
    n = len(matrix[0])
    columns = list(zip(*matrix))
    supports, out = [], []
    for size in range(1, len(matrix) + 2):
        for cols in itertools.combinations(range(n), size):
            if any(s <= set(cols) for s in supports):
                continue
            coeffs = _dependency([columns[j] for j in cols], p)
            if coeffs is not None:
                supports.append(set(cols))
                vec = [0] * n
                for j, c in zip(cols, coeffs):
                    vec[j] = c
                out.append(tuple(vec))
    return out


def uniform_realization(rng, r, n, p) -> list[tuple[int, ...]]:
    """The circuit vectors of a seeded r x n matrix over GF(p) whose column
    matroid is U_{r,n}, drawn until it is."""
    while True:
        matrix = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        circuits = kernel_circuits(matrix, p)
        if all(sum(1 for x in c if x) == r + 1 for c in circuits):
            return circuits


# -- the construction before support bitmasks, on either side ----------------------


def other_side(side: str) -> str:
    return "right" if side == "left" else "left"


def reference_scale(V: HVector, a: HElement, side: str) -> HVector:
    """a·V on the left side, V·a on the right."""
    H = V.field
    return HVector(H, V.ground, tuple(H.mul(a, x) if side == "left" else H.mul(x, a) for x in V.entries))


def reference_normalize(V: HVector, side: str) -> HVector:
    """V scaled on ``side`` so that its first nonzero entry is 1."""
    return reference_scale(V, V.field.inv(next(x for x in V.entries if not x.is_zero)), side)


def reference_pairs_to_zero(side: str, V: HVector, Y: HVector) -> bool:
    """Is V, a vector of a matroid on ``side``, orthogonal to Y, one of its
    dual's?  The left matroid's vector is the left factor."""
    return pairing_contains_zero(V, Y) if side == "left" else pairing_contains_zero(Y, V)


@dataclass(frozen=True)
class Sided:
    """An H-matroid on one side, as the earlier code kept it: both
    signatures over H itself, the circuits as classes on ``side`` and the
    cocircuits on the other side."""

    field: Hyperfield
    ground: tuple
    side: str
    circuits: CircuitSignature
    cocircuits: CircuitSignature

    def dual(self) -> "Sided":
        return Sided(self.field, self.ground, other_side(self.side), self.cocircuits, self.circuits)


def reference_signature(H, ground, vecs, side) -> CircuitSignature:
    """The classes of ``vecs`` on ``side``, one normalized vector each;
    InvalidSignatureError if a support carries two classes."""
    reps = {reference_normalize(v, side) for v in vecs}
    if len({v.support for v in reps}) < len(reps):
        raise InvalidSignatureError("(C2) fails: support carries two classes")
    return CircuitSignature(H, tuple(ground), tuple(sorted(reps, key=HVector.sort_key)))


def reference_matroid(H, ground, vecs, side) -> Sided:
    """The H-matroid on ``side`` with the classes of ``vecs`` as circuits."""
    sig = reference_signature(H, ground, vecs, side)
    cocircuits = reference_dual_signature(from_circuits(sig.ground, sig.supports), sig, side)
    return Sided(H, sig.ground, side, sig, cocircuits)


def sided(M) -> Sided:
    """The package's left matroid M read as the matroid that its label
    names: a right-labelled M over H^op is the right H-matroid."""
    H = M.field if M.side == "left" else M.field.op()
    circuits, cocircuits = (CircuitSignature(H, M.ground, tuple(retag(sig.reps, H)))
                            for sig in (M.circuits, M.cocircuits))
    return Sided(H, M.ground, M.side, circuits, cocircuits)


def reference_forced_entry(H, side, x_e, x_f, y_e):
    # 0 in x_e*y_e + x_f*y_f pins y_f by uniqueness of negation.
    if side == "left":
        return H.mul(H.inv(x_f), H.neg(H.mul(x_e, y_e)))
    return H.mul(H.neg(H.mul(y_e, x_e)), H.inv(x_f))


def reference_dual_signature(underlying: ClassicalMatroid, sig: CircuitSignature, side: str) -> CircuitSignature:
    """Synthesize the unique dual signature and certify 3-orthogonality.

    ``sig`` holds classes on ``side``, and the output, also over H, holds
    classes on the other side.

    For each cocircuit D of the underlying matroid, the entry at the least
    element is set to 1 and the rest are forced through circuits meeting D
    in exactly two elements.  Failure of the final sweep (or an inconsistent
    propagation) means the signature is not a matroid over the hyperfield.
    Forced entries are products of units, so the supports are exactly the
    (distinct, incomparable) cocircuits and the output needs no revalidation.
    """
    H = sig.field
    ground = sig.ground
    out_side = other_side(side)
    cocircuit_supports = sorted(underlying.cocircuits(), key=lambda d: sorted(d))
    zero = H.zero()
    supports = [rep.support for rep in sig.reps]
    duals = []
    for D in cocircuit_supports:
        d_elems = [e for e in ground if e in D]
        entries = {e: None for e in d_elems}
        e0 = d_elems[0]
        entries[e0] = H.one()
        pending = True
        while pending:
            pending = False
            for rep, support in zip(sig.reps, supports):
                meet = support & D
                if len(meet) != 2:
                    continue
                a, b = sorted(meet, key=ground.index)
                for e, f in ((a, b), (b, a)):
                    if entries[e] is not None and entries[f] is None:
                        entries[f] = reference_forced_entry(H, side, rep[e], rep[f], entries[e])
                        pending = True
        if any(v is None for v in entries.values()):
            raise NotAnHMatroidError(
                "cocircuit propagation leaves entries unassigned", witness=sorted(D)
            )
        vec = HVector(H, ground, tuple(entries.get(e, zero) for e in ground))
        duals.append(reference_normalize(vec, out_side))
    dual_sig = CircuitSignature(H, ground, tuple(sorted(duals, key=HVector.sort_key)))
    ok, witness = reference_perp_k(sig, dual_sig, side, 3)
    if not ok:
        raise NotAnHMatroidError("3-orthogonality fails; not a matroid over H", witness=witness)
    return dual_sig


def reference_perp_k(C: CircuitSignature, D: CircuitSignature, side: str, k=None):
    """Check X perp Y over representative pairs with support meets of size <= k.

    C holds classes on ``side``, D on the other side.  Scaling invariance of
    orthogonality makes representatives sufficient.  k=None means
    unrestricted (full orthogonality).  Each pair is decided by the
    ``pairing_contains_zero`` rule of the tests, not by ``perp``, and the
    witness is the first failing pair (x in C, y in D), in C's order.
    """
    d_supports = [y.support for y in D.reps]
    for x in C.reps:
        x_support = x.support
        for y, y_support in zip(D.reps, d_supports):
            if k is not None and len(x_support & y_support) > k:
                continue
            if not reference_pairs_to_zero(side, x, y):
                return False, (x, y)
    return True, None


def reference_modular_support_pairs(supports) -> list[tuple[frozenset, frozenset]]:
    """Unordered support pairs whose union strictly contains no union of two
    distinct circuit supports."""
    sups = list(supports)
    out = []
    for s1, s2 in itertools.combinations(sups, 2):
        union = s1 | s2
        modular = True
        for t1, t2 in itertools.combinations(sups, 2):
            if t1 | t2 < union:
                modular = False
                break
        if modular:
            out.append((s1, s2))
    return out


def reference_check_circuit_axioms(sig: CircuitSignature, side: str) -> list[dict]:
    """(C3), searched exactly via symbolic sets; (C0)-(C2) are refused on
    entry by ``signature_from_vectors``.

    Modular elimination is tested on pairs from distinct classes (a class
    and its own negative admit no eliminating circuit by (C2), and such
    pairs are excluded as in the weak circuit axioms).
    """
    H = sig.field
    report = []
    by_support = sig.rep_by_support()
    for s1, s2 in reference_modular_support_pairs(sorted(sig.supports, key=sorted)):
        X = by_support[s1]
        Yhat = by_support[s2]
        for e in sorted(s1 & s2):
            # Yhat scaled on ``side`` so that the entries at e cancel
            a = H.mul(H.neg(X[e]), H.inv(Yhat[e])) if side == "left" else H.mul(H.inv(Yhat[e]), H.neg(X[e]))
            Y = reference_scale(Yhat, a, side)
            if not reference_elimination_exists(sig, side, X, Y, e):
                report.append(
                    {"check": "C3", "witness": {"X": X, "Y": Y, "e": e}}
                )
    return report


def reference_elimination_exists(sig: CircuitSignature, side: str, X: HVector, Y: HVector, e: str) -> bool:
    """Is there a circuit Z with Z_e = 0 lying pointwise in X + Y?"""
    H = sig.field
    union = X.support | Y.support
    sums = {f: H.hyperadd(X[f], Y[f]) for f in union}
    for Z in sig.reps:
        zsup = Z.support
        if e in zsup or not zsup <= union:
            continue
        if any(not sums[f].contains_zero for f in union - zsup - {e}):
            continue
        gamma = None
        for f in sorted(zsup, key=sig.ground.index):
            if side == "left":
                cand = sums[f].scale_right(H.inv(Z[f]))
            else:
                cand = sums[f].scale_left(H.inv(Z[f]))
            gamma = cand if gamma is None else gamma.intersect(cand)
            if gamma.is_empty():
                break
        if gamma is not None and gamma.has_nonzero():
            return True
    return False


# -- inputs -------------------------------------------------------------------


def _vectors(H, circuits, label=lambda x: x):
    ground = tuple(str(i + 1) for i in range(len(circuits[0])))
    zero = H.zero()
    return ground, [HVector(H, ground, tuple(zero if x == 0 else HElement(label(x), ()) for x in c))
                    for c in circuits]


def _changed(rng, H, vecs, factor):
    """A copy of ``vecs`` with one seeded non-leading entry of one of them
    multiplied by ``factor``."""
    out = list(vecs)
    k = rng.randrange(len(out))
    entries = list(out[k].entries)
    i = rng.choice([i for i, x in enumerate(entries) if not x.is_zero][1:])
    entries[i] = H.mul(entries[i], factor)
    out[k] = HVector(H, out[k].ground, tuple(entries))
    return out


def cases():
    """(name, H, ground, side, circuit vectors, unchanged vectors), where the
    unchanged vectors are those of a changed copy's original, else None; the
    vectors live over H, and the package reads them over H or H^op."""
    ctx = AcceptanceContext()
    rng = random.Random(20261020)
    out = []
    for name, M in ctx.family():
        out.append((name, M.field, M.ground, M.side, M.circuits.reps, None))
        minus = M.field.neg(M.field.one())
        out.append((name + "~", M.field, M.ground, M.side, _changed(rng, M.field, M.circuits.reps, minus),
                    M.circuits.reps))
    for name, M in ctx.windowed():
        out.append((name, M.field, M.ground, M.side, M.circuits.reps, None))
    for name, H, ground, vecs in corrupted_signatures():
        out.append((name, H, ground, "left", vecs, None))
    for side in ("left", "right"):
        for M in (twisted_u23(side), twisted_u23(side).dual()):
            out.append((f"twisted-{side}-{M.side}", TWISTED, M.ground, M.side,
                        retag(M.circuits.reps, TWISTED), None))
    realized = []
    for p, r, n in [(3, 2, 4), (101, 2, 4), (101, 2, 5), (101, 3, 6),
                    (10007, 2, 4), (10007, 2, 5), (10007, 3, 6)]:
        H = Hyperfield.field(p)
        ground, vecs = _vectors(H, uniform_realization(rng, r, n, p))
        factors = [HElement(rng.randrange(2, p), ()) for _ in range(3)]
        realized.append((f"gf{p}-U{r}{n}", H, ground, vecs, factors))
    # a GF(7) U_{2,4} pushed onto GF(7)/{1,2,4}: cosets 1 (squares) and 3
    Q = Hyperfield.quotient(7, [1, 2, 4])
    ground, vecs = _vectors(Q, uniform_realization(rng, 2, 4, 7), lambda x: 1 if x in (1, 2, 4) else 3)
    realized.append(("gf7q124-U24", Q, ground, vecs, [HElement(3, ())] * 3))
    for name, H, ground, vecs, factors in realized:
        out.append((name, H, ground, "left", vecs, None))
        for i, factor in enumerate(factors):
            out.append((f"{name}~{i}", H, ground, "left", _changed(rng, H, vecs, factor), vecs))
    return out


CASES = cases()


def _outcome(fn, *args):
    """``fn(*args)``, or the type, message and witness of what it raised."""
    try:
        return fn(*args)
    except HypermatError as exc:
        return type(exc), str(exc), exc.witness


def _signature(H, ground, vecs, side):
    """The package's signature of ``vecs`` read on ``side``: over H^op on the right."""
    K = H if side == "left" else H.op()
    return signature_from_vectors(K, ground, retag(vecs, K))


def test_the_inputs_reach_every_outcome():
    assert len(CASES) == 2 * 80 + 10 + 20 + 4 + 8 * 4
    outcomes = []
    for name, H, ground, side, vecs, _ in CASES:
        sig = _signature(H, ground, vecs, side)
        got = _outcome(dual_signature, from_circuits(ground, sig.supports), sig)
        outcomes.append("ok" if isinstance(got, CircuitSignature) else got[1])
    assert set(outcomes) == {"ok", "3-orthogonality fails; not a matroid over H"}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_same_construction_as_the_frozenset_construction(case):
    name, H, ground, side, vecs, unchanged = case
    sig = _signature(H, ground, vecs, side)
    ref = reference_signature(H, ground, vecs, side)
    assert plain(sig) == plain(ref)
    underlying = from_circuits(ground, sig.supports)
    dual = _outcome(reference_dual_signature, underlying, ref, side)
    assert plain(_outcome(dual_signature, underlying, sig)) == plain(dual)
    assert plain(check_circuit_axioms(sig)) == plain(reference_check_circuit_axioms(ref, side))
    supports = sorted(sig.supports, key=sorted)
    assert modular_support_pairs(supports) == reference_modular_support_pairs(supports)
    if unchanged is not None:
        # the changed signature against the dual of the unchanged one
        original = reference_signature(H, ground, unchanged, side)
        dual = reference_dual_signature(from_circuits(ground, original.supports), original, side)
    if isinstance(dual, CircuitSignature):
        # the package's dual signature lives over the opposite of sig's field
        src_dual = CircuitSignature(sig.field.op(), ground, tuple(retag(dual.reps, sig.field.op())))
        for k in (None, 1, 2, 3):
            assert plain(perp_k(sig, src_dual, k)) == plain(reference_perp_k(ref, dual, side, k))
            assert plain(perp_k(src_dual, sig, k)) == plain(reference_perp_k(dual, ref, other_side(side), k))
