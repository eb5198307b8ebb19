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

import pytest

from hypermat import HElement, HVector, Hyperfield
from hypermat.acceptance import AcceptanceContext
from hypermat.errors import HypermatError, NotAnHMatroidError
from hypermat.hmatroid import (
    CircuitSignature,
    _align_for_elimination,
    _other_side,
    check_circuit_axioms,
    dual_signature,
    modular_support_pairs,
    normalize_vector,
    perp_k,
    signature_from_vectors,
)
from hypermat.instances import corrupted_signatures
from hypermat.matroids import ClassicalMatroid, from_circuits

from test_hmatroid import pairing_contains_zero
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


# -- the construction before support bitmasks ------------------------------------


def reference_forced_entry(H, side, x_e, x_f, y_e):
    # 0 in x_e*y_e + x_f*y_f pins y_f by uniqueness of negation.
    if side == "left":
        return H.mul(H.inv(x_f), H.neg(H.mul(x_e, y_e)))
    return H.mul(H.neg(H.mul(y_e, x_e)), H.inv(x_f))


def reference_dual_signature(underlying: ClassicalMatroid, sig: CircuitSignature) -> CircuitSignature:
    """Synthesize the unique dual signature and certify 3-orthogonality.

    For each cocircuit D of the underlying matroid, the entry at the least
    element is set to 1 and the rest are forced through circuits meeting D
    in exactly two elements.  Failure of the final sweep (or an inconsistent
    propagation) means the signature is not a matroid over the hyperfield.
    Forced entries are products of units, so the supports are exactly the
    (distinct, incomparable) cocircuits and the output needs no revalidation.
    """
    H = sig.field
    ground = sig.ground
    out_side = _other_side(sig.side)
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
                        entries[f] = reference_forced_entry(H, sig.side, rep[e], rep[f], entries[e])
                        pending = True
        if any(v is None for v in entries.values()):
            raise NotAnHMatroidError(
                "cocircuit propagation leaves entries unassigned", witness=sorted(D)
            )
        vec = HVector(H, ground, tuple(entries.get(e, zero) for e in ground))
        duals.append(normalize_vector(vec, out_side))
    dual_sig = CircuitSignature(H, ground, out_side, tuple(sorted(duals, key=HVector.sort_key)))
    ok, witness = reference_perp_k(sig, dual_sig, 3)
    if not ok:
        raise NotAnHMatroidError("3-orthogonality fails; not a matroid over H", witness=witness)
    return dual_sig


def reference_perp_k(C: CircuitSignature, D: CircuitSignature, k=None):
    """Check X perp Y over representative pairs with support meets of size <= k.

    Scaling invariance of orthogonality makes representatives sufficient.
    k=None means unrestricted (full orthogonality).  Each pair is decided by
    the ``pairing_contains_zero`` rule of the tests, not by ``perp``.
    """
    left, right = (C, D) if C.side == "left" else (D, C)
    right_supports = [y.support for y in right.reps]
    for x in left.reps:
        x_support = x.support
        for y, y_support in zip(right.reps, right_supports):
            if k is not None and len(x_support & y_support) > k:
                continue
            if not pairing_contains_zero(x, y):
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


def reference_check_circuit_axioms(sig: CircuitSignature) -> list[dict]:
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
            Y = _align_for_elimination(H, sig.side, X, Yhat, e)
            if not reference_elimination_exists(sig, X, Y, e):
                report.append(
                    {"check": "C3", "witness": {"X": X, "Y": Y, "e": e}}
                )
    return report


def reference_elimination_exists(sig: CircuitSignature, X: HVector, Y: HVector, e: str) -> bool:
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
            if sig.side == "left":
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
    unchanged vectors are those of a changed copy's original, else None."""
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
            out.append((f"twisted-{side}-{M.side}", TWISTED, M.ground, M.side, M.circuits.reps, None))
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


def test_the_inputs_reach_every_outcome():
    assert len(CASES) == 2 * 80 + 10 + 20 + 4 + 8 * 4
    outcomes = []
    for name, H, ground, side, vecs, _ in CASES:
        sig = signature_from_vectors(H, ground, vecs, side)
        got = _outcome(dual_signature, from_circuits(ground, sig.supports), sig)
        outcomes.append("ok" if isinstance(got, CircuitSignature) else got[1])
    assert set(outcomes) == {"ok", "3-orthogonality fails; not a matroid over H"}


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_same_construction_as_the_frozenset_construction(case):
    name, H, ground, side, vecs, unchanged = case
    sig = signature_from_vectors(H, ground, vecs, side)
    underlying = from_circuits(ground, sig.supports)
    dual = _outcome(reference_dual_signature, underlying, sig)
    assert _outcome(dual_signature, underlying, sig) == dual
    assert check_circuit_axioms(sig) == reference_check_circuit_axioms(sig)
    supports = sorted(sig.supports, key=sorted)
    assert modular_support_pairs(supports) == reference_modular_support_pairs(supports)
    if unchanged is not None:
        # the changed signature against the dual of the unchanged one
        original = signature_from_vectors(H, ground, unchanged, side)
        dual = reference_dual_signature(from_circuits(ground, original.supports), original)
    if isinstance(dual, CircuitSignature):
        for k in (None, 1, 2, 3):
            assert perp_k(sig, dual, k) == reference_perp_k(sig, dual, k)
            assert perp_k(dual, sig, k) == reference_perp_k(dual, sig, k)
