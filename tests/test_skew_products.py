"""Matroids over non-commutative hyperfields, and right matroids as left
matroids over the opposite hyperfield.

``Twisted`` is stringent Sign·Z^2 with its product twisted by the
2-cocycle c(g, h) = (-1)^(g1·h2): (r, g)·(s, h) = (r·s·c(g, h), g + h).
It is the hyperfield of twisted Laurent series in x, y with yx = -xy, a
stringent skew hyperfield in the sense of the source paper.  Only ``mul``
and ``inv`` change, so every pairing, enumeration and perfection check is
right here exactly when it reads the hyperfield's own product, with the
vector entry as the left factor.  Its opposite twists by c(h, g) instead.

``S3`` is the table hyperfield on the six permutations of three letters:
x ⊞ y = {x, y} for units x != y and x ⊞ x is everything.  It is not
stringent, and its opposite is its transposed product table.

A right H-matroid is a left H^op-matroid (Pendavingh).  The package stores
only left matroids; the side-aware oracles of the reference tests still
compute right H-matroids over H, on the right.  Both routes must give the
same circuits, cocircuits, vector sets, perfection verdicts and witnesses,
and vector-axiom reports.
"""

import itertools
import random

import pytest

from hypermat import (
    HElement,
    HVector,
    Hyperfield,
    UnsupportedOperationError,
    check_vector_axioms,
    hmatroid_from_circuits,
    hvector,
    is_perfect,
    perp,
    residue_matroid,
    validate_axioms,
    vectors_enumerate,
)

from test_hmatroid import pairing, plain, reference_residue_signatures, retag

G3 = ("1", "2", "3")


class Twisted(Hyperfield):
    """Twisted Sign·Z^2, or its opposite when ``swap`` is set."""

    __slots__ = ("_swap",)

    def __init__(self, swap=False):
        super().__init__("sign", rank=2)
        self._swap = swap
        self._descriptor = ("twisted", swap) + self._descriptor
        self._hash = hash(self._descriptor)

    def __repr__(self):
        return f"Twisted(stringent(sign,rank=2){', op' if self._swap else ''})"

    def op(self):
        if self._op is None:
            self._op = Twisted(not self._swap)
            self._op._op = self
        return self._op

    def mul(self, a, b):
        t = super().mul(a, b)
        g, h = (b.grade, a.grade) if self._swap else (a.grade, b.grade)
        if t.is_zero or g[0] * h[1] % 2 == 0:
            return t
        return HElement(-t.residue, t.grade)

    def inv(self, a):
        # (r, g)·(s, -g) = (r·s·c(g, -g), 0) and c(g, -g) = c(-g, g) = (-1)^(g1·g2),
        # the same on both sides
        t = super().inv(a)
        if a.grade[0] * a.grade[1] % 2 == 0:
            return t
        return HElement(-t.residue, t.grade)


def _s3() -> Hyperfield:
    perms = sorted(itertools.permutations(range(3)))
    label = {p: i + 1 for i, p in enumerate(perms)}  # the identity is 1
    units = list(label.values())
    mul = {(label[p], label[q]): label[tuple(p[i] for i in q)] for p in perms for q in perms}
    add = {(a, b): {a, b} if a != b else {0, *units} for a in units for b in units}
    return Hyperfield("quotient", tables=([0, *units], add, mul))


H = Twisted()
X = H.unit(1, (1, 0))
Y = H.unit(1, (0, 1))
S3 = _s3()


def test_twisted_is_a_skew_hyperfield():
    assert H != Hyperfield.stringent("sign", 2)
    assert validate_axioms(H, 1) == []
    assert H.mul(X, Y) == H.neg(H.mul(Y, X))
    for a in H.units_box(1):
        assert H.mul(a, H.inv(a)) == H.one() == H.mul(H.inv(a), a)


@pytest.mark.parametrize("F, window", [(H, 1), (S3, 0)], ids=["twisted", "S3"])
def test_the_opposite_hyperfield_swaps_the_product(F, window):
    Fop = F.op()
    assert Fop != F and Fop.op() == F
    assert validate_axioms(Fop, window) == []
    units = F.units_box(window)
    assert all(Fop.mul(a, b) == F.mul(b, a) for a in units for b in units)
    assert any(F.mul(a, b) != F.mul(b, a) for a in units for b in units)


def test_a_commutative_hyperfield_is_its_own_opposite():
    for F in (Hyperfield.sign(), Hyperfield.tropical(2), Hyperfield.quotient(7, [1, 2, 4])):
        assert F.op() is F


def test_right_and_left_s3_matroids_differ():
    # the same circuit read on the two sides gives other cocircuits for half
    # of the U_{2,3} signatures over S3
    one, units = S3.one(), S3.units_box(0)
    differ = 0
    for a, b in itertools.product(units, units):
        left = hmatroid_from_circuits(S3, G3, [HVector(S3, G3, (one, a, b))])
        right = hmatroid_from_circuits(S3.op(), G3, [HVector(S3.op(), G3, (one, a, b))], "right")
        differ += plain(left.cocircuits) != plain(right.cocircuits)
    assert differ == 18


def test_perp_reads_the_twisted_product():
    units = H.units_box(1)
    one, m = H.one(), H.neg(H.one())
    compared = 0
    for a, b, c in itertools.product(units, units, units[:9]):
        U = HVector(H, G3, (a, b, one))
        V = HVector(H.op(), G3, (one, c, m))
        assert perp(U, V) == pairing(U, V).contains_zero, (U, V)
        compared += 1
    assert compared == 2916


def _u23(side):
    """U_{2,3} whose one circuit is (1, x, y) on the given side: a right
    matroid over H is the left matroid over H^op with that circuit."""
    K = H if side == "left" else H.op()
    return hmatroid_from_circuits(K, G3, [hvector(K, G3, {"1": K.one(), "2": X, "3": Y})], side)


def _brute_force_vectors(M, window):
    box = M.field.elements_box(window)
    points = (HVector(M.field, G3, entries) for entries in itertools.product(box, repeat=len(G3)))
    return frozenset(V for V in points if all(perp(V, D) for D in M.cocircuits.reps))


@pytest.mark.parametrize("side", ["left", "right"])
def test_u23_over_the_twisted_hyperfield(side):
    M = _u23(side)
    assert M.side == side
    assert is_perfect(M, 1) == (True, None)
    vs = vectors_enumerate(M, 1)
    assert check_vector_axioms(vs, 1, M) == []
    assert vs == _brute_force_vectors(M, 1)


@pytest.mark.parametrize("F", [H, H.op()], ids=["twisted", "twisted-op"])
def test_residue_matroid_of_seeded_twisted_signatures(F):
    """Seeded U_{2,3} and U_{3,4} signatures and their duals.  Scaling a
    class to top grade 0 flips the sign of its top-grade residues when the
    cocycle is odd; the residue matroid must be the same without it."""
    rng = random.Random(f"residue {F!r}")
    units = F.units_box(2)
    flipped = 0
    for n in (3, 4) * 20:
        ground = tuple(str(i + 1) for i in range(n))
        M = hmatroid_from_circuits(F, ground, [HVector(F, ground, (F.one(), *rng.choices(units, k=n - 1)))])
        for N in (M, M.dual()):
            M0 = residue_matroid(N)
            assert (M0.circuits, M0.cocircuits) == reference_residue_signatures(N), N
            K = N.field
            for rep in N.circuits.reps:
                top = max(x.grade for x in rep.entries if not x.is_zero)
                shift = K.unit(1, tuple(-c for c in top))
                flipped += any(not x.is_zero and x.grade == top and K.mul(shift, x).residue != x.residue
                               for x in rep.entries)
    assert flipped


def _route_cases():
    """(name, F, window, circuit over F) for U_{2,3} signatures over the two
    skew hyperfields: three over ``Twisted`` and all 36 over ``S3``."""
    out = []
    for i, (a, b) in enumerate([(X, Y), (Y, X), (H.mul(X, Y), H.neg(X))]):
        out.append((f"twisted-{i}", H, 1, HVector(H, G3, (H.one(), a, b))))
    for i, (a, b) in enumerate(itertools.product(S3.units_box(0), repeat=2)):
        out.append((f"S3-{i}", S3, 0, HVector(S3, G3, (S3.one(), a, b))))
    return out


def _foreign(rng, field, window, vs):
    """A seeded box point over ``field`` whose entries are not those of a member of vs."""
    box = field.elements_box(window)
    while True:
        V = HVector(field, G3, tuple(rng.choice(box) for _ in G3))
        if V.entries not in {U.entries for U in vs}:
            return V


def _outcome(fn, *args):
    try:
        return plain(fn(*args))
    except UnsupportedOperationError as exc:
        return type(exc)


ROUTE_CASES = _route_cases()


@pytest.mark.parametrize("name, F, window, circuit", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES])
def test_a_right_matroid_is_the_left_matroid_over_the_opposite(name, F, window, circuit):
    import test_construction_reference as construction
    import test_enumeration_reference as enumeration
    import test_vector_axioms_reference as axioms

    S = construction.reference_matroid(F, G3, [circuit], "right")
    M = hmatroid_from_circuits(F.op(), G3, retag([circuit], F.op()), "right")
    assert plain((M.circuits, M.cocircuits)) == plain((S.circuits, S.cocircuits))
    vs, us = vectors_enumerate(M, window), vectors_enumerate(M.dual(), window)
    ref_vs = enumeration.reference_vectors_enumerate(S, window)
    ref_us = enumeration.reference_vectors_enumerate(S.dual(), window)
    assert (plain(vs), plain(us)) == (plain(ref_vs), plain(ref_us))
    # perfection, and the witness once a foreign vector or covector joins
    rng = random.Random(name)
    cases = [(vs, us), (vs | {_foreign(rng, M.field, window, vs)}, us),
             (vs, us | {_foreign(rng, M.field.op(), window, us)})]
    verdicts = []
    for V, U in cases:
        got = is_perfect(M, window, V, U)
        assert plain(got) == plain(enumeration.reference_is_perfect(S, window, retag(V, F), retag(U, F)))
        verdicts.append(got[0])
    assert verdicts[0] and not all(verdicts)
    # the vector axioms, or the same refusal over the non-stringent S3
    for V in (vs, cases[1][0]):
        got = _outcome(check_vector_axioms, V, window, M)
        assert got == _outcome(axioms.reference_check_vector_axioms, retag(V, F), window, "right")
