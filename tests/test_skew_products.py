"""Matroids over a non-commutative stringent hyperfield.

``Twisted`` is stringent Sign·Z^2 with its product twisted by the
2-cocycle c(g, h) = (-1)^(g1·h2): (r, g)·(s, h) = (r·s·c(g, h), g + h).
It is the hyperfield of twisted Laurent series in x, y with yx = -xy, a
stringent skew hyperfield in the sense of the source paper.  Only ``mul``
and ``inv`` change, so every pairing, enumeration and perfection check is
right here exactly when it reads the hyperfield's own product, in the
order that the matroid's side gives.
"""

import itertools

import pytest

from hypermat import (
    HElement,
    HVector,
    Hyperfield,
    check_vector_axioms,
    hmatroid_from_circuits,
    hvector,
    is_perfect,
    perp,
    validate_axioms,
    vectors_enumerate,
)

from test_hmatroid import pairing, vector_perp

G3 = ("1", "2", "3")


class Twisted(Hyperfield):
    __slots__ = ()

    def __init__(self):
        super().__init__("sign", rank=2)
        self._descriptor = ("twisted",) + self._descriptor
        self._hash = hash(self._descriptor)

    def __repr__(self):
        return "Twisted(stringent(sign,rank=2))"

    def mul(self, a, b):
        t = super().mul(a, b)
        if t.is_zero or a.grade[0] * b.grade[1] % 2 == 0:
            return t
        return HElement(-t.residue, t.grade)

    def inv(self, a):
        # (r, g)·(s, -g) = (r·s·c(g, -g), 0) and c(g, -g) = c(-g, g) = (-1)^(g1·g2)
        t = super().inv(a)
        if a.grade[0] * a.grade[1] % 2 == 0:
            return t
        return HElement(-t.residue, t.grade)


H = Twisted()
X = H.unit(1, (1, 0))
Y = H.unit(1, (0, 1))


def test_twisted_is_a_skew_hyperfield():
    assert H != Hyperfield.stringent("sign", 2)
    assert validate_axioms(H, 1) == []
    assert H.mul(X, Y) == H.neg(H.mul(Y, X))
    for a in H.units_box(1):
        assert H.mul(a, H.inv(a)) == H.one() == H.mul(H.inv(a), a)


def test_perp_reads_the_twisted_product():
    units = H.units_box(1)
    one, m = H.one(), H.neg(H.one())
    compared = 0
    for a, b, c in itertools.product(units, units, units[:9]):
        U = HVector(H, G3, (a, b, one))
        V = HVector(H, G3, (one, c, m))
        assert perp(U, V) == pairing(U, V).contains_zero, (U, V)
        compared += 1
    assert compared == 2916


def _u23(side):
    """U_{2,3} whose one circuit is (1, x, y) on the given side."""
    return hmatroid_from_circuits(H, G3, [hvector(H, G3, {"1": H.one(), "2": X, "3": Y})], side)


def _brute_force_vectors(M, window):
    box = H.elements_box(window)
    points = (HVector(H, G3, entries) for entries in itertools.product(box, repeat=len(G3)))
    return frozenset(V for V in points if all(vector_perp(M, V, D) for D in M.cocircuits.reps))


@pytest.mark.parametrize("side", ["left", "right"])
def test_u23_over_the_twisted_hyperfield(side):
    M = _u23(side)
    assert M.side == side
    assert is_perfect(M, 1) == (True, None)
    vs = vectors_enumerate(M, 1)
    assert check_vector_axioms(vs, 1, M.side, M) == []
    assert vs == _brute_force_vectors(M, 1)
