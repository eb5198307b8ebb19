"""The bitmask matroid scans against the frozenset scans they replaced.

``reference_from_circuits``, ``reference_from_bases``,
``reference_basis_exchange_holds``, ``reference_enumerate_matroids`` and
``reference_painting_violation`` are the earlier ``from_circuits``,
``_from_bases``, ``basis_exchange_holds``, ``enumerate_matroids`` and
``_painting_violation``, kept verbatim as a test-only oracle: they build a
frozenset for every subset and every painting.  The bitmask scans must give
the same matroids (bases and rank included), the same painting witnesses and
the same errors and witnesses, on every matroid with at most five elements
and on seeded perturbations of their families, some with members outside
the ground set.  The bitset tables of ``_lattice`` are built per size, so
the painting scan and ``_from_bases`` are also compared on sums of uniform
matroids at other sizes, past ``_LATTICE_MAX`` included.
"""

import itertools
import random

import pytest

from hypermat.errors import InvalidCircuitsError
from hypermat.matroids import (
    _LATTICE_MAX,
    ClassicalMatroid,
    _from_bases,
    _painting_violation,
    enumerate_matroids,
    from_circuits,
    uniform_matroid,
)


def _reference_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def reference_from_circuits(ground, circuits) -> ClassicalMatroid:
    """Validated matroid from its circuit family."""
    ground = tuple(ground)
    if len(set(ground)) != len(ground):
        raise InvalidCircuitsError("ground set labels must be distinct")
    # scanned in a fixed order, so witnesses do not depend on set hashing
    fam = sorted({frozenset(c) for c in circuits}, key=sorted)
    eset = frozenset(ground)
    for c in fam:
        if not c:
            raise InvalidCircuitsError("circuits must be nonempty", witness=c)
        if not c <= eset:
            raise InvalidCircuitsError(f"circuit {sorted(c)} leaves the ground set", witness=c)
    for c1, c2 in itertools.combinations(fam, 2):
        if c1 <= c2 or c2 <= c1:
            raise InvalidCircuitsError(
                "incomparability violated", witness=(sorted(c1), sorted(c2))
            )
    for c1, c2 in itertools.permutations(fam, 2):
        for e in sorted(c1 & c2):
            union = (c1 | c2) - {e}
            if not any(c3 <= union for c3 in fam):
                raise InvalidCircuitsError(
                    "circuit elimination violated", witness=(sorted(c1), sorted(c2), e)
                )
    independent = [frozenset(s) for s in _reference_subsets(ground) if not any(c <= set(s) for c in fam)]
    rank = max(len(s) for s in independent)
    bases = frozenset(s for s in independent if len(s) == rank)
    return ClassicalMatroid(ground, frozenset(fam), bases, rank)


def reference_from_bases(ground, bases) -> ClassicalMatroid:
    bases = frozenset(frozenset(b) for b in bases)
    rank = len(next(iter(bases)))
    dependent = [
        frozenset(s)
        for s in _reference_subsets(ground)
        if not any(frozenset(s) <= b for b in bases)
    ]
    circuits = frozenset(s for s in dependent if not any(t < s for t in dependent))
    return ClassicalMatroid(tuple(ground), circuits, bases, rank)


def reference_basis_exchange_holds(bases) -> bool:
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in bases for y in b2 - b1):
                    return False
    return True


def reference_enumerate_matroids(ground) -> list[ClassicalMatroid]:
    """All labeled matroids on the ground set, generated from basis families."""
    ground = tuple(ground)
    out = []
    for r in range(len(ground) + 1):
        r_subsets = [frozenset(c) for c in itertools.combinations(ground, r)]
        for picks in range(1, 2 ** len(r_subsets)):
            bases = frozenset(
                s for i, s in enumerate(r_subsets) if picks >> i & 1
            )
            if reference_basis_exchange_holds(bases):
                out.append(reference_from_bases(ground, bases))
    return out


def reference_painting_violation(ground, C, D):
    """The first (M1) or (M2) violation of the pair, or None."""
    for c in C:
        for d in D:
            if len(c & d) == 1:
                return {"axiom": "M1", "pair": (sorted(c), sorted(d))}
    for g in ground:
        rest = [e for e in ground if e != g]
        for bits in range(2 ** len(rest)):
            red = {e for i, e in enumerate(rest) if bits >> i & 1}
            blue = set(rest) - red
            if any(g in c and c <= red | {g} for c in C):
                continue
            if any(g in d and d <= blue | {g} for d in D):
                continue
            return {"axiom": "M2", "green": g, "red": sorted(red), "blue": sorted(blue)}
    return None


# -- differential tests ---------------------------------------------------------


def _fields(M):
    return M.ground, M.circuits, M.bases, M.rank


@pytest.fixture(scope="module")
def small():
    """(ground, matroid) for every matroid with at most five elements."""
    out = []
    for n in range(6):
        ground = tuple(str(i + 1) for i in range(n))
        out.extend((ground, M) for M in enumerate_matroids(ground))
    assert len(out) == 498
    return out


def test_same_matroids_enumerated():
    for n in range(6):
        ground = tuple(str(i + 1) for i in range(n))
        got = list(map(_fields, enumerate_matroids(ground)))
        assert got == list(map(_fields, reference_enumerate_matroids(ground))), n


def test_same_duals_from_bases(small):
    for ground, M in small:
        dual_bases = [frozenset(ground) - b for b in M.bases]
        assert _fields(_from_bases(ground, dual_bases)) == _fields(reference_from_bases(ground, dual_bases))


def _ground(n):
    return tuple(str(i + 1) for i in range(n))


def _sums(rng, n, count):
    """``count`` seeded direct sums U_{a,k} + U_{b,n-k} on n elements."""
    ground = _ground(n)
    out = []
    for _ in range(count):
        k = rng.randrange(n + 1)
        a, b = rng.randrange(k + 1), rng.randrange(n - k + 1)
        circuits = [c for r, part in ((a, ground[:k]), (b, ground[k:]))
                    for c in itertools.combinations(part, r + 1)]
        out.append(from_circuits(ground, circuits))
    return out


def test_same_duals_from_bases_on_larger_grounds():
    rng = random.Random(20261020)
    matroids = [M for n in (6, 7, 8)
                for M in [uniform_matroid(r, _ground(n)) for r in range(n + 1)] + _sums(rng, n, 3)]
    # past _LATTICE_MAX, where each bitset is computed on lookup; sparse
    # families keep the oracle's subset scan short
    big = _ground(_LATTICE_MAX + 1)
    matroids += [uniform_matroid(1, big), uniform_matroid(len(big) - 1, big)]
    for M in matroids:
        dual_bases = [frozenset(M.ground) - b for b in M.bases]
        assert _fields(_from_bases(M.ground, dual_bases)) == _fields(reference_from_bases(M.ground, dual_bases))


def _perturbed(rng, ground, C, D):
    """Three seeded perturbations of a (circuits, cocircuits) pair: a random
    subset added to C, one member of D dropped, and about half the members
    of each side given the label "x", which is outside the ground set."""
    extra = frozenset(e for e in ground if rng.random() < 0.5)
    k = rng.randrange(len(D)) if D else 0

    def outside(fam):
        return [s | {"x"} if rng.random() < 0.5 else s for s in fam]

    return [(C + [extra], D), (C, D[:k] + D[k + 1:]), (outside(C), outside(D))]


def test_same_painting_violations(small):
    rng = random.Random(20261018)
    seen = set()
    cases = 0
    for ground, M in small:
        C, D = sorted(M.circuits, key=sorted), sorted(M.cocircuits(), key=sorted)
        for pair in [(C, D)] + _perturbed(rng, ground, C, D):
            got = _painting_violation(ground, *pair)
            assert got == reference_painting_violation(ground, *pair), (ground, pair)
            seen.add(got and got["axiom"])
            cases += 1
    assert cases == 4 * 498
    # passing pairs and both kinds of violation are compared
    assert seen == {None, "M1", "M2"}


def test_same_painting_violations_on_other_sizes():
    """Seeded cases at |E| = 0, 1, 6 and 7, and sparse ones whose scan reads
    bitsets over more than ``_LATTICE_MAX`` positions."""
    rng = random.Random(20261020)
    seen = set()
    cases = []
    for n in (0, 1, 6, 7):
        ground = _ground(n)
        for M in [uniform_matroid(r, ground) for r in range(n + 1)] + _sums(rng, n, 3):
            C, D = sorted(M.circuits, key=sorted), sorted(M.cocircuits(), key=sorted)
            cases += [(ground, pair) for pair in [(C, D)] + _perturbed(rng, ground, C, D)]
    cases.append((_ground(0), ([frozenset({"x"})], [frozenset({"x"})])))
    # parallel pairs: the circuits and the cocircuits are the same pairs
    ground = _ground(_LATTICE_MAX + 2)
    pairs = [frozenset(ground[i:i + 2]) for i in range(0, len(ground), 2)]
    cases += [(ground, (pairs, pairs)), (ground, (pairs, pairs[:2] + pairs[3:]))]
    for ground, pair in cases:
        got = _painting_violation(ground, *pair)
        assert got == reference_painting_violation(ground, *pair), (ground, pair)
        seen.add(got and got["axiom"])
    assert seen == {None, "M1", "M2"}


def _outcome(make, ground, family):
    try:
        return _fields(make(ground, family))
    except InvalidCircuitsError as exc:
        return str(exc), exc.witness


def test_same_from_circuits_results_and_witnesses(small):
    rng = random.Random(7)
    seen = set()
    for ground, M in small:
        C = sorted(M.circuits, key=sorted)
        families = [C, C[1:]] + [pair[0] for pair in _perturbed(rng, ground, C, C)[::2]]
        for family in families:
            got = _outcome(from_circuits, ground, family)
            assert got == _outcome(reference_from_circuits, ground, family), (ground, family)
            seen.add(got[0] if isinstance(got[0], str) else "valid")
    # valid families and every kind of refusal are compared
    assert {"valid", "circuits must be nonempty", "incomparability violated",
            "circuit elimination violated"} <= seen
    assert any(s.endswith("leaves the ground set") for s in seen)
