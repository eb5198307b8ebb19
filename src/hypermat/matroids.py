"""Classical matroids as circuit set systems, at desk scale.

Rank and bases come from exhaustive independence testing (a set is
independent iff it contains no circuit), which is exact for |E| <= 10.
Includes the painting-style validator and the minimalization construction
for circuit/cocircuit family pairs.  The subset and painting scans run on
int bitmasks over ground positions; sets go in and come out as frozensets.

``from_circuits``, ``_from_bases`` and the painting scan work on
whole-lattice bitsets, one int whose bit t stands for mask t: ``_lattice(n)``
gives the bitsets of the supermasks and the submasks of every n-bit mask,
built once per n on first use.  The dependent sets are the OR of the
circuits' supermask bitsets, the independent sets the OR of the bases'
submask bitsets, and a painting is covered when its red mask lies in a
circuit rest's supermask bitset or in the submask bitset of a cocircuit
rest's complement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import InvalidCircuitsError, InvalidPairError

GroundSet = tuple[str, ...]


def _masks(ground, *families) -> list[list[int]]:
    """Each set of each family as an int bitmask: bit i is ``ground[i]``, and a
    label outside the ground set gets a bit above them when first seen."""
    pos = {e: i for i, e in enumerate(ground)}
    if len(pos) != len(ground):
        raise InvalidCircuitsError("ground set labels must be distinct")
    return [[sum(1 << pos.setdefault(e, len(pos)) for e in s) for s in fam] for fam in families]


def _labels(ground, mask: int) -> frozenset[str]:
    return frozenset(e for i, e in enumerate(ground) if mask >> i & 1)


def _set_bits(bitset: int):
    """The indices of the set bits, in ascending order."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def _submasks(x: int) -> int:
    """The bitset of the submasks of x."""
    down = 1
    for i in _set_bits(x):
        down |= down << (1 << i)
    return down


# the tables take about 2^(2n) bits, so past this many positions each bitset
# is computed on lookup instead
_LATTICE_MAX = 10


@functools.cache
def _lattice(n: int):
    """``(up, down)`` over n positions: ``up(x)`` and ``down(x)`` are the
    bitsets of the supermasks and the submasks of the n-bit mask x.  Built
    once per n, on first use."""
    full = (1 << n) - 1
    if n > _LATTICE_MAX:
        return (lambda x: _submasks(full ^ x) << x), _submasks
    # the submasks of x are those of x without its top bit b, and the same shifted by b
    down = [1]
    for i in range(n):
        down += [d | d << (1 << i) for d in down]
    # a supermask of x is x plus a submask of its complement
    up = [down[full ^ x] << x for x in range(1 << n)]
    return up.__getitem__, down.__getitem__


@dataclass(frozen=True)
class ClassicalMatroid:
    ground: GroundSet
    circuits: frozenset[frozenset[str]]
    bases: frozenset[frozenset[str]] = field(compare=False, repr=False)
    rank: int = field(compare=False)

    @property
    def corank(self) -> int:
        return len(self.ground) - self.rank

    def is_spanning(self, subset) -> bool:
        s = frozenset(subset)
        return any(b <= s for b in self.bases)

    def is_loop(self, e: str) -> bool:
        return frozenset({e}) in self.circuits

    def is_coloop(self, e: str) -> bool:
        return all(e in b for b in self.bases)

    def cocircuits(self) -> frozenset[frozenset[str]]:
        return self.dual().circuits

    def dual(self) -> "ClassicalMatroid":
        eset = frozenset(self.ground)
        dual_bases = frozenset(eset - b for b in self.bases)
        return _from_bases(self.ground, dual_bases)

    def __repr__(self):
        circs = sorted(sorted(c) for c in self.circuits)
        return f"ClassicalMatroid({list(self.ground)}, circuits={circs})"


def from_circuits(ground, circuits) -> ClassicalMatroid:
    """Validated matroid from its circuit family."""
    ground = tuple(ground)
    # scanned in a fixed order, so witnesses do not depend on set hashing
    fam = sorted({frozenset(c) for c in circuits}, key=sorted)
    eset = frozenset(ground)
    for c in fam:
        if not c:
            raise InvalidCircuitsError("circuits must be nonempty", witness=c)
        if not c <= eset:
            raise InvalidCircuitsError(f"circuit {sorted(c)} leaves the ground set", witness=c)
    [masks] = _masks(ground, fam)
    for (c1, x1), (c2, x2) in itertools.combinations(zip(fam, masks), 2):
        if not x1 & ~x2 or not x2 & ~x1:
            raise InvalidCircuitsError(
                "incomparability violated", witness=(sorted(c1), sorted(c2))
            )
    n = len(ground)
    up = _lattice(n)[0]
    # bit s: mask s contains a circuit
    dependent = 0
    for x in masks:
        dependent |= up(x)
    # elimination is symmetric in the pair, so the first failing ordered
    # pair always comes in combinations order
    by_label = sorted(range(n), key=ground.__getitem__)
    for (c1, x1), (c2, x2) in itertools.combinations(zip(fam, masks), 2):
        for i in by_label:
            if (x1 & x2) >> i & 1 and not dependent >> ((x1 | x2) ^ 1 << i) & 1:
                raise InvalidCircuitsError(
                    "circuit elimination violated", witness=(sorted(c1), sorted(c2), ground[i])
                )
    independent = list(_set_bits(~dependent & (1 << (1 << n)) - 1))
    rank = max(s.bit_count() for s in independent)
    bases = frozenset(_labels(ground, s) for s in independent if s.bit_count() == rank)
    return ClassicalMatroid(ground, frozenset(fam), bases, rank)


def _from_bases(ground, bases) -> ClassicalMatroid:
    bases = frozenset(frozenset(b) for b in bases)
    rank = len(next(iter(bases)))
    [masks] = _masks(ground, bases)
    n = len(ground)
    up, down = _lattice(n)
    independent = 0
    for b in masks:
        independent |= down(b)
    # the minimal dependent sets: dependent, with every one-element deletion
    # independent; for s through position i, s ^ 1 << i is s - i, so it is
    # independent iff bit s of independent << (1 << i) is set
    full = (1 << n) - 1
    circuits = ~independent & (1 << full + 1) - 1
    for i in _set_bits(full):
        circuits &= ~up(1 << i) | independent << (1 << i)
    circuits = frozenset(_labels(ground, s) for s in _set_bits(circuits))
    return ClassicalMatroid(tuple(ground), circuits, bases, rank)


def _exchange_holds(masks: set[int]) -> bool:
    for b1 in masks:
        for b2 in masks:
            ys = [1 << j for j in _set_bits(b2 & ~b1)]
            for i in _set_bits(b1 & ~b2):
                if not any((b1 ^ 1 << i | y) in masks for y in ys):
                    return False
    return True


def uniform_matroid(rank: int, ground) -> ClassicalMatroid:
    ground = tuple(ground)
    circuits = itertools.combinations(ground, rank + 1)
    return from_circuits(ground, [frozenset(c) for c in circuits])


def enumerate_matroids(ground) -> list[ClassicalMatroid]:
    """All labeled matroids on the ground set, generated from basis families."""
    ground = tuple(ground)
    out = []
    for r in range(len(ground) + 1):
        masks = [sum(1 << i for i in c) for c in itertools.combinations(range(len(ground)), r)]
        labels = [_labels(ground, m) for m in masks]
        for picks in range(1, 2 ** len(masks)):
            chosen = [i for i in range(len(masks)) if picks >> i & 1]
            if _exchange_holds({masks[i] for i in chosen}):
                out.append(_from_bases(ground, [labels[i] for i in chosen]))
    return out


def _painting_violation(ground, C, D):
    """The first (M1) or (M2) violation of the pair, or None.

    Paintings are bitmasks over ground positions (``_masks``), the red part
    counting up through the positions other than the green one; the first
    open one is the lowest zero bit of the covered-painting bitset.
    """
    cm, dm = _masks(ground, C, D)
    for c, x in zip(C, cm):
        for d, y in zip(D, dm):
            meet = x & y
            if meet and not meet & (meet - 1):
                return {"axiom": "M1", "pair": (sorted(c), sorted(d))}
    # a member outside the ground set has a bit above ``full`` and covers nothing
    full = (1 << len(ground)) - 1
    rests = full >> 1
    for i, g in enumerate(ground):
        green = 1 << i
        up, down = _lattice(len(ground) - 1)
        # the rests of the members through g, compressed to the other positions
        cg = [x & green - 1 | x >> i + 1 << i for x in cm if x & green and x <= full]
        dg = [y & green - 1 | y >> i + 1 << i for y in dm if y & green and y <= full]
        # bit t: the painting with compressed red mask t is covered
        covered = 0
        for x in cg:
            covered |= up(x)
        for y in dg:
            covered |= down(rests ^ y)
        bits = (~covered & covered + 1).bit_length() - 1
        if bits > rests:
            continue
        red = bits & (green - 1) | bits >> i << (i + 1)
        blue = full ^ red ^ green
        return {"axiom": "M2", "green": g, "red": sorted(_labels(ground, red)),
                "blue": sorted(_labels(ground, blue))}
    return None


def minty_check(ground, circuits, cocircuits):
    """Painting validator: (M0) incomparability, (M1) no single-point meets,
    (M2) every one-green painting is covered by a circuit or a cocircuit.

    Returns (True, None) or (False, witness).
    """
    ground = tuple(ground)
    # scanned in a fixed order, so witnesses do not depend on set hashing
    C = sorted(map(frozenset, circuits), key=sorted)
    D = sorted(map(frozenset, cocircuits), key=sorted)
    for fam, name in ((C, "circuits"), (D, "cocircuits")):
        for a, b in itertools.combinations(fam, 2):
            if a <= b or b <= a:
                return False, {"axiom": "M0", "family": name, "pair": (sorted(a), sorted(b))}
    witness = _painting_violation(ground, C, D)
    return witness is None, witness


def _minimal_nonempty(family):
    fam = {frozenset(s) for s in family if s}
    return frozenset(s for s in fam if not any(t < s for t in fam))


def minty_minimalize(ground, circuits, cocircuits) -> ClassicalMatroid:
    """Matroid whose circuits/cocircuits are the minimal nonempty members.

    Requires (M1) and (M2) of the input pair.  The output is a matroid whose
    cocircuits must be the minimal ones, so (M0)-(M2) need no second scan.
    """
    ground = tuple(ground)
    C = sorted(map(frozenset, circuits), key=sorted)
    D = sorted(map(frozenset, cocircuits), key=sorted)
    witness = _painting_violation(ground, C, D)
    if witness is not None:
        raise InvalidPairError(f"({witness['axiom']}) fails", witness=witness)
    c_min = _minimal_nonempty(C)
    d_min = _minimal_nonempty(D)
    matroid = from_circuits(ground, c_min)
    if matroid.cocircuits() != d_min:
        raise InvalidPairError(
            "minimal cocircuits disagree with the matroid dual",
            witness=sorted(sorted(d) for d in d_min),
        )
    return matroid
