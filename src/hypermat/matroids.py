"""Classical matroids as circuit set systems, at desk scale.

Rank and bases come from exhaustive independence testing (a set is
independent iff it contains no circuit), which is exact for |E| <= 10.
Includes the painting-style validator and the minimalization construction
for circuit/cocircuit family pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import InvalidCircuitsError, InvalidPairError

GroundSet = tuple[str, ...]


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


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

    def delete(self, e: str) -> "ClassicalMatroid":
        self._require(e)
        ground = tuple(g for g in self.ground if g != e)
        return from_circuits(ground, [c for c in self.circuits if e not in c])

    def contract(self, e: str) -> "ClassicalMatroid":
        self._require(e)
        ground = tuple(g for g in self.ground if g != e)
        traces = {c - {e} for c in self.circuits}
        traces.discard(frozenset())
        minimal = [t for t in traces if not any(s < t for s in traces)]
        return from_circuits(ground, minimal)

    def _require(self, e: str):
        if e not in self.ground:
            raise InvalidCircuitsError(f"unknown element {e!r}")

    def __repr__(self):
        circs = sorted(sorted(c) for c in self.circuits)
        return f"ClassicalMatroid({list(self.ground)}, circuits={circs})"


def from_circuits(ground, circuits) -> ClassicalMatroid:
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
    independent = [frozenset(s) for s in _subsets(ground) if not any(c <= set(s) for c in fam)]
    rank = max(len(s) for s in independent)
    bases = frozenset(s for s in independent if len(s) == rank)
    return ClassicalMatroid(ground, frozenset(fam), bases, rank)


def _from_bases(ground, bases) -> ClassicalMatroid:
    bases = frozenset(frozenset(b) for b in bases)
    rank = len(next(iter(bases)))
    dependent = [
        frozenset(s)
        for s in _subsets(ground)
        if not any(frozenset(s) <= b for b in bases)
    ]
    circuits = frozenset(s for s in dependent if not any(t < s for t in dependent))
    return ClassicalMatroid(tuple(ground), circuits, bases, rank)


def from_bases(ground, bases) -> ClassicalMatroid:
    """Matroid from a basis family; the exchange axiom is checked."""
    bases = frozenset(frozenset(b) for b in bases)
    if not bases:
        raise InvalidCircuitsError("basis family must be nonempty")
    sizes = {len(b) for b in bases}
    if len(sizes) != 1:
        raise InvalidCircuitsError("bases must be equicardinal")
    if not basis_exchange_holds(bases):
        raise InvalidCircuitsError("basis exchange violated")
    return _from_bases(ground, bases)


def basis_exchange_holds(bases) -> bool:
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in bases for y in b2 - b1):
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
        r_subsets = [frozenset(c) for c in itertools.combinations(ground, r)]
        for picks in range(1, 2 ** len(r_subsets)):
            bases = frozenset(
                s for i, s in enumerate(r_subsets) if picks >> i & 1
            )
            if basis_exchange_holds(bases):
                out.append(_from_bases(ground, bases))
    return out


def _painting_violation(ground, C, D):
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


def minty_check(ground, circuits, cocircuits):
    """Painting validator: (M0) incomparability, (M1) no single-point meets,
    (M2) every one-green painting is covered by a circuit or a cocircuit.

    Returns (True, None) or (False, witness).
    """
    ground = tuple(ground)
    C = [frozenset(c) for c in circuits]
    D = [frozenset(d) for d in cocircuits]
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

    Requires (M1) and (M2) of the input pair; the output is revalidated.
    """
    ground = tuple(ground)
    C = [frozenset(c) for c in circuits]
    D = [frozenset(d) for d in cocircuits]
    witness = _painting_violation(ground, C, D)
    if witness is not None:
        raise InvalidPairError(f"({witness['axiom']}) fails", witness=witness)
    c_min = _minimal_nonempty(C)
    d_min = _minimal_nonempty(D)
    matroid = from_circuits(ground, c_min)
    ok, witness = minty_check(ground, c_min, d_min)
    if not ok:
        raise InvalidPairError("minimalized pair fails painting axioms", witness=witness)
    if matroid.cocircuits() != d_min:
        raise InvalidPairError(
            "minimal cocircuits disagree with the matroid dual",
            witness=sorted(sorted(d) for d in d_min),
        )
    return matroid
