"""Matroids over skew hyperfields: signatures, duality, minors, residues.

Every H-matroid is a left matroid over H: a circuit signature stores one
representative per class of left scalings a·X, scaled from the left so its
first nonzero entry in ground order is 1.  The cocircuits are the circuits
of the dual, a left matroid over H^op (``Hyperfield.op``), and a pairing
takes the vector entry as the left factor, X_e·Y_e by ``H.mul``.  A right
H-matroid is the left H^op-matroid with the same circuits.

Construction synthesizes the cocircuit signature by propagating
orthogonality constraints along circuits meeting each cocircuit in two
elements, then certifies 3-orthogonality of the two signatures; a
signature passes iff it is a matroid over the hyperfield.  Input vectors are
validated once, in ``signature_from_vectors``; the synthesized cocircuit
signature is built, not re-checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as _field

from .errors import (
    DomainMismatchError,
    InvalidInputError,
    InvalidSignatureError,
    NotAnHMatroidError,
    TheoremViolationError,
    UnsupportedOperationError,
)
from .homs import Homomorphism
from .hyperfields import BoxCode, Grade, HElement, Hyperfield
from .matroids import ClassicalMatroid, _set_bits, from_circuits


@dataclass(frozen=True)
class HVector:
    """A map from ground elements to hyperfield elements."""

    field: Hyperfield
    ground: tuple[str, ...]
    entries: tuple[HElement, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.ground):
            raise DomainMismatchError("entry count does not match the ground set")

    def __getitem__(self, e: str) -> HElement:
        return self.entries[self.ground.index(e)]

    @property
    def support(self) -> frozenset[str]:
        return frozenset(e for e, x in zip(self.ground, self.entries) if not x.is_zero)

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for x in self.entries)

    def scale_left(self, a: HElement) -> "HVector":
        H = self.field
        return HVector(H, self.ground, tuple(H.mul(a, x) for x in self.entries))

    def drop(self, e: str) -> "HVector":
        kept = [i for i, g in enumerate(self.ground) if g != e]
        return HVector(self.field, tuple(self.ground[i] for i in kept), tuple(self.entries[i] for i in kept))

    def uparrow(self) -> "HVector":
        """Keep the maximal-grade entries, zero out the rest."""
        grades = [x.grade for x in self.entries if not x.is_zero]
        if not grades:
            return self
        top = max(grades)
        H = self.field
        return HVector(
            H,
            self.ground,
            tuple(x if (not x.is_zero and x.grade == top) else H.zero() for x in self.entries),
        )

    def max_grade(self) -> Grade | None:
        grades = [x.grade for x in self.entries if not x.is_zero]
        return max(grades) if grades else None

    def sort_key(self):
        return tuple(self.field.sort_key(x) for x in self.entries)

    def __repr__(self):
        return "(" + ", ".join(repr(x) for x in self.entries) + ")"


def hvector(field: Hyperfield, ground, mapping) -> HVector:
    """Vector from a dict element -> HElement; missing entries are zero.

    Keys outside the ground set are refused, not dropped.
    """
    ground = tuple(ground)
    stray = set(mapping).difference(ground)
    if stray:
        raise DomainMismatchError(
            "entries for elements outside the ground set: " + ", ".join(sorted(map(repr, stray)))
        )
    z = field.zero()
    return HVector(field, ground, tuple(field.require(mapping.get(e, z)) for e in ground))


def zero_vector(field: Hyperfield, ground) -> HVector:
    ground = tuple(ground)
    return HVector(field, ground, (field.zero(),) * len(ground))


def _check_compatible(X, Y):
    """X pairs with Y: Y lives over the opposite of X's hyperfield, on X's ground."""
    if Y.field != X.field.op() or X.ground != Y.ground:
        raise DomainMismatchError("vectors live over different hyperfields or grounds")


def perp(X: HVector, Y: HVector) -> bool:
    """True iff 0 lies in the pairing of X (left factor) and Y (over H^op).

    Decided by a ``PairingFold`` over the meet of the supports, as every
    pairing in the package is.  Each term is ``Hyperfield.mul(x, y)``, so
    the pairing reads X's hyperfield's own product, commutative or not.
    """
    _check_compatible(X, Y)
    meet = _support_mask(X) & _support_mask(Y)
    return PairingFold(X.field).pairs_to_zero(X.entries, Y.entries, meet)


_EMPTY_SUM = frozenset({None})


def _top_sum(H: Hyperfield, rs: frozenset, r) -> frozenset:
    """The residue hypersum ``rs + r`` by ``Hyperfield.residue_hyperadd``,
    with None standing for zero, so ``{None}`` is the empty sum."""
    out = set()
    for a in rs:
        out.update((r,) if a is None else H.residue_hyperadd(a, r))
    return frozenset(out)


def zero_in_sum(H: Hyperfield, terms) -> bool:
    """True iff 0 lies in the hypersum of ``terms``, a list of units: iff it
    lies in the residue hypersum of the top-grade terms, since every
    hyperfield here is a residue extended by an ordered group (or a rank-0
    quotient).  No terms is the empty sum {0}.  The rule of the Farkas G-sum,
    which is no pairing; ``PairingFold`` folds ``_top_sum`` one term at a time.
    """
    if len(terms) < 2:
        return not terms  # a single unit is not zero
    top, rs = max(t.grade for t in terms), _EMPTY_SUM
    for t in terms:
        if t.grade == top:
            rs = _top_sum(H, rs, t.residue)
    return None in rs


class PairingFold(BoxCode):
    """The zero test of a pairing, one term at a time, on int codes, for one call.

    A ``BoxCode`` whose codes name both entries and the nonzero products of
    entries, the terms of a pairing; ``mul`` gives the code of a product,
    and zero (code 0) is the zero product.  A state is the partial hypersum
    of the terms added so far: their top grade and the residue hypersum of
    the terms at that grade (``_top_sum``), interned as a set id of the
    ``BoxCode``; the fold never calls ``BoxCode.sum``, so no other set takes
    an id.  State 0 is the empty sum.  ``moves[s][t]`` is the state once
    term t is added to s, filled on first use by ``add``; ``zero[s]`` tells
    whether 0 lies in the hypersum of the terms behind s (the verdict of
    ``zero_in_sum`` on them).  Products come from ``Hyperfield.mul``, so a
    skew product is read in the caller's order.
    """

    def __init__(self, H: Hyperfield):
        super().__init__(H, [H.zero()])
        self.set_id((None, _EMPTY_SUM))
        self.moves: list[dict[int, int]] = [{0: 0}]
        self.zero: list[bool] = [True]
        self._terms: dict[tuple, int] = {}

    def pairs_to_zero(self, xs, ys, meet: int) -> bool:
        """True iff 0 lies in the sum of ``xs[i]·ys[i]`` over the set bits i
        of ``meet`` (units on both sides); each product is taken and coded
        once per fold, keyed on the two entries' fields, not up front."""
        terms, moves = self._terms, self.moves
        s = 0
        while meet:
            i = (meet & -meet).bit_length() - 1
            meet &= meet - 1
            x, y = xs[i], ys[i]
            key = (x.residue, x.grade, y.residue, y.grade)
            t = terms.get(key)
            if t is None:
                t = terms[key] = self.code(self.field.mul(x, y))
            row = moves[s]
            s = row[t] if t in row else self.add(s, t)
        return self.zero[s]

    def add(self, s: int, t: int) -> int:
        """The state once the term of code t is added to state s."""
        nxt = self.moves[s].get(t)
        if nxt is not None:
            return nxt
        (top, rs), x = self.sets[s], self.elements[t]
        if top is None or x.grade > top:
            top, rs = x.grade, frozenset((x.residue,))
        elif x.grade == top:
            rs = _top_sum(self.field, rs, x.residue)
        nxt = self.moves[s][t] = self.set_id((top, rs))
        if nxt == len(self.moves):
            self.moves.append({0: nxt})
            self.zero.append(None in rs)
        return nxt


@dataclass(frozen=True)
class CircuitSignature:
    """One normalized vector per projective circuit class."""

    field: Hyperfield
    ground: tuple[str, ...]
    reps: tuple[HVector, ...]

    @property
    def supports(self) -> frozenset[frozenset[str]]:
        return frozenset(v.support for v in self.reps)

    def rep_by_support(self) -> dict[frozenset[str], HVector]:
        return {v.support: v for v in self.reps}

    def scalings(self, window: int) -> list[HVector]:
        """All left scalings of the representatives with scalar grades in the window box."""
        units = self.field.units_box(window)
        return [rep.scale_left(a) for rep in self.reps for a in units]


def normalize_vector(vec: HVector) -> HVector:
    """Scale from the left so the first nonzero entry in ground order becomes 1."""
    for x in vec.entries:
        if not x.is_zero:
            return vec.scale_left(vec.field.inv(x))
    raise InvalidSignatureError("cannot normalize the zero vector")


def signature_from_vectors(field, ground, vectors) -> CircuitSignature:
    """Validate (C0) and (C2) and store normalized class representatives.

    This is where circuit vectors enter a matroid, so every entry is checked
    for membership in the hyperfield here and nowhere downstream.
    """
    ground = tuple(ground)
    by_support: dict[frozenset, HVector] = {}
    for v in vectors:
        if v.ground != ground or v.field != field:
            raise DomainMismatchError("signature vector over the wrong ground or hyperfield")
        if not all(map(field.is_element, v.entries)):
            raise DomainMismatchError(f"signature vector {v!r} has an entry outside {field!r}")
        if v.is_zero:
            raise InvalidSignatureError("(C0) fails: zero vector in signature", witness=v)
        rep = normalize_vector(v)
        old = by_support.get(rep.support)
        if old is not None and old != rep:
            raise InvalidSignatureError(
                "(C2) fails: support carries two classes", witness=(old, rep)
            )
        by_support[rep.support] = rep
    sups = list(by_support)
    for s, t in itertools.combinations(sups, 2):
        if s <= t or t <= s:
            raise InvalidSignatureError(
                "(C2) fails: comparable supports", witness=(sorted(s), sorted(t))
            )
    reps = tuple(sorted(by_support.values(), key=lambda v: v.sort_key()))
    return CircuitSignature(field, ground, reps)


def _support_mask(vec: HVector) -> int:
    """The support of ``vec`` as an int bitmask: bit i is ``vec.ground[i]``."""
    return sum(1 << i for i, x in enumerate(vec.entries) if x.residue is not None)


def dual_signature(underlying: ClassicalMatroid, sig: CircuitSignature) -> CircuitSignature:
    """Synthesize the unique dual signature and certify 3-orthogonality.

    The dual lives over H^op.  For each cocircuit D of the underlying
    matroid, the entry at the least element e is set to 1, and each other
    entry f is forced by the first circuit X, in signature order, that
    meets D in exactly {e, f} (found on support bitmasks): y_f = x_f⁻¹·(−x_e),
    by uniqueness of negation.  Such a circuit exists for each f in D (a
    matroid fact), so every entry is assigned when the signature's supports
    are the circuits of ``underlying``, as on every call in the package; an
    unassigned entry means they differ.  The other
    meets are checked by 3-orthogonality, whose failure means the signature
    is not a matroid over the hyperfield.  Forced entries are products of
    units, so the supports are exactly the (distinct, incomparable)
    cocircuits and the output needs no revalidation, nor normalization (its
    least entry is 1).
    """
    H, Hop = sig.field, sig.field.op()
    ground = sig.ground
    circuits = [(rep.entries, _support_mask(rep)) for rep in sig.reps]
    duals = []
    for D in sorted(underlying.cocircuits(), key=sorted):
        d = sum(1 << ground.index(e) for e in D)
        least = d & -d
        e = least.bit_length() - 1
        y = [None if d >> i & 1 else H.zero() for i in range(len(ground))]
        y[e] = H.one()
        for x, mask in circuits:
            m = mask & d
            if m & least and m.bit_count() == 2:
                f = (m ^ least).bit_length() - 1
                if y[f] is None:
                    y[f] = H.mul(H.inv(x[f]), H.neg(x[e]))
        if any(v is None for v in y):
            raise NotAnHMatroidError(
                "cocircuit propagation leaves entries unassigned", witness=sorted(D)
            )
        duals.append(HVector(Hop, ground, tuple(y)))
    dual_sig = CircuitSignature(Hop, ground, tuple(sorted(duals, key=HVector.sort_key)))
    ok, witness = perp_k(sig, dual_sig, 3)
    if not ok:
        raise NotAnHMatroidError("3-orthogonality fails; not a matroid over H", witness=witness)
    return dual_sig


def perp_k(C: CircuitSignature, D: CircuitSignature, k=None):
    """Check X perp Y over representative pairs with support meets of size <= k.

    Scaling invariance of orthogonality makes representatives sufficient.
    k=None means unrestricted (full orthogonality).  D lives over H^op and C's
    entries are the left factors; the witness is the first failing pair (x
    in C, y in D).  Hyperfield and ground are checked once, and each pair is
    decided on its nonempty meet, by one ``PairingFold`` for the call.
    """
    _check_compatible(C, D)
    pairs_to_zero = PairingFold(C.field).pairs_to_zero
    ys_of = [(y, y.entries, _support_mask(y)) for y in D.reps]
    for x in C.reps:
        xs, x_mask = x.entries, _support_mask(x)
        for y, ys, y_mask in ys_of:
            meet = x_mask & y_mask
            if not meet or k is not None and meet.bit_count() > k:
                continue
            if not pairs_to_zero(xs, ys, meet):
                return False, (x, y)
    return True, None


@dataclass(frozen=True)
class HMatroid:
    """A left matroid over ``field``, with its cocircuits over ``field.op()``.

    ``side`` labels the JSON form and plays no part in equality: a right
    H-matroid is the left H^op-matroid labelled "right".  Only ``dual``
    keeps it (flipped); the other operations label their result "left".
    """

    field: Hyperfield
    ground: tuple[str, ...]
    circuits: CircuitSignature
    cocircuits: CircuitSignature
    underlying: ClassicalMatroid
    side: str = _field(default="left", compare=False)

    @property
    def corank(self) -> int:
        return self.underlying.corank

    def dual(self) -> "HMatroid":
        """The left H^op-matroid whose circuits are these cocircuits."""
        return HMatroid(
            self.field.op(),
            self.ground,
            self.cocircuits,
            self.circuits,
            self.underlying.dual(),
            "right" if self.side == "left" else "left",
        )

    def delete(self, e: str) -> "HMatroid":
        keep = tuple(g for g in self.ground if g != e)
        vecs = [rep.drop(e) for rep in self.circuits.reps if rep[e].is_zero]
        return hmatroid_from_circuits(self.field, keep, vecs)

    def contract(self, e: str) -> "HMatroid":
        keep = tuple(g for g in self.ground if g != e)
        traces = [rep.drop(e) for rep in self.circuits.reps]
        traces = [t for t in traces if not t.is_zero]
        sups = [t.support for t in traces]
        minimal = [t for t in traces if not any(s < t.support for s in sups)]
        return hmatroid_from_circuits(self.field, keep, minimal)

    def rescale(self, rho: dict[str, HElement]) -> "HMatroid":
        """Circuit entries X_e become X_e·rho_e⁻¹ (cocircuits then pick up
        rho_e on the left); entries for labels outside the ground set are
        refused, not dropped."""
        H = self.field
        stray = set(rho).difference(self.ground)
        if stray:
            raise InvalidInputError(
                "scaling entries for elements outside the ground set: " + ", ".join(sorted(map(repr, stray)))
            )
        for e in self.ground:
            if e not in rho or H.require(rho[e]).is_zero:
                raise InvalidInputError("scaling vector must be nonzero everywhere")
        inv = {e: H.inv(rho[e]) for e in self.ground}

        scaled = [HVector(H, r.ground, tuple(H.mul(x, inv[e]) for e, x in zip(r.ground, r.entries)))
                  for r in self.circuits.reps]
        return hmatroid_from_circuits(self.field, self.ground, scaled)

    def push_forward(self, f: Homomorphism) -> "HMatroid":
        """Image matroid over the codomain; the output is revalidated."""
        if f.domain != self.field:
            raise DomainMismatchError("homomorphism domain differs from the matroid's hyperfield")
        K = f.codomain
        vecs = [HVector(K, self.ground, tuple(f.apply(x) for x in rep.entries)) for rep in self.circuits.reps]
        return hmatroid_from_circuits(K, self.ground, vecs)


def hmatroid_from_circuits(field, ground, circuit_vectors, side="left") -> HMatroid:
    """Validated construction: signature axioms, underlying matroid, duality.
    ``side`` is a label: a right H-matroid is built from circuits over ``H.op()``."""
    sig = signature_from_vectors(field, ground, circuit_vectors)
    underlying = from_circuits(ground, sig.supports)
    cocirc = dual_signature(underlying, sig)
    return HMatroid(field, tuple(ground), sig, cocirc, underlying, side)


# -- circuit axioms ---------------------------------------------------------


def modular_support_pairs(supports) -> list[tuple[frozenset, frozenset]]:
    """Unordered support pairs whose union strictly contains no union of two
    distinct circuit supports; each union is a bitmask, tested against the
    set of distinct pair unions."""
    sups = list(supports)
    bit = {}
    masks = [sum(1 << bit.setdefault(e, len(bit)) for e in s) for s in sups]
    pairs = list(itertools.combinations(range(len(sups)), 2))
    unions = {masks[i] | masks[j] for i, j in pairs}
    modular = {u for u in unions if not any(v != u and v & u == v for v in unions)}
    return [(sups[i], sups[j]) for i, j in pairs if masks[i] | masks[j] in modular]


def check_circuit_axioms(sig: CircuitSignature) -> list[dict]:
    """(C3), searched exactly via symbolic sets; (C0)-(C2) are refused on
    entry by ``signature_from_vectors``.

    Modular elimination is tested on pairs from distinct classes (a class
    and its own negative admit no eliminating circuit by (C2), and such
    pairs are excluded as in the weak circuit axioms).
    """
    H = sig.field
    report = []
    by_support = sig.rep_by_support()
    circuits = [(Z, _support_mask(Z)) for Z in sig.reps]
    for s1, s2 in modular_support_pairs(sorted(by_support, key=sorted)):
        X = by_support[s1]
        Yhat = by_support[s2]
        for e in sorted(s1 & s2):
            Y = _align_for_elimination(H, X, Yhat, e)
            if not _elimination_exists(H, circuits, X, Y, e):
                report.append(
                    {"check": "C3", "witness": {"X": X, "Y": Y, "e": e}}
                )
    return report


def _align_for_elimination(H, X, Yhat, e):
    """Scale Yhat from the left so the entries at e are negatives of each other."""
    return Yhat.scale_left(H.mul(H.neg(X[e]), H.inv(Yhat[e])))


def _elimination_exists(H, circuits, X: HVector, Y: HVector, e: str) -> bool:
    """Is there a circuit Z with Z_e = 0 lying pointwise in X + Y?

    ``circuits`` holds ``(Z, support bitmask)`` pairs.  A finite hypersum
    at Z's first support element fixes the candidate scalars gamma, each
    tested by membership gamma*Z_f in X_f + Y_f at the others; only a first
    hypersum with a down-set is intersected.
    """
    union = _support_mask(X) | _support_mask(Y)
    sums = {f: H.hyperadd(X.entries[f], Y.entries[f]) for f in _set_bits(union)}
    e_bit = 1 << X.ground.index(e)
    needed = sum(1 << f for f, s in sums.items() if not s.contains_zero) & ~e_bit
    for Z, z_mask in circuits:
        if z_mask & e_bit or z_mask & ~union or needed & ~z_mask:
            continue
        first, *rest = _set_bits(z_mask)
        z = Z.entries
        if sums[first].below is None:
            z_inv = H.inv(z[first])
            gammas = (H.mul(s, z_inv) for s in sums[first].explicit if not s.is_zero)
            if any(all(H.mul(g, z[f]) in sums[f] for f in rest) for g in gammas):
                return True
            continue
        gamma = None
        for f in (first, *rest):
            cand = sums[f].scale_right(H.inv(z[f]))
            gamma = cand if gamma is None else gamma.intersect(cand)
            if gamma.is_empty():
                break
        if gamma.has_nonzero():
            return True
    return False


def check_c3prime(sig: CircuitSignature) -> list[dict]:
    """Non-modular elimination (C3)' for Krasner or sign residues.

    Tropical form: Z_e=0, Z_f=X_f and Z <= X o Y pointwise.  Sign-residue
    form: Z_e=0, Z_f=X_f and, at every g, either |Z_g| < |X_g o Y_g| or
    Z_g lies in the hypersum X_g + Y_g.
    """
    H = sig.field
    if H.residue_kind not in ("krasner", "sign"):
        raise UnsupportedOperationError("(C3)' checker needs a Krasner or sign residue")
    tropical = H.residue_kind == "krasner"
    report = []
    by_support = sig.rep_by_support()
    sups = sorted(sig.supports, key=sorted)
    for s1 in sups:
        for s2 in sups:
            if s1 == s2:
                continue
            X = by_support[s1]
            Yhat = by_support[s2]
            for e in sorted(s1 & s2):
                Y = _align_for_elimination(H, X, Yhat, e)
                for f in sorted(s1):
                    if not _val_lt(Y[f], X[f]):
                        continue
                    if not _c3prime_witness(sig, X, Y, e, f, tropical):
                        report.append(
                            {"check": "C3'", "witness": {"X": X, "Y": Y, "e": e, "f": f}}
                        )
    return report


def _val_lt(a: HElement, b: HElement) -> bool:
    """Valuation comparison with zero as the bottom element."""
    if b.is_zero:
        return False
    if a.is_zero:
        return True
    return a.grade < b.grade


def _c3prime_witness(sig, X, Y, e, f, tropical) -> bool:
    H = sig.field

    def fits(z, g):
        comp = H.compose(X[g], Y[g])
        if tropical:
            return z.is_zero or (not comp.is_zero and z.grade <= comp.grade)
        return _val_lt(z, comp) or z in H.hyperadd(X[g], Y[g])

    for Zhat in sig.reps:
        if e in Zhat.support or f not in Zhat.support:
            continue
        Z = Zhat.scale_left(H.mul(X[f], H.inv(Zhat[f])))
        if all(fits(Z[g], g) for g in sig.ground):
            return True
    return False


# -- residue matroid --------------------------------------------------------


def _to_residue_vector(vec: HVector, R: Hyperfield) -> HVector:
    return HVector(R, vec.ground, tuple(R.zero() if x.is_zero else HElement(x.residue, ()) for x in vec.entries))


def _residue_classes(sig: CircuitSignature, R: Hyperfield):
    """Minimal-support uparrows of max-grade-0 rescaled classes, over R."""
    H = sig.field
    flattened = []
    for rep in sig.reps:
        top = rep.max_grade()
        shift = HElement(H.one().residue, tuple(-t for t in top))
        flattened.append(rep.scale_left(shift).uparrow())
    sups = [v.support for v in flattened]
    minimal = [v for v in flattened if not any(s < v.support for s in sups)]
    return [_to_residue_vector(v, R) for v in minimal]


def residue_matroid(M: HMatroid) -> HMatroid:
    """The matroid over the residue hyperfield induced by the top grades.

    Validated along the way: the synthesized cocircuits must coincide with
    the minimal uparrows of M's cocircuits, and the underlying matroid must
    equal the residue of the valuated push-forward.
    """
    H = M.field
    if H.kind == "quotient":
        raise UnsupportedOperationError("residue matroid needs a graded catalog hyperfield")
    R = H.residue_field()
    circ0 = _residue_classes(M.circuits, R)
    M0 = hmatroid_from_circuits(R, M.ground, circ0)
    cocirc0 = _residue_classes(M.cocircuits, R.op())
    expected = signature_from_vectors(R.op(), M.ground, cocirc0)
    if expected != M0.cocircuits:
        raise TheoremViolationError(
            "residue cocircuits disagree with the synthesized dual signature",
            witness=(expected, M0.cocircuits),
        )
    val_supports = frozenset(v.support for v in _residue_classes(M.circuits, Hyperfield.krasner()))
    if M0.underlying.circuits != val_supports:
        raise TheoremViolationError(
            "residue underlying matroid differs from the valuation residue",
            witness=(M0.underlying.circuits, val_supports),
        )
    return M0
