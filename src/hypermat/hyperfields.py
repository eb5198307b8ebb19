"""Exact arithmetic for (skew) hyperfields.

Elements are either zero or a unit carrying a residue part and a grade in the
ordered group Z^k under lexicographic comparison.  A hypersum is a symbolic
set: a top grade and the residue hypersum there, built one term at a time by
``add_term``.  Membership, intersection and equality of such sets are exact;
only full enumeration needs a caller-supplied grade window.

The catalog covers the Krasner hyperfield, the sign hyperfield, prime fields
GF(p), the tropical hyperfield over Z^k, stringent extensions of sign or
field residues by Z^k, and finite quotient hyperfields given by tables.
A table hyperfield keeps each table once, over every pair of elements: the
entries with a zero operand follow from x + 0 = {x} and x·0 = 0·x = 0, and
a given one that disagrees is refused, so equal tables give equal
hyperfields.  Construction checks the axioms on every triple of elements.

Membership is checked once, where elements enter: ``Hyperfield.unit``,
``hvector``, the JSON reader, and matroid construction and rescaling all
call ``Hyperfield.require`` (or ``is_element``).  The operations (``mul``,
``inv``, ``neg``, ``hyperadd``, ``SymbolicSet.add_element``) assume their
arguments are elements of the hyperfield and do not check them again; the
raw ``HElement(...)`` and ``HVector(...)`` constructors are unchecked too.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import (
    DomainMismatchError,
    InvalidHyperfieldError,
    InvalidSubgroupError,
    ResourceLimitError,
    UnsupportedOperationError,
)

Grade = tuple[int, ...]


def grade_add(a: Grade, b: Grade) -> Grade:
    return tuple(map(operator.add, a, b))


def grade_neg(a: Grade) -> Grade:
    return tuple(-x for x in a)


@dataclass(frozen=True, slots=True)
class HElement:
    """Zero (residue None) or a unit with a residue part and a grade tuple."""

    residue: int | None
    grade: Grade = ()

    @property
    def is_zero(self) -> bool:
        return self.residue is None

    def __repr__(self):
        if self.residue is None:
            return "0"
        if not self.grade:
            return f"u({self.residue})"
        return f"u({self.residue},{','.join(map(str, self.grade))})"


_ZERO = HElement(None, ())
_ZERO_SUM = frozenset({None})  # the residues of {0}, the sum of no terms

# Most cosets a quotient hyperfield may have.  Its tables have one entry per
# pair of elements and construction checks the axioms on every triple, so
# the index sets the cost: at this bound (GF(97) by a subgroup of order 3)
# construction takes about 1.2 s on a 2-vCPU VM with Python 3.11.
MAX_QUOTIENT_INDEX = 32

# Most elements a window box may have for ``validate_axioms``, whose loops
# visit every triple of box elements: n**3 <= 2**18.  The largest admitted
# catalog boxes take under a second on the VM above.
MAX_AXIOM_BOX = 64

# Largest power that a budget check computes: a count past it is refused as
# "more than 10^30", so a large grade rank costs no big-int power.
COUNT_CAP = 10**30


# The first 12 primes: a Miller-Rabin test with these bases is exact below
# 3.3 * 10**24, which covers every modulus below 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test of a modulus.

    Raises InvalidHyperfieldError unless n is an int below 2**64.
    """
    if type(n) is not int or n >= 2**64:
        raise InvalidHyperfieldError(f"modulus must be an integer below 2**64, got {n!r}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre_symbol(a: int, p: int) -> int:
    """Quadratic residue symbol for a not divisible by the odd prime p."""
    s = pow(a % p, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def capped_power(base: int, exp: int) -> int | None:
    """``base ** exp``, or None when it is more than ``COUNT_CAP``; a power
    of more than twice the cap's bits is never computed."""
    if exp * (base.bit_length() - 1) > COUNT_CAP.bit_length():
        return None
    power = base**exp
    return power if power <= COUNT_CAP else None


def count_text(n: int | None) -> str:
    return "more than 10^30" if n is None else str(n)


class Hyperfield:
    """A residue extended by the ordered group Z^rank, or a finite quotient.

    ``Hyperfield(residue, p=None, rank=0)`` names every catalog hyperfield:
    ``residue`` is ``"krasner"``, ``"sign"`` or ``"field"`` (GF(p), so ``p``
    is a prime), and ``rank`` is the rank of the grade group.  ``kind`` is
    the residue at rank 0, ``"tropical"`` for a Krasner residue at rank > 0
    and ``"stringent"`` otherwise.  A residue ``"quotient"`` is a finite
    hyperfield read from ``tables = (elements, add, mul)`` at rank 0, with
    0 the zero and 1 the unit and an entry for each pair of units in both
    tables; entries with a zero operand may be left out (``quotient``
    builds them all).  Every parameter is checked here.
    Instances are immutable and hashable; all operations are pure.
    """

    __slots__ = (
        "kind",
        "p",
        "rank",
        "subgroup",
        "residue_kind",
        "_units",
        "_unit_index",
        "_elements",
        "_add_table",
        "_mul_table",
        "_neg",
        "_inv",
        "_stringent",
        "_op",
        "_descriptor",
        "_hash",
    )

    def __init__(self, residue, p=None, rank=0, subgroup=None, tables=None):
        for name, value in (("p", p), ("rank", rank)):
            if value is not None and type(value) is not int:
                raise InvalidHyperfieldError(f"{name} must be an integer, got {value!r}")
        if rank < 0:
            raise InvalidHyperfieldError("rank must be nonnegative")
        if residue not in ("krasner", "sign", "field", "quotient"):
            raise InvalidHyperfieldError(f"unknown residue kind {residue!r}")
        if residue == "field" and p is None:
            raise InvalidHyperfieldError("a field residue needs a prime modulus")
        if residue in ("krasner", "sign") and p is not None:
            raise InvalidHyperfieldError(f"a {residue} residue takes no modulus")
        if p is not None and not is_prime(p):
            raise InvalidHyperfieldError(f"modulus {p} is not prime")
        if residue == "quotient" and (rank or tables is None):
            raise InvalidHyperfieldError("a quotient is given by tables, at rank 0")
        self.residue_kind = residue
        self.kind = residue if rank == 0 else ("tropical" if residue == "krasner" else "stringent")
        self.p = p
        self.rank = rank
        self.subgroup = tuple(sorted(subgroup)) if subgroup else None
        self._elements = None
        self._stringent = None
        self._op = None
        # A GF(p) residue r sorts at r - 1 (residue_sort_index): its units
        # stay a range, so membership and index are O(1) in p.  The other
        # unit sets are small enough to index outright.
        if residue == "field":
            self._units = range(1, p)
        elif residue == "quotient":
            self._init_tables(tables)
        else:
            self._units = (1,) if residue == "krasner" else (1, -1)
        self._unit_index = None if residue == "field" else {r: i for i, r in enumerate(self._units)}
        tables = (self._add_table, self._mul_table) if residue == "quotient" else ()
        self._descriptor = (self.kind, self.p, self.rank, self.subgroup, *(frozenset(t.items()) for t in tables))
        self._hash = hash(self._descriptor)
        if residue == "quotient":
            report = validate_axioms(self)
            if report:
                raise InvalidHyperfieldError(
                    f"tables violate hyperfield axioms: {report[0]['check']}", violations=report
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def krasner(cls) -> "Hyperfield":
        return cls("krasner")

    @classmethod
    def sign(cls) -> "Hyperfield":
        return cls("sign")

    @classmethod
    def field(cls, p: int) -> "Hyperfield":
        return cls("field", p=p)

    @classmethod
    def tropical(cls, rank: int = 1) -> "Hyperfield":
        return cls("krasner", rank=rank)

    @classmethod
    def stringent(cls, residue: str, rank: int = 1, p: int | None = None) -> "Hyperfield":
        """The ``residue`` (krasner, sign, or field with modulus ``p``) graded by Z^rank.

        A Krasner residue gives ``tropical(rank)``; at rank 0 the residue
        itself.
        """
        return cls(residue, p, rank)

    @classmethod
    def quotient(cls, p: int, subgroup) -> "Hyperfield":
        """Krasner quotient of GF(p) by a multiplicative subgroup G: rG+sG coset sums."""
        if not is_prime(p):
            raise InvalidSubgroupError(f"{p} is not prime")
        G = sorted(set(int(g) % p for g in subgroup))
        if 0 in G or not G or 1 not in G:
            raise InvalidSubgroupError("subgroup must consist of units and contain 1")
        for a, b in itertools.product(G, G):
            if (a * b) % p not in G:
                raise InvalidSubgroupError(f"subgroup not closed: {a}*{b} mod {p} = {(a * b) % p}")
        index = (p - 1) // len(G)
        if index > MAX_QUOTIENT_INDEX:
            raise InvalidSubgroupError(
                f"quotient of GF({p}) by a subgroup of order {len(G)} has {index} cosets; "
                f"at most {MAX_QUOTIENT_INDEX} are supported"
            )
        # the label of a coset is its least member; 0 is its own
        label_of = {r: min(r * g % p for g in G) for r in range(p)}
        elements = tuple(sorted(set(label_of.values())))
        # aG + bG = G(a + bG), so it holds the cosets of the labels of a + bG
        add = {(a, b): frozenset(label_of[(a + b * h) % p] for h in G) for a in elements for b in elements}
        mul = {(a, b): label_of[a * b % p] for a in elements for b in elements}
        return cls("quotient", p=p, subgroup=G, tables=(elements, add, mul))

    def _init_tables(self, tables):
        """Each table once, a dict over all pairs of elements (see the module docstring)."""
        elements, add, mul = tables
        if 0 not in elements or 1 not in elements:
            raise InvalidHyperfieldError("tables must contain 0 and 1")
        self._elements = elements = tuple(sorted(elements))
        self._units = units = tuple(a for a in elements if a != 0)
        labels = set(elements)
        # ``a or b`` is the nonzero operand, if any
        self._add_table = {(a, b): frozenset({a or b}) for a in elements for b in elements if not (a and b)}
        self._mul_table = dict.fromkeys(self._add_table, 0)
        for op, given, table, law in (("+", add, self._add_table, "x + 0 = 0 + x = {x}"),
                                      ("*", mul, self._mul_table, "x * 0 = 0 * x = 0")):
            for (a, b), v in given.items():
                v = frozenset(v) if op == "+" else v
                if not labels.issuperset((a, b, *(v if op == "+" else (v,)))):
                    raise InvalidHyperfieldError(f"table entry {a} {op} {b} names a label outside the elements")
                if table.setdefault((a, b), v) != v:
                    raise InvalidHyperfieldError(f"table entry {a} {op} {b} breaks {law}")
        for a, b in itertools.product(units, units):
            for op, table in (("+", self._add_table), ("*", self._mul_table)):
                if (a, b) not in table:
                    raise InvalidHyperfieldError(f"no table entry for {a} {op} {b}")
        # total, since validate_axioms requires one negative and one inverse per unit
        self._neg = {a: b for a in units for b in units if 0 in self._add_table[a, b]}
        self._inv = {a: b for a in units for b in units if self._mul_table[a, b] == 1}

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Hyperfield) and self._descriptor == other._descriptor

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "field":
            return f"Hyperfield.field({self.p})"
        if self.kind == "tropical":
            return f"Hyperfield.tropical({self.rank})"
        if self.kind == "stringent":
            res = f"field,p={self.p}" if self.p else "sign"
            return f"Hyperfield.stringent({res},rank={self.rank})"
        if self.kind == "quotient":
            if self.p:
                return f"Hyperfield.quotient({self.p},{list(self.subgroup)})"
            return f"Hyperfield.tables({len(self._elements)} elements)"
        return f"Hyperfield.{self.kind}()"

    # -- structure ----------------------------------------------------

    @property
    def is_stringent(self) -> bool:
        if self.kind != "quotient":
            return True
        if self._stringent is None:
            self._stringent = check_stringent(self)[0]
        return self._stringent

    def op(self) -> "Hyperfield":
        """H^op: the same sums, with a·b read as b·a.  A commutative H is its
        own opposite; a table H with an asymmetric product gets the
        transposed table, built once."""
        if self._op is None:
            mul = self._mul_table if self.kind == "quotient" else {}
            self._op = self
            if any(mul.get((b, a)) != v for (a, b), v in mul.items()):
                flipped = {(b, a): v for (a, b), v in mul.items()}
                self._op = Hyperfield("quotient", tables=(self._elements, self._add_table, flipped))
                self._op._op = self
        return self._op

    def residue_field(self) -> "Hyperfield":
        """The residue: the rank-0 hyperfield of grade-zero units plus zero."""
        if self.rank == 0:
            return self
        return Hyperfield(self.residue_kind, p=self.p)

    def zero(self) -> HElement:
        return _ZERO

    def one(self) -> HElement:
        return HElement(1, (0,) * self.rank)

    def residue_units(self) -> tuple | range:
        """The residue labels of grade-zero units, in sort order."""
        return self._units

    def residue_sort_index(self, r) -> int:
        if self._unit_index is None:
            return r - 1
        return self._unit_index[r]

    def is_element(self, x: HElement) -> bool:
        if not isinstance(x, HElement):
            return False
        r = x.residue
        if r is None:
            return x.grade == ()
        # Exact ints only: a bool would pass as 1, and a float would turn
        # range membership into a linear scan.
        grade_ok = len(x.grade) == self.rank and all(type(g) is int for g in x.grade)
        return grade_ok and type(r) is int and r in self._units

    def require(self, x: HElement) -> HElement:
        if not self.is_element(x):
            raise DomainMismatchError(f"{x!r} is not an element of {self!r}")
        return x

    def unit(self, residue, grade: Grade = ()) -> HElement:
        return self.require(HElement(residue, tuple(grade)))

    # -- residue-level operations --------------------------------------

    def residue_mul(self, r, s):
        kind = self.residue_kind
        if kind == "krasner":
            return 1
        if kind == "sign":
            return r * s
        if kind == "field":
            return (r * s) % self.p
        return self._mul_table[r, s]

    def residue_inv(self, r):
        kind = self.residue_kind
        if kind == "krasner":
            return 1
        if kind == "sign":
            return r
        if kind == "field":
            return pow(r, self.p - 2, self.p)
        return self._inv[r]

    def residue_neg(self, r):
        kind = self.residue_kind
        if kind == "krasner":
            return 1
        if kind == "sign":
            return -r
        if kind == "field":
            return (self.p - r) % self.p
        return self._neg[r]

    def residue_hyperadd(self, r, s) -> frozenset:
        """Hypersum of two residue units; None in the result stands for zero."""
        kind = self.residue_kind
        if kind == "krasner":
            return frozenset({None, 1})
        if kind == "sign":
            if r == s:
                return frozenset({r})
            return frozenset({None, 1, -1})
        if kind == "field":
            t = (r + s) % self.p
            return frozenset({t if t else None})
        return frozenset(v if v else None for v in self._add_table[r, s])

    # -- element operations --------------------------------------------

    def mul(self, a: HElement, b: HElement) -> HElement:
        if a.residue is None or b.residue is None:
            return _ZERO
        return HElement(self.residue_mul(a.residue, b.residue), grade_add(a.grade, b.grade))

    def inv(self, a: HElement) -> HElement:
        if a.is_zero:
            raise DomainMismatchError("zero has no inverse")
        return HElement(self.residue_inv(a.residue), grade_neg(a.grade))

    def neg(self, a: HElement) -> HElement:
        if a.is_zero:
            return a
        return HElement(self.residue_neg(a.residue), a.grade)

    def hyperadd(self, a: HElement, b: HElement) -> "SymbolicSet":
        return SymbolicSet(self, *add_term(self, *add_term(self, None, _ZERO_SUM, a), b))

    def hyperadd_multi(self, xs) -> "SymbolicSet":
        """Left fold of hyperaddition over a list; empty input gives {0}."""
        top, rs = None, _ZERO_SUM
        for x in xs:
            top, rs = add_term(self, top, rs, x)
        return SymbolicSet(self, top, rs)

    def require_stringent(self):
        """Refuse a hyperfield that is not stringent, where compose is undefined."""
        if not self.is_stringent:
            raise UnsupportedOperationError(f"{self!r} is not stringent; compose undefined")

    def compose(self, a: HElement, b: HElement) -> HElement:
        """Single-valued surrogate for hyperaddition on a stringent hyperfield."""
        self.require_stringent()
        return composition(a, self.hyperadd(a, b))

    # -- enumeration -----------------------------------------------------

    def grades_box(self, window: int):
        return itertools.product(range(-window, window + 1), repeat=self.rank)

    def units_box(self, window: int) -> list[HElement]:
        return [
            HElement(r, g)
            for g in self.grades_box(window)
            for r in self.residue_units()
        ]

    def elements_box(self, window: int) -> list[HElement]:
        return [self.zero()] + self.units_box(window)

    def elements_box_size(self, window: int) -> int | None:
        """``len(self.elements_box(window))``, computed without building the
        box, or None when its grades alone are more than ``COUNT_CAP``."""
        grades = capped_power(2 * window + 1, self.rank)
        return None if grades is None else 1 + len(self._units) * grades

    def sort_key(self, x: HElement):
        if x.is_zero:
            return (0, (), 0)
        return (1, x.grade, self.residue_sort_index(x.residue))


@dataclass(frozen=True, slots=True)
class SymbolicSet:
    """A hypersum value: the top grade of its units and the residues there.

    None in ``residues`` stands for zero and, at rank > 0, for every unit
    below ``top`` too.  ``top`` is None exactly when no unit is a member:
    ``{0}``, or the empty value (no residues) that ``intersect`` makes.
    Every hypersum has this form, and these operations give equal sets
    equal values.
    """

    field: Hyperfield
    top: Grade | None
    residues: frozenset

    def __contains__(self, x: HElement) -> bool:
        top, rs = self.top, self.residues
        if x.residue is None:
            return None in rs
        if top is None or x.grade > top:
            return False
        return x.residue in rs if x.grade == top else None in rs

    @property
    def contains_zero(self) -> bool:
        return None in self.residues

    def is_singleton(self) -> bool:
        return len(self.residues) == 1 and (self.top is None or None not in self.residues)

    def the_singleton(self) -> HElement | None:
        if not self.is_singleton():
            return None
        (r,) = self.residues
        return _ZERO if r is None else HElement(r, self.top)

    def is_empty(self) -> bool:
        return not self.residues

    def has_nonzero(self) -> bool:
        return self.top is not None

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        H = self.field
        if self.top == other.top:
            return SymbolicSet(H, *_normal(H, self.top, self.residues & other.residues))
        low_first = other.top is not None and (self.top is None or self.top < other.top)
        lo, hi = (self, other) if low_first else (other, self)
        # lo lies below hi's top: inside its down-set, or apart from hi
        return lo if None in hi.residues else SymbolicSet(H, None, frozenset())

    def is_subset(self, other: "SymbolicSet") -> bool:
        return self.intersect(other) == self

    def add_element(self, x: HElement) -> "SymbolicSet":
        """Lifted hyperaddition with the singleton {x}."""
        return SymbolicSet(self.field, *add_term(self.field, self.top, self.residues, x))

    def scale_left(self, a: HElement) -> "SymbolicSet":
        return self._scaled(a, lambda x: self.field.mul(a, x))

    def scale_right(self, a: HElement) -> "SymbolicSet":
        return self._scaled(a, lambda x: self.field.mul(x, a))

    def _scaled(self, a: HElement, times) -> "SymbolicSet":
        if a.is_zero:
            raise DomainMismatchError("scaling by zero collapses the set")
        if self.top is None:
            return self
        rs = frozenset(None if r is None else times(HElement(r, self.top)).residue for r in self.residues)
        return SymbolicSet(self.field, grade_add(a.grade, self.top), rs)

    def _top_units(self) -> list[HElement]:
        key = self.field.residue_sort_index
        return [HElement(r, self.top) for r in sorted(self.residues - _ZERO_SUM, key=key)]

    def elements_within(self, window: int) -> list[HElement]:
        """All members whose grades lie in the window box, in sort order
        (exact on that box)."""
        H, top = self.field, self.top
        out = [_ZERO] if None in self.residues else []
        if top is None:
            return out
        grades = list(H.grades_box(window))
        if None in self.residues:
            out += [HElement(r, g) for g in grades if g < top for r in H.residue_units()]
        return out + self._top_units() if top in grades else out

    def __repr__(self):
        zero = [_ZERO] if None in self.residues else []
        text = "{" + ",".join(map(repr, zero + self._top_units())) + "}"
        if zero and self.field.rank and self.top is not None:
            text += f"∪(<{self.top})"
        return text


def _normal(H: Hyperfield, top: Grade | None, rs: frozenset) -> tuple:
    """``(top, rs)``, with top None when no unit is left: rs has no residue
    but None, and no down-set either (rank 0, or rs empty)."""
    return (None if rs <= _ZERO_SUM and not (H.rank and rs) else top), rs


def add_term(H: Hyperfield, top: Grade | None, residues: frozenset, x: HElement) -> tuple:
    """The ``(top, residues)`` of a ``SymbolicSet`` once the term x is added.

    A zero term changes nothing.  A term above the top grade is the new
    sum (the empty value stays empty); one at the top grade adds its
    residue to the residue hypersum (``Hyperfield.residue_hyperadd``, with
    None for zero); one below the top is absorbed.
    """
    r = x.residue
    if r is None:
        return top, residues
    if top is None or x.grade > top:
        return (x.grade, frozenset((r,))) if residues else (None, residues)
    if x.grade < top:
        return top, residues
    out = set()
    for a in residues:
        out.update((r,) if a is None else H.residue_hyperadd(a, r))
    return _normal(H, top, frozenset(out))


def composition(a: HElement, s: SymbolicSet) -> HElement:
    """``compose(a, b)`` read off the hypersum ``s = a + b``."""
    elt = s.the_singleton()
    if elt is not None:
        return elt
    # a = -b: keep a for Krasner/sign residues, collapse to 0 over a field.
    return a if a in s else s.field.zero()


# -- axiom validation ------------------------------------------------------


def check_axiom_budget(H: Hyperfield, window: int) -> int:
    """The size of the window box; ResourceLimitError if ``validate_axioms``
    would refuse it."""
    size = H.elements_box_size(window)
    if size is None or size > MAX_AXIOM_BOX:
        raise ResourceLimitError(
            f"axiom check of {H!r} at window {window} covers {count_text(size)} elements; "
            f"at most {MAX_AXIOM_BOX} are supported"
        )
    return size


def validate_axioms(H: Hyperfield, window: int = 4) -> list[dict]:
    """Check (H0)-(H2), commutativity, associativity and (R0)-(R3) on a window.

    Returns one record per violated axiom instance; an empty list means the
    window passed.  Finite hyperfields are checked in full regardless of the
    window.  Raises ResourceLimitError, before any check, when the window box
    has more than ``MAX_AXIOM_BOX`` elements (``check_axiom_budget``).

    The loops visit box elements as int codes and read every hypersum,
    product, lifted sum, membership and scaling from tables that live for
    this call, so each is computed once and the checks compare ints.  The
    codes come from a ``BoxCode`` seeded with the box.  Witnesses are the
    ``HElement``s behind the codes.
    """
    check_axiom_budget(H, window)
    elems = H.elements_box(window)
    T = BoxCode(H, elems)
    box = range(len(elems))
    zero, one = T.code(H.zero()), T.code(H.one())
    report = []

    def fail(check, **witness):
        report.append({"check": check, "witness": witness})

    pair = [[T.sum(x, y) for y in box] for x in box]
    # Nothing else is interned yet: the set with id s is pair_sums[s].
    pair_sums = list(T.sets)
    prod = [[T.mul(x, y) for y in box] for x in box]
    # lifted[s][z]: id of S + z; member[s][z]: whether z is in S
    lifted = [[T.set_id(S.add_element(z)) for z in elems] for S in pair_sums]
    member = [[z in S for z in elems] for S in pair_sums]
    units = [x for x in box if not elems[x].is_zero]
    neg_of = {}
    for x in box:
        if pair[x][zero] != T.set_id(H.hyperadd_multi([elems[x]])):
            fail("H0-zero-law", x=elems[x])
        negs = [y for y in box if member[pair[x][y]][zero]]
        if len(negs) != 1:
            fail("H1-unique-negation", x=elems[x], candidates=[elems[y] for y in negs])
        else:
            neg_of[x] = negs[0]
    for x, y in itertools.product(box, box):
        if pair_sums[pair[x][y]].is_empty():
            fail("hypersum-nonempty", x=elems[x], y=elems[y])
        if pair[x][y] != pair[y][x]:
            fail("R0-commutative", x=elems[x], y=elems[y])
    for x in box:
        lift_x = [row[x] for row in lifted]
        in_x = [row[x] for row in member]
        for y in box:
            # rows over z: (x + y) + z, (y + z) + x, x in y + z, z in -y + x
            yz, ny = pair[y], neg_of.get(y)
            left, right = lifted[pair[x][y]], [lift_x[s] for s in yz]
            forward = [in_x[s] for s in yz]
            back = forward if ny is None else member[pair[ny][x]]
            if left == right and forward == back:
                continue
            for z in box:
                if left[z] != right[z]:
                    fail("associative", x=elems[x], y=elems[y], z=elems[z])
                if forward[z] != back[z]:
                    fail("H2-reversibility", x=elems[x], y=elems[y], z=elems[z])
    for x in box:
        if prod[x][one] != x or prod[one][x] != x:
            fail("R1-identity", x=elems[x])
        if prod[zero][x] != zero or prod[x][zero] != zero:
            fail("R2-zero-absorbs", x=elems[x])
    for x in units:
        invs = [y for y in units if prod[x][y] == one and prod[y][x] == one]
        if len(invs) != 1:
            fail("R1-inverse", x=elems[x])
    mul = T.mul
    for x, y, z in itertools.product(units, units, units):
        if mul(prod[x][y], z) != mul(x, prod[y][z]):
            fail("R1-associative", x=elems[x], y=elems[y], z=elems[z])
    for a in units:
        a_s = [T.set_id(S.scale_left(elems[a])) for S in pair_sums]
        s_a = [T.set_id(S.scale_right(elems[a])) for S in pair_sums]
        a_x, x_a = prod[a], [row[a] for row in prod]
        for x, y in itertools.product(box, box):
            s = pair[x][y]
            if a_s[s] != T.sum(a_x[x], a_x[y]):
                fail("R3-left-distributive", a=elems[a], x=elems[x], y=elems[y])
            if s_a[s] != T.sum(x_a[x], x_a[y]):
                fail("R3-right-distributive", a=elems[a], x=elems[x], y=elems[y])
    return report


class BoxCode:
    """Elements coded as ints for one call, with memo tables of sums and products.

    The given ``elements`` get the codes ``0 .. n-1`` in order; any other
    element gets the next code when it is first seen, so the coder's size is
    the number of elements coded, not the size of any box.  Symbolic sets
    are interned as ids into ``sets``, so two sets are equal exactly when
    their ids are.  ``sum`` and ``mul`` compute each pair once, on first use.
    """

    def __init__(self, H: Hyperfield, elements=()):
        self.field = H
        self.elements: list[HElement] = []
        self._codes: dict[tuple, int] = {}
        self.sets: list[SymbolicSet] = []
        self._set_ids: dict[SymbolicSet, int] = {}
        self._sums: dict[tuple[int, int], int] = {}
        self._products: dict[tuple[int, int], int] = {}
        for x in elements:
            self.code(x)

    def code(self, x: HElement) -> int:
        # keyed by the fields, which hash without a call to HElement.__hash__
        key = (x.residue, x.grade)
        c = self._codes.get(key)
        if c is None:
            c = self._codes[key] = len(self.elements)
            self.elements.append(x)
        return c

    def set_id(self, s: SymbolicSet) -> int:
        i = self._set_ids.get(s)
        if i is None:
            i = self._set_ids[s] = len(self.sets)
            self.sets.append(s)
        return i

    def sum(self, x: int, y: int) -> int:
        """Set id of ``x + y``."""
        s = self._sums.get((x, y))
        if s is None:
            s = self._sums[x, y] = self.set_id(self.field.hyperadd(self.elements[x], self.elements[y]))
        return s

    def mul(self, x: int, y: int) -> int:
        """Code of ``x * y``."""
        c = self._products.get((x, y))
        if c is None:
            c = self._products[x, y] = self.code(self.field.mul(self.elements[x], self.elements[y]))
        return c


def check_stringent(H: Hyperfield, window: int = 4):
    """True iff every window pair with a != -b has a singleton hypersum."""
    elems = H.elements_box(window)
    for a in elems:
        for b in elems:
            if a.is_zero or b.is_zero or a == H.neg(b):
                continue
            if not H.hyperadd(a, b).is_singleton():
                return False, (a, b)
    return True, None
