"""Maps between hyperfields: valuation, quadratic-residue sign, explicit tables.

``validate_homomorphism`` reports every failure of f(x+y) being contained in
f(x)+f(y), of f(0)=0, f(1)=1, and of multiplicativity, on a grade window.
The valuation map and table maps built from genuine quotients pass with an
empty report; the quadratic-residue sign map is multiplicative but not a
hyperring homomorphism, and its report says so truthfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatchError, UnsupportedOperationError
from .hyperfields import HElement, Hyperfield, SymbolicSet, legendre_symbol, symset


@dataclass(frozen=True)
class Homomorphism:
    kind: str  # "valuation" | "sign" | "table"
    domain: Hyperfield
    codomain: Hyperfield
    table: tuple | None = None

    def apply(self, x: HElement) -> HElement:
        if x.is_zero:
            return self.codomain.zero()
        if self.kind == "valuation":
            return HElement(1, x.grade)
        if self.kind == "sign":
            return HElement(legendre_symbol(x.residue, self.domain.p), x.grade)
        for src, dst in self.table:
            if src == x.residue:
                return HElement(dst, x.grade)
        raise DomainMismatchError(f"no table image for {x!r}")

    def apply_set(self, s: SymbolicSet) -> SymbolicSet:
        """Image of a symbolic set; exact because the maps are onto each grade's units."""
        return symset(self.codomain, {self.apply(x) for x in s.explicit}, s.below)


def valuation_map(H: Hyperfield) -> Homomorphism:
    """Forget the residue: H -> Tropical(rank), the map behind |M|."""
    if H.kind == "quotient":
        raise UnsupportedOperationError("valuation map needs a graded catalog hyperfield")
    return Homomorphism("valuation", H, Hyperfield.tropical(H.rank))


def sign_map(H: Hyperfield) -> Homomorphism:
    """Quadratic-residue symbol on the field residue, grade preserved."""
    if H.residue_kind != "field" or H.p == 2:
        raise UnsupportedOperationError("sign map needs an odd-p field residue")
    return Homomorphism("sign", H, Hyperfield("sign", rank=H.rank))


def table_map(domain: Hyperfield, codomain: Hyperfield, mapping) -> Homomorphism:
    """Explicit residue-unit map between finite hyperfields."""
    table = tuple(sorted(mapping.items()))
    return Homomorphism("table", domain, codomain, table)


def coset_map(p: int, subgroup) -> Homomorphism:
    """The canonical map GF(p) -> GF(p)/G sending r to its coset label."""
    cod = Hyperfield.quotient(p, subgroup)
    dom = Hyperfield.field(p)
    label_of = {}
    for lab in cod.residue_units():
        for g in cod.subgroup:
            label_of[(lab * g) % p] = lab
    return table_map(dom, cod, label_of)


def validate_homomorphism(f: Homomorphism, window: int = 4) -> list[dict]:
    """Report every structure-preservation failure of f on the window."""
    H, K = f.domain, f.codomain
    report = []

    def fail(check, **witness):
        report.append({"check": check, "witness": witness})

    if f.apply(H.zero()) != K.zero():
        fail("zero-preserved")
    if f.apply(H.one()) != K.one():
        fail("one-preserved")
    elems = H.elements_box(window)
    for x in elems:
        for y in elems:
            if f.apply(H.mul(x, y)) != K.mul(f.apply(x), f.apply(y)):
                fail("multiplicative", x=x, y=y)
            image = f.apply_set(H.hyperadd(x, y))
            target = K.hyperadd(f.apply(x), f.apply(y))
            if not image.is_subset(target):
                fail("hypersum-compatible", x=x, y=y)
    return report
