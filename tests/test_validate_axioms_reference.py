"""The table-driven hyperfield axiom checker against the one it replaced.

``reference_validate_axioms`` is the earlier ``validate_axioms``, kept
verbatim as a test-only oracle: it recomputes every hypersum, product,
lifted sum and scaling for each triple it visits.  The new checker must
return the same report list, witnesses and order included, on the C1
catalog, on rank-2 hyperfields, on quotients of GF(p) and on seeded
corrupted tables that violate several different axioms.
"""

import itertools
import random

import pytest

from hypermat import Hyperfield, InvalidHyperfieldError, SymbolicSet, validate_axioms
from hypermat import hyperfields

from test_hyperfields import from_tables


def singleton(H: Hyperfield, x) -> SymbolicSet:
    """The value of the set {x}."""
    if x.is_zero:
        return SymbolicSet(H, None, frozenset({None}))
    return SymbolicSet(H, x.grade, frozenset({x.residue}))


def reference_validate_axioms(H: Hyperfield, window: int = 4) -> list[dict]:
    """Check (H0)-(H2), commutativity, associativity and (R0)-(R3) on a window.

    Returns one record per violated axiom instance; an empty list means the
    window passed.  Finite hyperfields are checked in full regardless of the
    window.
    """
    elems = H.elements_box(window)
    zero, one = H.zero(), H.one()
    report = []

    def fail(check, **witness):
        report.append({"check": check, "witness": witness})

    units = [x for x in elems if not x.is_zero]
    neg_of = {}
    for x in elems:
        if H.hyperadd(x, zero) != singleton(H, x):
            fail("H0-zero-law", x=x)
        negs = [y for y in elems if zero in H.hyperadd(x, y)]
        if len(negs) != 1:
            fail("H1-unique-negation", x=x, candidates=negs)
        else:
            neg_of[x] = negs[0]
    for x, y in itertools.product(elems, elems):
        s = H.hyperadd(x, y)
        if s.is_empty():
            fail("hypersum-nonempty", x=x, y=y)
        if s != H.hyperadd(y, x):
            fail("R0-commutative", x=x, y=y)
    for x, y, z in itertools.product(elems, elems, elems):
        left = H.hyperadd(x, y).add_element(z)
        right = H.hyperadd(y, z).add_element(x)
        if left != right:
            fail("associative", x=x, y=y, z=z)
        if y in neg_of and (x in H.hyperadd(y, z)) != (z in H.hyperadd(neg_of[y], x)):
            fail("H2-reversibility", x=x, y=y, z=z)
    for x in elems:
        if H.mul(x, one) != x or H.mul(one, x) != x:
            fail("R1-identity", x=x)
        if H.mul(zero, x) != zero or H.mul(x, zero) != zero:
            fail("R2-zero-absorbs", x=x)
    for x in units:
        invs = [y for y in units if H.mul(x, y) == one and H.mul(y, x) == one]
        if len(invs) != 1:
            fail("R1-inverse", x=x)
    for x, y, z in itertools.product(units, units, units):
        if H.mul(H.mul(x, y), z) != H.mul(x, H.mul(y, z)):
            fail("R1-associative", x=x, y=y, z=z)
    for a, x, y in itertools.product(units, elems, elems):
        s = H.hyperadd(x, y)
        if s.scale_left(a) != H.hyperadd(H.mul(a, x), H.mul(a, y)):
            fail("R3-left-distributive", a=a, x=x, y=y)
        if s.scale_right(a) != H.hyperadd(H.mul(x, a), H.mul(y, a)):
            fail("R3-right-distributive", a=a, x=x, y=y)
    return report


# The hyperfields criterion C1 checks, in its order.
C1_CATALOG = [
    Hyperfield.krasner(),
    Hyperfield.sign(),
    Hyperfield.field(2),
    Hyperfield.field(3),
    Hyperfield.field(5),
    Hyperfield.field(7),
    Hyperfield.tropical(1),
    Hyperfield.stringent("sign", 1),
    Hyperfield.stringent("field", 1, p=3),
    Hyperfield.quotient(7, [1, 2, 4]),
]

QUOTIENTS = [(2, [1]), (3, [1, 2]), (5, [1]), (5, [1, 4]), (7, [1, 6]), (11, [1, 10]), (13, [1, 3, 9])]


def _assert_same_report(H, window):
    got = validate_axioms(H, window)
    assert got == reference_validate_axioms(H, window)
    return got


@pytest.mark.parametrize("window", range(5))
def test_same_reports_on_c1_catalog(window):
    for H in C1_CATALOG:
        assert _assert_same_report(H, window) == []


@pytest.mark.parametrize("H", [Hyperfield.tropical(2), Hyperfield.stringent("sign", 2)], ids=repr)
def test_same_reports_at_rank_2(H):
    assert _assert_same_report(H, 1) == []


@pytest.mark.parametrize("p, subgroup", QUOTIENTS)
def test_same_reports_on_quotients(p, subgroup):
    assert _assert_same_report(Hyperfield.quotient(p, subgroup), 0) == []


def _tables(H):
    return H._elements, H._add_table, H._mul_table


def _corrupted(elements, add, mul, rng, edits):
    """Copies of the tables with ``edits`` random entries replaced."""
    add, mul = dict(add), dict(mul)
    units = [e for e in elements if e != 0]
    for _ in range(edits):
        if rng.random() < 0.6:
            key = rng.choice(sorted(add))
            add[key] = frozenset(e for e in elements if rng.random() < 0.4)
        else:
            key = (rng.choice(units), rng.choice(units))
            mul[key] = rng.choice(elements)
    return add, mul


def _unchecked(monkeypatch, elements, add, mul):
    """``from_tables`` with its construction-time validation off."""
    with monkeypatch.context() as m:
        m.setattr(hyperfields, "validate_axioms", lambda H, window=4: [])
        return from_tables(elements, add, mul)


@pytest.mark.parametrize("p, subgroup", [(7, [1, 2, 4]), (5, [1]), (7, [1, 6])])
def test_same_reports_on_corrupted_tables(monkeypatch, p, subgroup):
    elements, add, mul = _tables(Hyperfield.quotient(p, subgroup))
    rng = random.Random(f"axioms-{p}-{subgroup}")
    checks = set()
    for _ in range(12):
        bad_add, bad_mul = _corrupted(elements, add, mul, rng, rng.randint(1, 3))
        # an entry with a zero operand that breaks x + 0 = {x} is refused
        # by name before any axiom is checked: the first one in table order
        broken = [(a, b) for (a, b), v in bad_add.items() if 0 in (a, b) and v != {a or b}]
        if broken:
            a, b = broken[0]
            with pytest.raises(InvalidHyperfieldError, match=rf"^table entry {a} \+ {b} breaks"):
                from_tables(elements, bad_add, bad_mul)
            continue
        H = _unchecked(monkeypatch, elements, bad_add, bad_mul)
        report = _assert_same_report(H, 0)
        checks.update(r["check"] for r in report)
        if report:
            # construction reports the same list through the error
            with pytest.raises(InvalidHyperfieldError) as exc:
                from_tables(elements, bad_add, bad_mul)
            assert exc.value.violations == report
    # the edits reach most of the axioms, not one of them over and over
    assert len(checks) >= 8, checks
