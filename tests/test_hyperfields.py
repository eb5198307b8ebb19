import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import (
    DomainMismatchError,
    HElement,
    HVector,
    Hyperfield,
    InvalidHyperfieldError,
    InvalidSubgroupError,
    ResourceLimitError,
    SymbolicSet,
    UnsupportedOperationError,
    check_stringent,
    hmatroid_from_circuits,
    hvector,
    validate_axioms,
    zero_vector,
)
from hypermat import jsonio
from hypermat.hyperfields import (
    MAX_AXIOM_BOX,
    MAX_QUOTIENT_INDEX,
    BoxCode,
    check_axiom_budget,
    is_prime,
)
from hypermat.vectorspace import _EntryTable

K = Hyperfield.krasner()
S = Hyperfield.sign()
F3 = Hyperfield.field(3)
F5 = Hyperfield.field(5)
F7 = Hyperfield.field(7)
T1 = Hyperfield.tropical(1)
SS1 = Hyperfield.stringent("sign", 1)
SF31 = Hyperfield.stringent("field", 1, p=3)


def from_tables(elements, add, mul) -> Hyperfield:
    """A finite hyperfield from explicit tables; element 0 is zero, 1 the unit.

    Every pair of units needs an entry in both tables.  Entries with a zero
    operand may be left out: they follow from x + 0 = {x} and x·0 = 0·x = 0,
    and one given otherwise is refused.
    """
    return Hyperfield("quotient", tables=(tuple(elements), add, mul))


STRINGENT_CATALOG = [K, S, Hyperfield.field(2), F3, F5, F7, T1, SS1, SF31]


def members(s, window=6):
    return set(s.elements_within(window))


# -- multiplication ----------------------------------------------------------


def test_sign_multiplication():
    m = S.neg(S.one())
    assert S.mul(m, m) == S.one()


def test_tropical_grades_add():
    a, b = T1.unit(1, (3,)), T1.unit(1, (5,))
    assert T1.mul(a, b) == T1.unit(1, (8,))


def test_zero_absorbs():
    for H in STRINGENT_CATALOG:
        for x in H.elements_box(2):
            assert H.mul(H.zero(), x) == H.zero()
            assert H.mul(x, H.zero()) == H.zero()


def test_domain_mismatch_rejected():
    # membership is checked where elements enter, not by the operations
    foreign = F3.unit(2)
    G = ("a", "b")
    with pytest.raises(DomainMismatchError):
        S.unit(2)
    with pytest.raises(DomainMismatchError):
        hvector(S, G, {"a": S.one(), "b": foreign})
    with pytest.raises(DomainMismatchError):
        hmatroid_from_circuits(S, G, [HVector(S, G, (S.one(), foreign))])
    M = hmatroid_from_circuits(S, G, [hvector(S, G, {"a": S.one(), "b": S.one()})])
    with pytest.raises(DomainMismatchError):
        M.rescale({"a": S.one(), "b": foreign})


# -- hyperaddition -----------------------------------------------------------


def test_krasner_one_plus_one():
    s = K.hyperadd(K.one(), K.one())
    assert (s.top, s.residues) == ((), frozenset({None, 1}))
    assert s.elements_within(0) == [K.zero(), K.one()]


def test_sign_sums():
    one, m = S.one(), S.neg(S.one())
    assert members(S.hyperadd(one, m)) == {S.zero(), one, m}
    assert members(S.hyperadd(one, one)) == {one}
    assert members(S.hyperadd(m, m)) == {m}


def test_tropical_max():
    a, b = T1.unit(1, (3,)), T1.unit(1, (5,))
    assert T1.hyperadd(a, b).the_singleton() == b


def test_tropical_equal_grades_downset():
    a = T1.unit(1, (3,))
    s = T1.hyperadd(a, a)
    assert s.contains_zero
    assert T1.unit(1, (1,)) in s
    assert T1.unit(1, (3,)) in s
    assert T1.unit(1, (4,)) not in s


def test_stringent_sign_cancellation():
    p2, m2 = SS1.unit(1, (2,)), SS1.unit(-1, (2,))
    s = SS1.hyperadd(p2, m2)
    assert (s.top, s.residues) == ((2,), frozenset({None, 1, -1}))
    for g in (-5, 0, 1):
        assert SS1.unit(1, (g,)) in s and SS1.unit(-1, (g,)) in s
    assert p2 in s and m2 in s
    assert SS1.unit(1, (3,)) not in s


def test_hyperadd_multi_examples():
    one, m = S.one(), S.neg(S.one())
    assert members(S.hyperadd_multi([one, one, m])) == {S.zero(), one, m}
    assert S.hyperadd_multi([one]).the_singleton() == one
    assert S.hyperadd_multi([]).the_singleton() == S.zero()
    s = SF31.hyperadd_multi([SF31.unit(1, (0,)), SF31.unit(2, (0,))])
    assert (s.top, s.residues) == ((0,), frozenset({None}))
    assert SF31.unit(2, (-1,)) in s
    assert SF31.unit(1, (0,)) not in s


def test_grade_bound_of_hypersums():
    for H in (T1, SS1, SF31):
        for a, b in itertools.product(H.units_box(2), repeat=2):
            s = H.hyperadd(a, b)
            top = max(a.grade, b.grade)
            assert s.top == top
            members = s.elements_within(3)
            assert all(x.is_zero or x.grade <= top for x in members)
            if not s.contains_zero:
                assert all(x.grade == top for x in members)


# -- negation and membership -------------------------------------------------


def test_negation_examples():
    assert K.neg(K.one()) == K.one()
    assert S.neg(S.one()) == S.unit(-1)
    assert F3.neg(F3.unit(1)) == F3.unit(2)
    for H in STRINGENT_CATALOG:
        for x in H.elements_box(2):
            assert H.neg(H.neg(x)) == x
            assert H.zero() in H.hyperadd(x, H.neg(x))


def test_membership_is_exact_on_downsets():
    a = T1.unit(1, (3,))
    s = T1.hyperadd(a, a)
    assert T1.unit(1, (-100,)) in s


# -- composition -------------------------------------------------------------


def test_compose_examples():
    assert S.compose(S.one(), S.unit(-1)) == S.one()
    assert T1.compose(T1.unit(1, (2,)), T1.unit(1, (7,))) == T1.unit(1, (7,))
    assert F5.compose(F5.unit(2), F5.unit(3)) == F5.zero()
    assert K.compose(K.one(), K.one()) == K.one()


def test_compose_member_of_hypersum_off_diagonal():
    for H in STRINGENT_CATALOG:
        for a, b in itertools.product(H.elements_box(2), repeat=2):
            if not b.is_zero and a == H.neg(b):
                continue
            assert H.compose(a, b) == H.hyperadd(a, b).the_singleton()


def test_compose_distributes_over_scaling():
    for H in (S, F5, T1, SS1, SF31):
        units = H.units_box(1)
        for a in units[:4]:
            for b, c in itertools.product(H.elements_box(1), repeat=2):
                assert H.mul(a, H.compose(b, c)) == H.compose(H.mul(a, b), H.mul(a, c))


def test_compose_requires_stringency():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    with pytest.raises(UnsupportedOperationError):
        Q.compose(Q.unit(1), Q.unit(1))


def test_str_abc_property():
    # |a| >= |b| and c in a - b forces a = c o b, except over a sign residue
    # when a = b and c = -a (then a + (-a) contains -a but (-a) o a = -a).
    for H in (S, F3, T1, SS1, SF31):
        for a, b in itertools.product(H.elements_box(2), repeat=2):
            if not b.is_zero and (a.is_zero or (H.rank and a.grade < b.grade)):
                continue
            s = H.hyperadd(a, H.neg(b))
            for c in s.elements_within(3):
                if H.residue_kind == "sign" and a == b and c == H.neg(a):
                    continue
                assert H.compose(c, b) == a


def test_str_abc_boundary_case_over_signs():
    one, m = S.one(), S.neg(S.one())
    assert m in S.hyperadd(one, m)
    assert S.compose(m, one) == m != one


def test_multi_sum_singleton_unless_zero():
    for H in (S, F3, T1, SS1):
        elems = H.elements_box(1)
        for xs in itertools.product(elems, repeat=3):
            s = H.hyperadd_multi(xs)
            assert s.is_singleton() or s.contains_zero


# -- axiom validation --------------------------------------------------------


def test_catalog_passes_axioms():
    for H in STRINGENT_CATALOG:
        assert validate_axioms(H, 2) == []


def test_quotient_gf7_passes_axioms():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    assert validate_axioms(Q) == []


def test_corrupted_table_reports_empty_hypersum():
    elements = (0, 1)
    add = {
        (0, 0): {0}, (0, 1): {1}, (1, 0): {1},
        (1, 1): frozenset(),
    }
    mul = {(a, b): a * b for a in elements for b in elements}
    with pytest.raises(InvalidHyperfieldError) as exc:
        from_tables(elements, add, mul)
    assert any(r["check"] == "hypersum-nonempty" for r in exc.value.violations)


def test_negatives_ignore_table_entries_with_a_zero_operand():
    # GF(3)'s tables with a stray 0 in 1 + 0: the zero law fixes that
    # entry, so it is refused by name; without it each unit has one negative
    elements, add, mul = _gf3_tables()
    add[1, 0] = {0, 1}
    with pytest.raises(InvalidHyperfieldError, match=r"^table entry 1 \+ 0 breaks x \+ 0 = 0 \+ x = \{x\}$"):
        from_tables(elements, add, mul)
    del add[1, 0]
    H = from_tables(elements, add, mul)
    assert H.neg(H.unit(1)) == H.unit(2)
    assert H.neg(H.unit(2)) == H.unit(1)


@pytest.mark.parametrize("op, law", [("+", r"x \+ 0 = 0 \+ x = \{x\}"), ("*", r"x \* 0 = 0 \* x = 0")])
def test_tables_refuse_a_zero_operand_entry_that_breaks_the_zero_law(op, law):
    # Krasner's tables with 0 + 1 = {0}, or with 0 * 1 = 1: neither entry
    # is read by an operation, so construction is where they are refused
    elements = (0, 1)
    add = {(a, b): {a or b} for a in elements for b in elements}
    add[1, 1] = {0, 1}
    mul = {(a, b): a * b for a in elements for b in elements}
    if op == "+":
        add[0, 1] = {0}
    else:
        mul[0, 1] = 1
    with pytest.raises(InvalidHyperfieldError, match=rf"^table entry 0 \{op} 1 breaks {law}$"):
        from_tables(elements, add, mul)


def test_tables_with_and_without_zero_rows_build_equal_hyperfields():
    elements, add, mul = _gf3_tables()
    H = from_tables(elements, add, mul)
    bare = from_tables(elements, *({k: v for k, v in t.items() if 0 not in k} for t in (add, mul)))
    assert H == bare and hash(H) == hash(bare)
    # the sign hyperfield on the same labels (2 is -1) is another hyperfield
    sign_add = {**add, (1, 1): {1}, (2, 2): {2}, (1, 2): {0, 1, 2}, (2, 1): {0, 1, 2}}
    assert from_tables(elements, sign_add, mul) != H


def _gf3_tables():
    elements = (0, 1, 2)
    add = {(a, b): {(a + b) % 3} for a in elements for b in elements}
    mul = {(a, b): a * b % 3 for a in elements for b in elements}
    return elements, add, mul


@pytest.mark.parametrize("op", ["+", "*"])
def test_tables_need_an_entry_for_every_pair_of_units(op):
    elements, add, mul = _gf3_tables()
    del (add if op == "+" else mul)[1, 1]
    with pytest.raises(InvalidHyperfieldError, match=rf"no table entry for 1 \{op} 1"):
        from_tables(elements, add, mul)


def test_tables_refuse_an_entry_for_a_label_outside_the_elements():
    elements, add, mul = _gf3_tables()
    add[5, 1] = {1}
    with pytest.raises(InvalidHyperfieldError, match=r"5 \+ 1"):
        from_tables(elements, add, mul)


def test_tables_whose_least_unit_label_is_not_one():
    # the sign hyperfield with labels -1, 0, 1: the unit is 1, not the least label -1
    elements = (-1, 0, 1)
    add = {(a, b): {a or b} for a in elements for b in elements}
    add[1, -1] = add[-1, 1] = set(elements)
    mul = {(a, b): a * b for a in elements for b in elements}
    H = from_tables(elements, add, mul)
    assert validate_axioms(H) == []
    assert H.one() == HElement(1)
    assert H.is_stringent


@pytest.mark.axiom_budget
def test_axiom_check_refuses_a_box_over_the_budget(deadline):
    with deadline(10), pytest.raises(ResourceLimitError):
        validate_axioms(Hyperfield.field(10007))
    # the bound sits between two tropical windows: 64 elements pass, 66 do not
    assert check_axiom_budget(T1, 31) == MAX_AXIOM_BOX
    with pytest.raises(ResourceLimitError):
        check_axiom_budget(T1, 32)


def test_axiom_budget_admits_the_boxes_in_use():
    # the 19-element boxes of the battery at window 4, and the largest quotient
    assert check_axiom_budget(SS1, 4) == check_axiom_budget(SF31, 4) == 19
    assert MAX_QUOTIENT_INDEX + 1 <= MAX_AXIOM_BOX


CODED_FIELDS = [T1, Hyperfield.stringent("sign", 2), SF31, Hyperfield.quotient(7, [1, 2, 4])]


@pytest.mark.parametrize("H", CODED_FIELDS, ids=repr)
def test_box_code(H):
    box = H.elements_box(1)
    T = BoxCode(H, box)
    assert T.elements == box
    for x in H.elements_box(2):
        assert T.elements[T.code(x)] == x
    assert T.elements[:len(box)] == box
    n = len(T.elements)
    if H.rank:
        outside = HElement(1, (7,) * H.rank)
        assert T.code(outside) == n and T.code(outside) == n
    codes = range(len(box))
    for x, y in itertools.product(codes, codes):
        assert T.sets[T.sum(x, y)] == H.hyperadd(box[x], box[y])
        assert T.elements[T.mul(x, y)] == H.mul(box[x], box[y])
        assert T.sum(x, y) == T.set_id(H.hyperadd(box[x], box[y]))


def test_box_code_holds_only_the_elements_it_meets():
    H = Hyperfield.stringent("field", 1, p=1_000_003)
    assert H.elements_box_size(4) == 9_000_019
    T = BoxCode(H, [H.zero(), H.one()])
    x = T.code(H.unit(2, (1,)))
    assert T.mul(1, x) == T.mul(x, 1) == x
    assert T.sets[T.sum(0, x)] == SymbolicSet(H, (1,), frozenset({2}))
    assert len(T.elements) == 3


@pytest.mark.parametrize("H", CODED_FIELDS, ids=repr)
def test_entry_table_flags_the_window_box(H):
    """The vector-axiom table flags each code in or out of its window box,
    products included, and holds one flag per element it meets."""
    box = H.elements_box(1)
    T = _EntryTable([zero_vector(H, ("1",))], 1)
    for x in H.elements_box(2):
        assert T.in_box[T.code(x)] == (x in box)
    if H.rank:
        n = len(T.elements)
        outside = HElement(1, (7,) * H.rank)
        assert T.code(outside) == n and not T.in_box[n]
        assert T.in_box[T.mul(n, T.code(H.one()))] is False
    assert len(T.in_box) == len(T.elements)


def test_check_stringent_catalog():
    for H in STRINGENT_CATALOG:
        ok, witness = check_stringent(H, 2)
        assert ok and witness is None


def test_check_stringent_quotient_witness():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    ok, witness = check_stringent(Q)
    assert not ok
    assert witness == (Q.unit(1), Q.unit(1))
    assert members(Q.hyperadd(*witness)) == {Q.unit(1), Q.unit(3)}


# -- quotient construction ---------------------------------------------------


def test_quotient_trivial_subgroup_is_field():
    Q = Hyperfield.quotient(3, [1])
    for a, b in itertools.product(Q.elements_box(0), repeat=2):
        assert Q.hyperadd(a, b).is_singleton()
    # the table is GF(3) itself: 1+1=2, 1+2=0
    assert Q.hyperadd(Q.unit(1), Q.unit(1)).the_singleton() == Q.unit(2)
    assert Q.hyperadd(Q.unit(1), Q.unit(2)).the_singleton() == Q.zero()


def test_quotient_full_group_is_krasner():
    Q = Hyperfield.quotient(3, [1, 2])
    one = Q.unit(1)
    assert members(Q.hyperadd(one, one)) == {Q.zero(), one}


def test_quotient_refuses_large_index_before_building_cosets():
    t0 = time.perf_counter()
    with pytest.raises(InvalidSubgroupError):
        Hyperfield.quotient(10**12 + 39, [1])
    assert time.perf_counter() - t0 < 1.0
    # GF(67) by {1, -1}: one coset more than the bound
    assert (67 - 1) // 2 == MAX_QUOTIENT_INDEX + 1
    with pytest.raises(InvalidSubgroupError):
        Hyperfield.quotient(67, [1, 66])


def test_quotient_rejects_non_subgroup():
    with pytest.raises(InvalidSubgroupError):
        Hyperfield.quotient(7, [1, 2])
    with pytest.raises(InvalidSubgroupError):
        Hyperfield.quotient(7, [2, 4])


# -- moduli and parameters ---------------------------------------------------


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if _trial_division(n)]


def test_is_prime_on_pseudoprimes_and_large_primes():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert is_prime(2**61 - 1)
    assert is_prime(10**12 + 39)
    assert not is_prime(2**64 - 1)


@pytest.mark.parametrize("build", [
    lambda: Hyperfield.field(2**64 + 13),
    lambda: Hyperfield.stringent("field", 1, p=2**64 + 13),
    lambda: Hyperfield.quotient(2**64 + 13, [1]),
    lambda: Hyperfield.field(7.0),
    lambda: Hyperfield.field(True),
    lambda: Hyperfield.stringent("field", 1, p=7.0),
    lambda: Hyperfield.quotient(7.0, [1, 2, 4]),
    lambda: Hyperfield.tropical(1.5),
    lambda: Hyperfield.tropical(True),
    lambda: Hyperfield.stringent("sign", rank=1.0),
])
def test_modulus_and_rank_must_be_small_exact_integers(build):
    with pytest.raises(InvalidHyperfieldError):
        build()


@pytest.mark.parametrize("residue, p, rank", [
    ("stringent", 4, 1),  # kinds are not residues
    ("stringent", 2**70, 1),
    ("tropical", 5, 1),
    ("stringent", None, 1),
    ("field", 4, 1),  # a "field residue" over Z/4
    ("field", 2**70, 1),  # beyond the 2**64 modulus bound
    ("krasner", 5, 1),  # used to print as tropical(1) yet differ from it
    ("sign", 5, 1),  # used to print as stringent(sign,rank=1) yet differ from it
])
def test_constructor_refuses_malformed_parameters(residue, p, rank):
    with pytest.raises(InvalidHyperfieldError):
        Hyperfield(residue, p=p, rank=rank)


@pytest.mark.parametrize("build", [
    lambda: Hyperfield.stringent("sign", 1, p=5),  # used to drop the modulus
    lambda: Hyperfield.stringent("krasner", 1, p=5),  # used to drop the modulus
    lambda: Hyperfield.stringent("field", 1),  # used to be refused as "modulus 0"
])
def test_a_modulus_goes_with_a_field_residue_alone(build):
    with pytest.raises(InvalidHyperfieldError, match="residue (needs a prime|takes no) modulus"):
        build()


@pytest.mark.parametrize("residue, p, rank, spelling, printed", [
    ("krasner", None, 0, lambda: Hyperfield.krasner(), "Hyperfield.krasner()"),
    ("krasner", None, 1, lambda: Hyperfield.tropical(1), "Hyperfield.tropical(1)"),
    ("krasner", None, 2, lambda: Hyperfield.tropical(2), "Hyperfield.tropical(2)"),
    ("sign", None, 0, lambda: Hyperfield.sign(), "Hyperfield.sign()"),
    ("sign", None, 1, lambda: Hyperfield.stringent("sign", 1), "Hyperfield.stringent(sign,rank=1)"),
    ("sign", None, 2, lambda: Hyperfield.stringent("sign", 2), "Hyperfield.stringent(sign,rank=2)"),
    ("field", 3, 0, lambda: Hyperfield.field(3), "Hyperfield.field(3)"),
    ("field", 3, 1, lambda: Hyperfield.stringent("field", 1, p=3), "Hyperfield.stringent(field,p=3,rank=1)"),
    ("field", 3, 2, lambda: Hyperfield.stringent("field", 2, p=3), "Hyperfield.stringent(field,p=3,rank=2)"),
])
def test_a_hyperfield_is_named_by_its_residue_and_rank(residue, p, rank, spelling, printed):
    H = Hyperfield(residue, p, rank)
    assert H == spelling() == Hyperfield.stringent(residue, rank, p)
    assert repr(H) == printed
    assert jsonio.hyperfield_from_json(jsonio.hyperfield_to_json(H)) == H
    assert H.residue_field() == Hyperfield(residue, p)


def test_a_quotient_is_named_by_its_tables():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    assert (Q.kind, Q.residue_kind, Q.rank) == ("quotient", "quotient", 0)
    assert repr(Q) == "Hyperfield.quotient(7,[1, 2, 4])"
    assert jsonio.hyperfield_from_json(jsonio.hyperfield_to_json(Q)) == Q
    assert Q.residue_field() is Q


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_stringent_field_residue_needs_a_modulus(rank):
    with pytest.raises(InvalidHyperfieldError):
        Hyperfield.stringent("field", rank)


def test_bool_and_float_residues_are_not_elements():
    for H in STRINGENT_CATALOG + [Hyperfield.quotient(7, [1, 2, 4])]:
        grade = (0,) * H.rank
        assert H.is_element(HElement(1, grade))
        assert not H.is_element(HElement(True, grade))
        assert not H.is_element(HElement(1.0, grade))


def test_bool_and_float_grades_are_not_elements():
    for H in (T1, SS1, SF31):
        assert not H.is_element(HElement(1, (0.5,)))
        assert not H.is_element(HElement(1, (True,)))
        with pytest.raises(DomainMismatchError):
            H.unit(1, (1.0,))


# -- large moduli ------------------------------------------------------------

BIG = 2**31 - 1  # a Mersenne prime


def test_large_modulus_ops_do_not_scale_with_p():
    F = Hyperfield.field(BIG)
    a, b = F.unit(3), F.unit(BIG - 3)
    t0 = time.perf_counter()
    for _ in range(100):
        assert F.mul(a, a) == F.unit(9)
        assert F.mul(a, b) == F.unit(BIG - 9)
        assert F.mul(a, F.inv(a)) == F.one()
        assert F.neg(a) == b
        assert F.hyperadd(a, a).the_singleton() == F.unit(6)
        assert F.hyperadd(a, b).the_singleton() == F.zero()
        assert F.compose(a, F.unit(BIG - 1)) == F.unit(2)
        assert F.compose(a, b) == F.zero()
        assert F.sort_key(b) == (1, (), BIG - 4)
        for r in (0, BIG, -1, True, 1.5):
            assert not F.is_element(HElement(r))
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(DomainMismatchError):
        F.unit(BIG)


def test_sort_indices_and_tables_match_linear_scans():
    Q = Hyperfield.quotient(7, [1, 2, 4])
    old_units = {S: (1, -1), F3: (1, 2), Q: (1, 3), T1: (1,)}
    for H, units in old_units.items():
        assert tuple(H.residue_units()) == units
        for r in units:
            assert H.residue_sort_index(r) == units.index(r)
    # each table is kept once, with an entry for every pair of elements
    pairs = set(itertools.product(Q._elements, repeat=2))
    assert set(Q._add_table) == set(Q._mul_table) == pairs
    elements, add, mul = Q._elements, dict(Q._add_table), Q._mul_table
    del add[1, 3]
    with pytest.raises(InvalidHyperfieldError, match=r"no table entry for 1 \+ 3"):
        from_tables(elements, add, mul)


# -- symbolic sets -----------------------------------------------------------


def test_symbolic_set_normalization():
    low, top = T1.unit(1, (-2,)), T1.unit(1, (0,))
    s = T1.hyperadd(top, top).add_element(low)
    assert (s.top, s.residues) == ((0,), frozenset({None, 1}))
    assert s == T1.hyperadd(top, top)
    assert low in s


def test_symbolic_intersection():
    a = T1.unit(1, (3,))
    b = T1.unit(1, (5,))
    s1 = T1.hyperadd(a, a)
    s2 = T1.hyperadd(b, b)
    inter = s1.intersect(s2)
    assert inter == s1 and (inter.top, inter.residues) == ((3,), frozenset({None, 1}))
    assert a in inter and b not in inter


def test_symbolic_set_equality_is_normal_form():
    top = T1.unit(1, (2,))
    assert T1.hyperadd(top, top).add_element(T1.unit(1, (1,))) == T1.hyperadd(top, top)
    F5 = Hyperfield.field(5)
    assert F5.hyperadd(F5.unit(2), F5.unit(3)) == F5.hyperadd(F5.zero(), F5.zero())


def test_symbolic_set_repr():
    top = T1.unit(1, (2,))
    assert repr(T1.hyperadd(top, top)) == "{0,u(1,2)}∪(<(2,))"
    assert repr(SF31.hyperadd(SF31.unit(1, (0,)), SF31.unit(2, (0,)))) == "{0}∪(<(0,))"
    assert repr(S.hyperadd(S.one(), S.neg(S.one()))) == "{0,u(1),u(-1)}"
    assert repr(T1.hyperadd(top, T1.zero())) == "{u(1,2)}"
    assert repr(S.hyperadd(S.zero(), S.zero())) == "{0}"
    p, q = SS1.unit(1, (2,)), SS1.unit(1, (3,))
    assert repr(SS1.hyperadd(p, p).intersect(SS1.hyperadd(q, q))) == "{}"


elements_strategy = st.sampled_from(SS1.elements_box(3))


@settings(max_examples=200, deadline=None)
@given(elements_strategy, elements_strategy, elements_strategy)
def test_hyperadd_associative_random(x, y, z):
    left = SS1.hyperadd(x, y).add_element(z)
    right = SS1.hyperadd(y, z).add_element(x)
    assert left == right


@settings(max_examples=200, deadline=None)
@given(st.lists(elements_strategy, min_size=0, max_size=5), st.randoms())
def test_hyperadd_multi_order_invariant(xs, rng):
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert SS1.hyperadd_multi(xs) == SS1.hyperadd_multi(shuffled)


@settings(max_examples=200, deadline=None)
@given(elements_strategy, elements_strategy, elements_strategy)
def test_reversibility_random(x, y, z):
    assert (x in SS1.hyperadd(y, z)) == (z in SS1.hyperadd(SS1.neg(y), x))
