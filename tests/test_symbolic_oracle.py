"""Cross-validate the symbolic-set algebra against naive windowed folding.

The oracle represents hypersums as plain element sets enumerated inside a
wide margin box.  It builds a two-element sum from the residue hypersum
alone (``pair_members``) and folds longer sums one term at a time, so it
shares no code with ``add_term``.  Queries are then compared inside a
narrow box, where the truncation cannot lose members.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import HElement, Hyperfield

SS1 = Hyperfield.stringent("sign", 1)
SF31 = Hyperfield.stringent("field", 1, p=3)
T1 = Hyperfield.tropical(1)

MARGIN = 6
QUERY = 2


def pair_members(H, a, x, margin=MARGIN):
    """a + x as an element set in the margin box: the higher grade wins, and
    at equal grades the residue hypersum, where 0 brings every lower unit."""
    if a.is_zero or x.is_zero or a.grade != x.grade:
        return {max(a, x, key=lambda y: (not y.is_zero, y.grade))}
    rs = H.residue_hyperadd(a.residue, x.residue)
    out = {HElement(t, a.grade) for t in rs if t is not None}
    if None in rs:
        out |= {y for y in H.elements_box(margin) if y.is_zero or y.grade < a.grade}
    return out


def naive_add(H, acc, x, margin=MARGIN):
    """The element set acc + x: the union of a + x over a in acc."""
    return set().union(*(pair_members(H, a, x, margin) for a in acc))


def naive_fold(H, xs, margin=MARGIN):
    acc = {H.zero()}
    for x in xs:
        acc = naive_add(H, acc, x, margin)
    return acc


def in_query_box(H, members, query=QUERY):
    return {
        x for x in members
        if x.is_zero or all(-query <= c <= query for c in x.grade)
    }


def check_multi_against_oracle(H, xs):
    sym = H.hyperadd_multi(xs)
    got = in_query_box(H, sym.elements_within(QUERY))
    want = in_query_box(H, naive_fold(H, xs))
    assert got == want, (xs, sorted(map(repr, got)), sorted(map(repr, want)))


def test_multi_oracle_exhaustive_pairs():
    for H in (T1, SS1, SF31):
        elems = H.elements_box(1)
        for xs in itertools.product(elems, repeat=2):
            check_multi_against_oracle(H, xs)


def test_multi_oracle_triples_sampled():
    for H in (SS1, SF31):
        elems = H.elements_box(1)
        for i, xs in enumerate(itertools.product(elems, repeat=3)):
            if i % 7 == 0:  # deterministic thinning; full set is covered pairwise
                check_multi_against_oracle(H, xs)


def test_lifted_add_matches_elementwise_fold():
    a = SS1.unit(1, (2,))
    b = SS1.unit(-1, (1,))
    S = SS1.hyperadd(a, SS1.neg(a))  # {0, a, -a} with a down-set
    members = pair_members(SS1, a, SS1.neg(a))
    for x in (b, SS1.neg(b), a, SS1.unit(1, (3,)), SS1.zero()):
        combined = S.add_element(x)
        oracle = naive_add(SS1, members, x)
        assert in_query_box(SS1, combined.elements_within(QUERY)) == in_query_box(SS1, oracle)


def test_downset_absorption_rules():
    top = T1.unit(1, (2,))
    g2 = T1.hyperadd(top, top)  # 0, top and every unit below it
    assert g2.add_element(T1.zero()) == g2
    high = T1.unit(1, (5,))
    assert g2.add_element(high) == T1.hyperadd(high, T1.zero())
    merged = g2.add_element(T1.unit(1, (-1,)))
    assert merged == g2 and merged.contains_zero
    both = g2.add_element(T1.unit(1, (0,)))
    assert (both.top, both.residues) == ((2,), frozenset({None, 1}))
    assert both.contains_zero and top in both


def box_values(H, margin=MARGIN):
    """Every pair sum of the window-1 box, and every intersection of two of
    them, with the member set of each in the margin box."""
    model = {}

    def put(value, members):
        # equal values must have equal member sets
        assert model.setdefault(value, members) == members, value

    for a, b in itertools.product(H.elements_box(1), repeat=2):
        put(H.hyperadd(a, b), frozenset(pair_members(H, a, b, margin)))
    sums = list(model.items())
    for (s, ms), (t, mt) in itertools.product(sums, repeat=2):
        put(s.intersect(t), ms & mt)
    return model


BOX_FIELDS = {
    "tropical1": lambda: T1,
    "stringent-sign-1": lambda: SS1,
    "stringent-gf3-1": lambda: SF31,
    # built in the test: a broken sum fails its axiom check, not collection
    "gf7q124": lambda: Hyperfield.quotient(7, [1, 2, 4]),
}


@pytest.mark.parametrize("name", BOX_FIELDS)
def test_box_sum_queries_match_member_sets(name):
    H = BOX_FIELDS[name]()
    model = box_values(H)
    margin = H.elements_box(MARGIN)
    query = H.elements_box(QUERY)
    assert any(v.is_empty() for v in model)
    for v, members in model.items():
        assert {z for z in margin if z in v} == members, v
        assert set(v.elements_within(QUERY)) == in_query_box(H, members), v
        assert v.contains_zero == (H.zero() in members)
        assert v.is_empty() == (not members)
    # canonical form: equal member sets exactly when the values are equal
    assert len(set(model.values())) == len(model)
    values = list(model.items())
    for (s, ms), (t, mt) in itertools.product(values, repeat=2):
        assert {z for z in margin if z in s.intersect(t)} == ms & mt, (s, t)
        assert s.is_subset(t) == (ms <= mt), (s, t)
    for c in H.units_box(1):
        for v, members in values:
            left, right = v.scale_left(c), v.scale_right(c)
            assert {z for z in query if z in left} == in_query_box(H, {H.mul(c, m) for m in members})
            assert {z for z in query if z in right} == in_query_box(H, {H.mul(m, c) for m in members})


def test_twisted_scaling_matches_member_sets():
    from test_skew_products import Twisted

    for H in (Twisted(), Twisted(swap=True)):
        query = H.elements_box(1)
        for v, members in box_values(H, margin=3).items():
            for c in H.units_box(1):
                left, right = v.scale_left(c), v.scale_right(c)
                want_left = in_query_box(H, {H.mul(c, m) for m in members}, 1)
                want_right = in_query_box(H, {H.mul(m, c) for m in members}, 1)
                assert {z for z in query if z in left} == want_left, (v, c)
                assert {z for z in query if z in right} == want_right, (v, c)


elements = st.sampled_from(SF31.elements_box(2))


@settings(max_examples=150, deadline=None)
@given(elements, elements, elements, elements)
def test_lifted_add_associative_random(a, b, c, d):
    S = SF31.hyperadd(a, b)
    assert S.add_element(c).add_element(d) == SF31.hyperadd(c, d).add_element(a).add_element(b)
    assert SF31.hyperadd_multi([a, b, c, d]) == SF31.hyperadd_multi([d, a, c, b])


@settings(max_examples=150, deadline=None)
@given(elements, elements, elements)
def test_scaling_distributes_over_lifted_add(a, b, c):
    if c.is_zero:
        return
    S = SF31.hyperadd(a, b)
    left = S.scale_left(c)
    direct = SF31.hyperadd(SF31.mul(c, a), SF31.mul(c, b))
    assert left == direct
