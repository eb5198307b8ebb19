"""Cross-validate the symbolic-set algebra against naive windowed folding.

The oracle represents hypersums as plain element sets enumerated inside a
wide margin box; queries are then compared inside a narrow box, where the
truncation cannot lose members.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from hypermat import Hyperfield, symset

SS1 = Hyperfield.stringent("sign", 1)
SF31 = Hyperfield.stringent("field", 1, p=3)
T1 = Hyperfield.tropical(1)

MARGIN = 6
QUERY = 2


def naive_fold(H, xs, margin=MARGIN):
    acc = {H.zero()}
    for x in xs:
        out = set()
        for a in acc:
            out.update(H.hyperadd(a, x).elements_within(margin))
        acc = out
    return acc


def in_query_box(H, members):
    return {
        x for x in members
        if x.is_zero or all(-QUERY <= c <= QUERY for c in x.grade)
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
    for x in (b, SS1.neg(b), a, SS1.unit(1, (3,)), SS1.zero()):
        combined = S.add_element(x)
        oracle = set()
        for s in S.elements_within(MARGIN):
            oracle.update(SS1.hyperadd(s, x).elements_within(MARGIN))
        assert in_query_box(SS1, combined.elements_within(QUERY)) == in_query_box(SS1, oracle)


def test_downset_absorption_rules():
    g2 = symset(T1, [T1.zero()], below=(2,))
    assert g2.add_element(T1.zero()) == g2
    high = T1.unit(1, (5,))
    assert g2.add_element(high) == symset(T1, [high])
    merged = g2.add_element(T1.unit(1, (-1,)))
    assert merged == g2 and merged.contains_zero
    top = T1.unit(1, (2,))
    both = T1.hyperadd(top, top).add_element(T1.unit(1, (0,)))
    assert both.below == (2,) and both.contains_zero and top in both


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
