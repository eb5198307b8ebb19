import itertools

import pytest

from hypermat import (
    Hyperfield,
    UnsupportedOperationError,
    coset_map,
    sign_map,
    table_map,
    validate_homomorphism,
    valuation_map,
)


def test_valuation_map_drops_residue():
    H = Hyperfield.stringent("sign", 1)
    f = valuation_map(H)
    assert f.apply(H.unit(-1, (4,))) == f.codomain.unit(1, (4,))
    assert f.apply(H.zero()) == f.codomain.zero()
    assert f.apply(H.one()) == f.codomain.one()


def test_valuation_map_is_homomorphism():
    for H in (Hyperfield.tropical(1), Hyperfield.stringent("sign", 1),
              Hyperfield.stringent("field", 1, p=3), Hyperfield.sign()):
        assert validate_homomorphism(valuation_map(H), 2) == []


def test_valuation_multiplicative_on_grades():
    H = Hyperfield.stringent("field", 1, p=5)
    f = valuation_map(H)
    for a in H.units_box(2):
        for b in H.units_box(2):
            assert f.apply(H.mul(a, b)) == f.codomain.mul(f.apply(a), f.apply(b))


def test_sign_map_values_mod7():
    H = Hyperfield.field(7)
    f = sign_map(H)
    # quadratic residues mod 7 are 1, 2, 4
    assert f.apply(H.unit(3)) == f.codomain.unit(-1)
    assert f.apply(H.unit(2)) == f.codomain.unit(1)
    assert f.apply(H.zero()) == f.codomain.zero()


def test_sign_map_is_multiplicative_but_not_additive():
    f = sign_map(Hyperfield.field(7))
    report = validate_homomorphism(f)
    assert all(r["check"] == "hypersum-compatible" for r in report)
    assert report  # 1 + 2 = 3 maps residues (+,+) to a non-residue


def test_sign_map_rejects_wrong_residue():
    with pytest.raises(UnsupportedOperationError):
        sign_map(Hyperfield.sign())
    with pytest.raises(UnsupportedOperationError):
        sign_map(Hyperfield.field(2))


def test_sign_map_on_graded_field_residue():
    H = Hyperfield.stringent("field", 1, p=7)
    f = sign_map(H)
    assert f.codomain == Hyperfield.stringent("sign", 1)
    assert f.apply(H.unit(3, (2,))) == f.codomain.unit(-1, (2,))
    assert f.apply(H.unit(4, (-1,))) == f.codomain.unit(1, (-1,))


def test_coset_map_passes_validation():
    for p, G in ((7, [1, 2, 4]), (3, [1, 2]), (5, [1, 4])):
        assert validate_homomorphism(coset_map(p, G)) == []


def test_table_map_identity_embedding():
    S = Hyperfield.sign()
    f = table_map(S, S, {1: 1, -1: -1})
    assert validate_homomorphism(f) == []


def test_sign_swap_fails_only_the_product_checks():
    S = Hyperfield.sign()
    report = validate_homomorphism(table_map(S, S, {1: -1, -1: 1}))
    assert report[0] == {"check": "one-preserved", "witness": {}}
    assert [r["check"] for r in report[1:]] == ["multiplicative"] * 4
    assert {(r["witness"]["x"], r["witness"]["y"]) for r in report[1:]} == set(
        itertools.product(S.units_box(0), repeat=2)
    )


def test_graded_sign_map_fails_only_hypersum_compatibility():
    """The graded sums go through ``apply_set`` and ``is_subset``: 1 + 2 = 3
    over GF(7) maps two residues to a non-residue at every grade."""
    H = Hyperfield.stringent("field", 1, p=7)
    report = validate_homomorphism(sign_map(H), 1)
    assert len(report) == 36
    assert {r["check"] for r in report} == {"hypersum-compatible"}
    assert {"x": H.unit(1, (-1,)), "y": H.unit(2, (-1,))} == report[0]["witness"]
