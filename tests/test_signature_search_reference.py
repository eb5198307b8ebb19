"""The pruned signature search against the brute force it replaced.

``reference_all_signatures`` is the earlier ``instances.all_signatures``,
kept verbatim as a test-only oracle: it builds an ``HMatroid`` for every
candidate assignment of normalized circuit representatives and keeps the
ones that construction accepts.  The depth-first search that replaced it
drops a subtree as soon as a modular pair fails (C3), so it must return the
same list, in the same order, with the same circuits and cocircuits.
"""

import itertools

import pytest

import hypermat.instances as instances
from hypermat import HElement, HMatroid, Hyperfield, hmatroid_from_circuits, hvector
from hypermat.acceptance import AcceptanceContext
from hypermat.errors import HypermatError
from hypermat.instances import all_signatures, perfection_family_matroids, u24
from hypermat.matroids import ClassicalMatroid


def reference_all_signatures(field: Hyperfield, matroid: ClassicalMatroid) -> list[HMatroid]:
    """Every circuit signature of the matroid over the field that is a matroid.

    Normalized representatives fix the first support entry to 1, so each
    class contributes |units|^(|support|-1) candidate assignments; the ones
    failing cocircuit synthesis are dropped.
    """
    ground = matroid.ground
    one = field.one()
    supports = sorted(matroid.circuits, key=sorted)
    slots = []
    for sup in supports:
        elems = sorted(sup, key=ground.index)
        slots.append((elems, len(elems) - 1))
    out = []
    unit_elems = [HElement(r, (0,) * field.rank) for r in field.residue_units()]
    pools = [itertools.product(unit_elems, repeat=n) for _, n in slots]
    for assignment in itertools.product(*pools):
        vecs = []
        for (elems, _), coeffs in zip(slots, assignment):
            mapping = {elems[0]: one}
            mapping.update(dict(zip(elems[1:], coeffs)))
            vecs.append(hvector(field, ground, mapping))
        try:
            out.append(hmatroid_from_circuits(field, ground, vecs))
        except HypermatError:
            continue
    return out


def _signatures(matroids):
    return [(M.circuits, M.cocircuits) for M in matroids]


FIELDS = [
    ("sign", Hyperfield.sign()),
    ("gf3", Hyperfield.field(3)),
    ("krasner", Hyperfield.krasner()),
    ("gf2", Hyperfield.field(2)),
    ("gf7/{1,2,4}", Hyperfield.quotient(7, [1, 2, 4])),
    ("gf5", Hyperfield.field(5)),
]
CASES = [
    (fname, H, mname, N)
    for fname, H in FIELDS
    for mname, N in perfection_family_matroids()
    # the brute force over GF(5) on U_{2,4} builds 16^4 = 65,536 candidates
    if not (fname == "gf5" and mname == "U24")
]


@pytest.mark.parametrize(
    "H, N", [(H, N) for _, H, _, N in CASES], ids=[f"{m}/{f}" for f, _, m, _ in CASES]
)
def test_same_signatures_as_the_brute_force(H, N):
    assert _signatures(all_signatures(H, N)) == _signatures(reference_all_signatures(H, N))


def test_u24_over_gf5_has_192_signatures():
    found = all_signatures(Hyperfield.field(5), u24())
    assert len(found) == 192


def test_the_family_builds_only_what_it_keeps(monkeypatch):
    # every candidate passing the (C3) tests is a matroid; the brute force
    # built 664 signatures to keep these 80
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return hmatroid_from_circuits(*args, **kwargs)

    monkeypatch.setattr(instances, "hmatroid_from_circuits", counted)
    family = AcceptanceContext().family()
    assert (len(built), len(family)) == (80, 80)
