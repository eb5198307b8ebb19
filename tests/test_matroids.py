import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypermat
from hypermat import (
    Hyperfield,
    InvalidCircuitsError,
    InvalidPairError,
    enumerate_matroids,
    from_circuits,
    minty_check,
    minty_minimalize,
    uniform_matroid,
)
from hypermat.instances import graded_rescaled
from hypermat.matroids import _LATTICE_MAX, _lattice


def krasner_lift(N):
    """The H-matroid over the Krasner hyperfield whose underlying matroid is N."""
    return graded_rescaled(Hyperfield.krasner(), N, dict.fromkeys(N.ground, 0))


def test_u23_from_circuits():
    M = from_circuits(("1", "2", "3"), [{"1", "2", "3"}])
    assert M.rank == 2
    assert M.corank == 1
    assert M.bases == frozenset(
        {frozenset({"1", "2"}), frozenset({"1", "3"}), frozenset({"2", "3"})}
    )


def test_incomparability_rejected():
    with pytest.raises(InvalidCircuitsError):
        from_circuits(("1", "2"), [{"1"}, {"1", "2"}])


def test_elimination_rejected():
    with pytest.raises(InvalidCircuitsError):
        from_circuits(("1", "2", "3", "4"), [{"1", "2"}, {"2", "3"}])


def test_u24_by_brute_force():
    M = uniform_matroid(2, ("1", "2", "3", "4"))
    assert M.rank == 2 and len(M.circuits) == 4


def test_uniform_duality():
    U23 = uniform_matroid(2, ("1", "2", "3"))
    assert U23.dual() == uniform_matroid(1, ("1", "2", "3"))


def test_contract_example():
    U23 = uniform_matroid(2, ("1", "2", "3"))
    assert krasner_lift(U23).contract("1").underlying.circuits == frozenset({frozenset({"2", "3"})})


def test_loops_and_coloops():
    M = from_circuits(("1", "2"), [{"1"}])
    assert M.is_loop("1") and M.is_coloop("2")
    # contracting a loop equals deleting it
    K = krasner_lift(M)
    assert K.contract("1").underlying == K.delete("1").underlying


def test_all_small_matroids_roundtrip_and_duality():
    for n in range(6):
        ground = tuple(str(i + 1) for i in range(n))
        for M in enumerate_matroids(ground):
            assert from_circuits(ground, M.circuits) == M
            assert M.dual().dual() == M
            assert M.rank + M.dual().rank == n
            K = krasner_lift(M)
            for e in ground:
                assert K.contract(e).dual().underlying == K.dual().delete(e).underlying
                assert K.delete(e).dual().underlying == K.dual().contract(e).underlying


def test_minty_check_accepts_real_matroid():
    M = uniform_matroid(2, ("1", "2", "3"))
    ok, witness = minty_check(M.ground, M.circuits, M.cocircuits())
    assert ok and witness is None


def test_minty_check_m1_violation():
    ok, witness = minty_check(("1", "2", "3"), [{"1", "2"}], [{"2", "3"}])
    assert not ok
    assert witness["axiom"] == "M1"


def test_minty_witness_does_not_depend_on_the_family_order():
    # each of the cocircuits {1} and {2} meets the circuit {1, 2} once; the
    # families are scanned in sorted order, so {1} is named either way
    C, D = [{"1", "2"}], [{"1"}, {"2"}]
    want = {"axiom": "M1", "pair": (["1", "2"], ["1"])}
    for cocircuits in (D, D[::-1]):
        assert minty_check(("1", "2"), C, cocircuits) == (False, want)
        with pytest.raises(InvalidPairError) as err:
            minty_minimalize(("1", "2"), C, cocircuits)
        assert err.value.witness == want


def test_minty_free_matroid():
    ok, witness = minty_check(("1", "2"), [], [{"1"}, {"2"}])
    assert ok


def test_minty_minimalize_strips_redundant_unions():
    M = uniform_matroid(2, ("1", "2", "3"))
    C = list(M.circuits)
    D = list(M.cocircuits()) + [frozenset({"1", "2", "3"})]
    assert minty_minimalize(M.ground, C, D) == M


def test_minty_minimalize_fixed_point():
    M = uniform_matroid(2, ("1", "2", "3", "4"))
    assert minty_minimalize(M.ground, M.circuits, M.cocircuits()) == M


def test_minty_minimalize_rejects_bad_pairs():
    with pytest.raises(InvalidPairError):
        minty_minimalize(("1", "2", "3"), [{"1", "2"}], [{"2", "3"}])


@pytest.mark.parametrize("check", [
    lambda: minty_check(("1", "2", "1"), [{"2"}], [{"1"}]),
    lambda: minty_minimalize(("1", "2", "1"), [{"2"}], [{"1"}]),
    lambda: from_circuits(("1", "2", "1"), [{"1", "2"}]),
])
def test_repeated_ground_labels_are_refused(check):
    # positions, not labels, name the elements, so a repeated label is ambiguous
    with pytest.raises(InvalidCircuitsError, match="distinct"):
        check()


@pytest.mark.parametrize("n", [0, 1, 2, 4, _LATTICE_MAX, _LATTICE_MAX + 1])
def test_lattice_bitsets_by_brute_force(n):
    """Bit t of ``up(x)`` and ``down(x)`` says t is a supermask and a
    submask of x, from tables and, past ``_LATTICE_MAX``, computed per lookup."""
    up, down = _lattice(n)
    full = (1 << n) - 1
    for x in sorted({0, full, full >> 1, 0b1011 & full, 1 << n >> 1}):
        assert up(x) == sum(1 << t for t in range(full + 1) if t & x == x)
        assert down(x) == sum(1 << t for t in range(full + 1) if t & x == t)


def test_import_builds_no_lattice_table():
    """The lattice tables cost nothing until a matroid needs them."""
    src = str(Path(hypermat.__file__).resolve().parents[1])
    code = "import hypermat.cli, hypermat.matroids as m; print(m._lattice.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
