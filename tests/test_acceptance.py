"""Acceptance battery: one pass/fail line per criterion, all at tolerance zero."""

import pytest

from hypermat.acceptance import CRITERIA, AcceptanceContext, criterion_3, criterion_4, criterion_8, criterion_10
from hypermat.hmatroid import CircuitSignature, HMatroid, HVector

from test_hmatroid import plain

# The work each criterion reports doing, so a faster criterion cannot pass
# by silently checking less.
DETAILS = {
    "criterion_1": "10 catalog entries",
    "criterion_2": "861 pairs",
    "criterion_3": "90 instances",
    "criterion_9": "498 matroids",
    "criterion_10": "6210 partitions",
    "criterion_11": "30 signatures",
}


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion, ctx):
    record = criterion(ctx)
    line = f"{record.status.upper()}: {record.check}"
    if record.detail:
        line += f" ({record.detail})"
    print(line)
    assert record.status == "pass", record.witness
    assert record.detail == DETAILS.get(criterion.__name__, "")


# -- negative controls: each criterion below turns red on one planted fault ------


def _one_instance(name, M):
    """A context whose battery is the single instance M."""
    ctx = AcceptanceContext()
    ctx._family, ctx._windowed = [(name, M)], []
    return ctx


def _with_cocircuit(M, k, Y):
    """M through the raw constructor, with its k-th cocircuit replaced by Y."""
    reps = list(M.cocircuits.reps)
    reps[k] = HVector(M.cocircuits.field, M.ground, Y)
    return HMatroid(M.field, M.ground, M.circuits, CircuitSignature(M.cocircuits.field, M.ground, tuple(reps)),
                    M.underlying)


def test_c3_fails_on_a_covector_among_the_vectors():
    ctx = AcceptanceContext()
    M = dict(ctx.family())["U23/sign/1"]
    one = M.field.one()
    U = HVector(M.field.op(), M.ground, (M.field.zero(), one, one))
    assert U in ctx.vectors(M.dual(), 0) and U not in ctx.vectors(M, 0)
    ctx._vectors[(M, 0)] = ctx.vectors(M, 0) | {U}
    record = criterion_3(ctx)
    # U13/sign/2 is the dual of U23/sign/1, so it reads the same set as its covectors
    assert (record.status, plain(record.witness)) == ("fail", [
        {"instance": "U23/sign/1", "witness": (U.entries, U.entries)},
        {"instance": "U13/sign/2", "witness": (U.entries, U.entries)},
    ])


def test_c4_fails_on_a_cocircuit_with_one_entry_negated():
    M = dict(AcceptanceContext().family())["U23/sign/0"]
    one, m, z = M.field.one(), M.field.neg(M.field.one()), M.field.zero()
    assert M.cocircuits.reps[0].entries == (z, one, m)
    record = criterion_4(_one_instance("U23/sign/0", _with_cocircuit(M, 0, (z, one, one))))
    assert (record.status, plain(record.witness)) == ("fail", [
        {"instance": "U23/sign/0", "witness": ((one, one, one), (z, one, one))},
    ])


def test_c8_fails_on_a_dropped_vector():
    M = dict(AcceptanceContext().family())["U23/sign/0"]
    ctx = _one_instance("U23/sign/0", M)
    one, m = M.field.one(), M.field.neg(M.field.one())
    ctx._vectors[(M, 0)] = ctx.vectors(M, 0) - {HVector(M.field, M.ground, (m, m, m))}
    record = criterion_8(ctx)
    assert (record.status, plain(record.witness)) == ("fail", [
        {"instance": "U23/sign/0", "axioms": [{"check": "V1", "witness": {"a": m, "V": (one, one, one)}}]},
    ])


def test_c10_fails_on_a_cocircuit_replaced_by_a_unit_vector():
    # C10 reads no cached vector set, so the fault is planted in the
    # cocircuits: with (0, 0, 1·t^-1) among them, the partition R = {3},
    # G = {1, 2} has neither a vector nor a cocircuit witness
    name, M = AcceptanceContext().windowed()[0]
    assert name == "T-U23(2,2,1)"
    T = M.field
    bad = _with_cocircuit(M, 0, (T.zero(), T.zero(), T.unit(1, (-1,))))
    record = criterion_10(_one_instance(name, bad))
    assert (record.status, record.witness) == ("fail", [
        {"instance": name, "partition": {"R": ["3"], "G": ["1", "2"], "B": []},
         "error": "no dichotomy witness within window 3"},
    ])
