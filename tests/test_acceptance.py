"""Acceptance battery: one pass/fail line per criterion, all at tolerance zero."""

import pytest

from hypermat.acceptance import CRITERIA, AcceptanceContext

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
