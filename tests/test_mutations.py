"""The mutation list of ``tests/mutations.py`` still fits the code.

Replaying a mutation runs a test file in a subprocess, so tier-1 only checks
that each one would apply: its text occurs exactly once in its file, and its
test file exists.  ``python tests/mutations.py`` replays them.
"""

import pytest

from mutations import MUTATIONS, ROOT


def test_mutation_names_are_unique():
    names = [m[0] for m in MUTATIONS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name, path, text, replacement, test_file", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_text_occurs_once(name, path, text, replacement, test_file):
    assert (ROOT / path).read_text().count(text) == 1
    assert replacement != text
    assert (ROOT / test_file).is_file()
