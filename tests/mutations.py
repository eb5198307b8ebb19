"""Replay the source mutations that the tests must catch.

Each mutation names a file, a text that occurs in it exactly once, the text
that replaces it, and the test file that must fail once it is replaced.
For each one the script copies ``src/`` and ``tests/`` into a temporary
directory, makes the replacement there, runs pytest on the named test file
against the copy, and counts the mutation as caught when some test fails
(pytest exit code 1).  The tree itself is never changed.  The name of this
file does not match ``test_*.py``, so the tier-1 run does not collect it.

Run from anywhere:

    python tests/mutations.py            # every mutation
    python tests/mutations.py NAME ...   # the named ones

It prints one line per mutation and exits 1 if any survives or no longer
applies.  A change to a hot path adds its mutations to ``MUTATIONS``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, text, replacement, test file that must fail)
MUTATIONS = [
    (
        "twisted-op-is-self",
        "tests/test_skew_products.py",
        "    def op(self):\n        if self._op is None:\n",
        "    def op(self):\n        return self\n        if self._op is None:\n",
        "tests/test_skew_products.py",
    ),
    (
        "table-op-is-self",
        "src/hypermat/hyperfields.py",
        "            if all(mul.get((b, a)) == v for (a, b), v in mul.items()):\n",
        "            if True:\n",
        "tests/test_skew_products.py",
    ),
    (
        "dual-skips-op",
        "src/hypermat/hmatroid.py",
        "        return HMatroid(\n            self.field.op(),\n",
        "        return HMatroid(\n            self.field,\n",
        "tests/test_skew_products.py",
    ),
    (
        "covector-rows-normalized-from-the-left",
        "src/hypermat/vectorspace.py",
        "fold.mul(c, b) if right_factor else fold.mul(b, c)",
        "fold.mul(b, c)",
        "tests/test_skew_products.py",
    ),
    (
        "orthogonal-points-multiply-y-by-x",
        "src/hypermat/vectorspace.py",
        "columns[key] = [code(mul(x, y)) for x in domains[j]]",
        "columns[key] = [code(mul(y, x)) for x in domains[j]]",
        "tests/test_skew_products.py",
    ),
]


def replay(name, path, text, replacement, test_file) -> str:
    """The outcome of one mutation: "caught", "SURVIVED" or "NOT APPLIED"."""
    with tempfile.TemporaryDirectory(prefix="hypermat-mutation-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=ignore)
        target = Path(tmp) / path
        source = target.read_text()
        if source.count(text) != 1:
            return "NOT APPLIED"
        target.write_text(source.replace(text, replacement))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return "caught" if run.returncode == 1 else "SURVIVED"


def main(names) -> int:
    chosen = [m for m in MUTATIONS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for mutation in chosen:
        outcome = replay(*mutation)
        bad += outcome != "caught"
        print(f"{outcome:11} {mutation[0]}  ({mutation[4]})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
