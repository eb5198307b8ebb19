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
        "            if any(mul.get((b, a)) != v for (a, b), v in mul.items()):\n",
        "            if False:\n",
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
        "covector-tables-normalized-from-the-left",
        "src/hypermat/vectorspace.py",
        "_coded_classes(fold, covectors, right_factor=True)",
        "_coded_classes(fold, covectors)",
        "tests/test_skew_products.py",
    ),
    (
        "orthogonal-points-multiply-y-by-x",
        "src/hypermat/vectorspace.py",
        "columns[key] = [code(mul(x, y)) for x in domains[j]]",
        "columns[key] = [code(mul(y, x)) for x in domains[j]]",
        "tests/test_skew_products.py",
    ),
    # perfection and enumeration on box rows
    (
        "perfect-row-path-skips-the-covectors",
        "src/hypermat/vectorspace.py",
        "    if _classes_orthogonal(fold, v_rows, u_rows):\n",
        "    if covectors is None or _classes_orthogonal(fold, v_rows, u_rows):\n",
        "tests/test_enumeration_reference.py",
    ),
    (
        "box-rows-sorted-in-reverse",
        "src/hypermat/cli.py",
        "rows = sorted(box_rows(M, box))",
        "rows = sorted(box_rows(M, box), reverse=True)",
        "tests/test_report_corpus.py",
    ),
    # the pairing fold
    (
        "field-aggregate-without-mod-p",
        "src/hypermat/hyperfields.py",
        "t = (r + s) % self.p",
        "t = r + s",
        "tests/test_hmatroid.py",
    ),
    (
        "fold-keeps-an-equal-grade-as-a-new-top",
        "src/hypermat/hyperfields.py",
        "    if top is None or x.grade > top:\n        return (x.grade,",
        "    if top is None or x.grade >= top:\n        return (x.grade,",
        "tests/test_hmatroid.py",
    ),
    (
        "top-sum-drops-the-empty-sum",
        "src/hypermat/hyperfields.py",
        "(r,) if a is None",
        "() if a is None",
        "tests/test_hmatroid.py",
    ),
    (
        "product-memo-keyed-without-y-grade",
        "src/hypermat/hmatroid.py",
        "key = (x.residue, x.grade, y.residue, y.grade)",
        "key = (x.residue, x.grade, y.residue)",
        "tests/test_hmatroid.py",
    ),
    (
        "fold-drops-the-last-term",
        "src/hypermat/hmatroid.py",
        "        while meet:\n",
        "        while meet & (meet - 1):\n",
        "tests/test_hmatroid.py",
    ),
    # whole-lattice bitsets
    (
        "painting-cocircuits-up-for-down",
        "src/hypermat/matroids.py",
        "covered |= down(rests ^ y)",
        "covered |= up(rests ^ y)",
        "tests/test_matroids_reference.py",
    ),
    (
        "painting-compressed-with-shift-by-i",
        "src/hypermat/matroids.py",
        "cg = [x & green - 1 | x >> i + 1 << i for x in cm",
        "cg = [x & green - 1 | x >> i << i for x in cm",
        "tests/test_matroids_reference.py",
    ),
    (
        "painting-without-ground-guard",
        "src/hypermat/matroids.py",
        "for x in cm if x & green and x <= full]",
        "for x in cm if x & green]",
        "tests/test_matroids_reference.py",
    ),
    (
        "wrong-down-past-lattice-max",
        "src/hypermat/matroids.py",
        "return (lambda x: _submasks(full ^ x) << x), _submasks",
        "return (lambda x: _submasks(full ^ x) << x), (lambda x: _submasks(full ^ x))",
        "tests/test_matroids_reference.py",
    ),
    (
        "from-circuits-down-for-up",
        "src/hypermat/matroids.py",
        "up = _lattice(n)[0]",
        "up = _lattice(n)[1]",
        "tests/test_matroids_reference.py",
    ),
    (
        "set-bits-skips-the-lowest-bit",
        "src/hypermat/matroids.py",
        "    while bitset:\n        low = bitset & -bitset\n",
        "    bitset &= bitset - 1\n    while bitset:\n        low = bitset & -bitset\n",
        "tests/test_matroids.py",
    ),
    # the partition dichotomy
    (
        "farkas-cocircuit-always-returns-y",
        "src/hypermat/vectorspace.py",
        "        return Y.scale_left(HElement(one.residue, tuple(-c for c in m_g)))\n",
        "        return Y\n",
        "tests/test_enumeration_reference.py",
    ),
    (
        "farkas-g-sum-folds-every-grade",
        "src/hypermat/hyperfields.py",
        "    if x.grade < top:\n        return top, residues\n",
        "",
        "tests/test_enumeration_reference.py",
    ),
    # the symbolic set
    (
        "downset-skips-lower-grades",
        "src/hypermat/hyperfields.py",
        "return x.residue in rs if x.grade == top else None in rs",
        "return x.residue in rs if x.grade == top else False",
        "tests/test_symbolic_oracle.py",
    ),
    (
        "intersect-keeps-the-low-set-without-zero",
        "src/hypermat/hyperfields.py",
        "return lo if None in hi.residues else SymbolicSet(H, None, frozenset())",
        "return lo",
        "tests/test_symbolic_oracle.py",
    ),
    # the residue matroid
    (
        "residue-classes-skip-the-uparrow",
        "src/hypermat/hmatroid.py",
        "flattened = [rep.uparrow() for rep in sig.reps]",
        "flattened = list(sig.reps)",
        "tests/test_hmatroid.py",
    ),
    # generation's entry checks
    (
        "generate-skips-the-stringency-refusal",
        "src/hypermat/vectorspace.py",
        "    H.require_stringent()\n    spread = _grade_spread(M.circuits)\n",
        "    spread = _grade_spread(M.circuits)\n",
        "tests/test_cli.py",
    ),
    (
        "generate-skips-the-spread-budget",
        "src/hypermat/vectorspace.py",
        "    _within_budget(_generation_work(M, window + spread, compose), \"generation\")\n",
        "",
        "tests/test_cli.py",
    ),
    (
        "generate-composes-over-a-field-residue",
        "src/hypermat/vectorspace.py",
        "compose = H.residue_kind != \"field\"",
        "compose = True",
        "tests/test_vectorspace.py",
    ),
    # one refusal rule in the CLI
    (
        "timed-swallows-budget-refusals",
        "src/hypermat/cli.py",
        "    except (UnsupportedOperationError, ResourceLimitError):\n",
        "    except UnsupportedOperationError:\n",
        "tests/test_cli.py",
    ),
    # the table hyperfield's zero laws and the minimal-support rule
    (
        "tables-skip-the-zero-law",
        "src/hypermat/hyperfields.py",
        "if table.setdefault((a, b), v) != v:",
        "if table.__setitem__((a, b), v):",
        "tests/test_hyperfields.py",
    ),
    (
        "minimal-members-keep-equal-supports",
        "src/hypermat/hmatroid.py",
        "if not any(t < s for t in sups)",
        "if not any(t <= s for t in sups)",
        "tests/test_hmatroid.py",
    ),
    # the window box
    (
        "within-box-ignores-the-spread",
        "src/hypermat/vectorspace.py",
        "return all(_in_box(x, window, spread) for x in V.entries)",
        "return all(_in_box(x, window) for x in V.entries)",
        "tests/test_vectorspace.py",
    ),
    (
        "entry-table-flags-every-code-in-the-box",
        "src/hypermat/vectorspace.py",
        "self.in_box.append(_in_box(x, self.window))",
        "self.in_box.append(True)",
        "tests/test_vector_axioms_reference.py",
    ),
    (
        "entry-table-keeps-a-collapsed-composition",
        "src/hypermat/vectorspace.py",
        "keeps = not xy.is_zero or (x.is_zero and y.is_zero)",
        "keeps = True",
        "tests/test_vector_axioms_reference.py",
    ),
    # each criterion's comparison skipped: its negative control turns red
    (
        "c1-skips-the-axiom-report",
        "src/hypermat/acceptance.py",
        "        if report:\n            failures.append({\"hyperfield\": name,",
        "        if False:\n            failures.append({\"hyperfield\": name,",
        "tests/test_acceptance.py",
    ),
    (
        "c2-skips-the-stringency-law",
        "src/hypermat/acceptance.py",
        "if not s.is_singleton() or H.compose(a, b) != s.the_singleton():",
        "if False:",
        "tests/test_acceptance.py",
    ),
    (
        "c5-skips-generation-against-enumeration",
        "src/hypermat/acceptance.py",
        "        if got != want:\n",
        "        if False:\n",
        "tests/test_acceptance.py",
    ),
    (
        "c6-skips-the-contraction-identity",
        "src/hypermat/acceptance.py",
        "            if got_c != want_c:\n",
        "            if False:\n",
        "tests/test_acceptance.py",
    ),
    (
        "c7-skips-the-worked-example",
        "src/hypermat/acceptance.py",
        "    if {frozenset(v.support) for v in M0.circuits.reps} != {frozenset({\"1\", \"2\"})}:\n",
        "    if False:\n",
        "tests/test_acceptance.py",
    ),
    (
        "c7-skips-the-valuation-residue",
        "src/hypermat/acceptance.py",
        "        if M0.underlying != val0.underlying:\n",
        "        if False:\n",
        "tests/test_acceptance.py",
    ),
    (
        "c7-skips-contraction-commutation",
        "src/hypermat/acceptance.py",
        "if residue_matroid(M.contract(e)) != M0.contract(e):",
        "if False:",
        "tests/test_acceptance.py",
    ),
    (
        "c7-skips-deletion-commutation",
        "src/hypermat/acceptance.py",
        "if residue_matroid(M.delete(e)) != M0.delete(e):",
        "if False:",
        "tests/test_acceptance.py",
    ),
    (
        "c7-skips-lemma-14",
        "src/hypermat/acceptance.py",
        "            if not found:\n",
        "            if False:\n",
        "tests/test_acceptance.py",
    ),
    (
        "c8-skips-circuit-recovery",
        "src/hypermat/acceptance.py",
        "        if rec.circuits != M.circuits:\n",
        "        if False:\n",
        "tests/test_acceptance.py",
    ),
    (
        "c9-skips-the-painting-verdict",
        "src/hypermat/acceptance.py",
        "            if not ok:\n                failures.append({\"matroid\": repr(M),",
        "            if False:\n                failures.append({\"matroid\": repr(M),",
        "tests/test_acceptance.py",
    ),
    (
        "c11-skips-the-agreement",
        "src/hypermat/acceptance.py",
        "        if full != prime:\n",
        "        if False:\n",
        "tests/test_acceptance.py",
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
