"""The acceptance battery: eleven exact, desk-scale criteria.

Every criterion is tolerance-zero.  Windows are pinned here: hyperfield
axiom windows of 4, vector enumeration windows of 3 (tropical) and 2
(sign-residue stringent instances, whose candidate boxes grow faster).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import HypermatError
from .hmatroid import (
    check_c3prime,
    check_circuit_axioms,
    perp_k,
    residue_matroid,
    signature_from_vectors,
)
from .homs import valuation_map
from .hyperfields import Hyperfield, check_stringent, validate_axioms
from .instances import (
    all_signatures,
    corrupted_signatures,
    perfection_family_matroids,
    windowed_instances,
)
from .matroids import enumerate_matroids, minty_check, minty_minimalize
from .vectorspace import (
    check_vector_axioms,
    farkas_witness,
    is_perfect,
    reconstruct_from_vectors,
    vectors_enumerate,
    vectors_generate,
)

AXIOM_WINDOW = 4
TROPICAL_WINDOW = 3
STRINGENT_WINDOW = 2


@dataclass
class CheckRecord:
    check: str
    status: str  # "pass" | "fail"
    witness: object = None
    window: int | None = None
    elapsed_ms: int = 0
    detail: str = ""

    def to_json(self) -> dict:
        out = {"check": self.check, "status": self.status, "elapsed_ms": self.elapsed_ms}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.window is not None:
            out["window"] = self.window
        if self.detail:
            out["detail"] = self.detail
        return out


def _jsonable(obj):
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    return repr(obj)


class AcceptanceContext:
    """Shared instance and vector-set caches across criteria."""

    def __init__(self):
        self._vectors = {}
        self._family = None
        self._windowed = None

    def vectors(self, M, window):
        key = (M, window)
        if key not in self._vectors:
            self._vectors[key] = vectors_enumerate(M, window)
        return self._vectors[key]

    def family(self):
        """All valid Sign and GF(3) signatures of the |E| <= 4 matroid family."""
        if self._family is None:
            fields = [("sign", Hyperfield.sign()), ("gf3", Hyperfield.field(3))]
            fam = []
            for mname, N in perfection_family_matroids():
                for fname, H in fields:
                    for i, M in enumerate(all_signatures(H, N)):
                        fam.append((f"{mname}/{fname}/{i}", M))
            self._family = fam
        return self._family

    def windowed(self):
        if self._windowed is None:
            self._windowed = windowed_instances()
        return self._windowed

    def instance_window(self, M) -> int:
        if M.field.rank == 0:
            return 0
        if M.field.residue_kind == "krasner":
            return TROPICAL_WINDOW
        return STRINGENT_WINDOW


def _record(check, failures, window=None, detail=""):
    status = "pass" if not failures else "fail"
    witness = failures[:3] if failures else None
    return CheckRecord(check, status, witness, window=window, detail=detail)


def _catalog():
    """The named catalog hyperfields of C1; C2 takes all but the quotient."""
    return [
        ("krasner", Hyperfield.krasner()),
        ("sign", Hyperfield.sign()),
        ("gf2", Hyperfield.field(2)),
        ("gf3", Hyperfield.field(3)),
        ("gf5", Hyperfield.field(5)),
        ("gf7", Hyperfield.field(7)),
        ("tropical1", Hyperfield.tropical(1)),
        ("stringent-sign-1", Hyperfield.stringent("sign", 1)),
        ("stringent-gf3-1", Hyperfield.stringent("field", 1, p=3)),
        ("quotient-7-124", Hyperfield.quotient(7, [1, 2, 4])),
    ]


def criterion_1(ctx) -> CheckRecord:
    """Hyperfield axiom suite plus stringency verdicts."""
    catalog = _catalog()
    failures = []
    for name, H in catalog:
        report = validate_axioms(H, AXIOM_WINDOW)
        if report:
            failures.append({"hyperfield": name, "violations": report[:2]})
    for name, H in catalog[:6]:
        ok, witness = check_stringent(H, AXIOM_WINDOW)
        if not ok:
            failures.append({"hyperfield": name, "stringency-witness": witness})
    Q = catalog[-1][1]
    ok, witness = check_stringent(Q, AXIOM_WINDOW)
    expected = (Q.unit(1), Q.unit(1))
    if ok or witness != expected:
        failures.append({"hyperfield": "quotient-7-124", "expected-witness": expected, "got": witness})
    return _record("C1 hyperfield axiom suite", failures, window=AXIOM_WINDOW,
                   detail=f"{len(catalog)} catalog entries")


def criterion_2(ctx) -> CheckRecord:
    """Stringency law: singleton hypersums off the diagonal, realized by compose."""
    entries = [H for _, H in _catalog()[:-1]]
    failures = []
    pairs = 0
    for H in entries:
        elems = H.elements_box(AXIOM_WINDOW)
        for a in elems:
            for b in elems:
                if not b.is_zero and a == H.neg(b):
                    continue
                s = H.hyperadd(a, b)
                pairs += 1
                if not s.is_singleton() or H.compose(a, b) != s.the_singleton():
                    failures.append({"H": repr(H), "a": a, "b": b, "sum": s})
    return _record("C2 stringency law", failures, window=AXIOM_WINDOW, detail=f"{pairs} pairs")


def criterion_3(ctx) -> CheckRecord:
    """Perfection of every family instance: all vectors orthogonal to all covectors."""
    failures = []
    count = 0
    for name, M in ctx.family() + ctx.windowed():
        w = ctx.instance_window(M)
        ok, witness = is_perfect(M, w, ctx.vectors(M, w), ctx.vectors(M.dual(), w))
        count += 1
        if not ok:
            failures.append({"instance": name, "witness": witness})
    return _record("C3 perfection (Theorem 1)", failures, detail=f"{count} instances")


def criterion_4(ctx) -> CheckRecord:
    """Weak implies strong: full orthogonality given the 3-orthogonal certificate."""
    failures = []
    for name, M in ctx.family() + ctx.windowed():
        ok, witness = perp_k(M.circuits, M.cocircuits, None)
        if not ok:
            failures.append({"instance": name, "witness": witness})
    return _record("C4 weak implies strong duality", failures)


def criterion_5(ctx) -> CheckRecord:
    """Vector generation equals enumeration on the tropical instances."""
    failures = []
    for name, M in ctx.windowed()[:3]:
        got = vectors_generate(M, TROPICAL_WINDOW)
        want = ctx.vectors(M, TROPICAL_WINDOW)
        if got != want:
            failures.append({
                "instance": name,
                "missing": sorted(map(repr, want - got)),
                "extra": sorted(map(repr, got - want)),
            })
    return _record("C5 generation equals enumeration (Theorem 21)", failures,
                   window=TROPICAL_WINDOW)


def criterion_6(ctx) -> CheckRecord:
    """Minor-vector identities on the Sign and GF(3) family."""
    failures = []
    for name, M in ctx.family():
        vs = ctx.vectors(M, 0)
        for e in M.ground:
            want_c = frozenset(V.drop(e) for V in vs)
            got_c = ctx.vectors(M.contract(e), 0)
            if got_c != want_c:
                failures.append({"instance": name, "op": f"contract {e}"})
            want_d = frozenset(V.drop(e) for V in vs if V[e].is_zero)
            got_d = ctx.vectors(M.delete(e), 0)
            if got_d != want_d:
                failures.append({"instance": name, "op": f"delete {e}"})
    return _record("C6 minor-vector identities", failures)


def criterion_7(ctx) -> CheckRecord:
    """Residue machinery: construction, valuation residue, minor commutation."""
    failures = []
    for name, M in ctx.windowed():
        try:
            M0 = residue_matroid(M)
        except HypermatError as exc:
            failures.append({"instance": name, "error": str(exc)})
            continue
        val0 = residue_matroid(M.push_forward(valuation_map(M.field)))
        if M0.underlying != val0.underlying:
            failures.append({"instance": name, "check": "valuation residue"})
        for e in M.ground:
            if not M0.underlying.is_loop(e):
                if residue_matroid(M.contract(e)) != M0.contract(e):
                    failures.append({"instance": name, "check": f"contract {e} commutes"})
            if not M0.underlying.is_coloop(e):
                if residue_matroid(M.delete(e)) != M0.delete(e):
                    failures.append({"instance": name, "check": f"delete {e} commutes"})
        failures.extend(_lemma14_failures(name, M, M0))
    worked = dict(ctx.windowed())["T-U23(2,2,1)"]
    M0 = residue_matroid(worked)
    if {frozenset(v.support) for v in M0.circuits.reps} != {frozenset({"1", "2"})}:
        failures.append({"instance": "worked example", "check": "residue circuits"})
    if {frozenset(v.support) for v in M0.cocircuits.reps} != {
        frozenset({"1", "2"}),
        frozenset({"3"}),
    }:
        failures.append({"instance": "worked example", "check": "residue cocircuits"})
    return _record("C7 residue machinery (Lemmas 28/13/14)", failures)


def _lemma14_failures(name, M, M0):
    """Circuit-into-span extension: some circuit of M tops out on C inside S∪C."""
    out = []
    N0 = M0.underlying
    spanning = [
        set(s)
        for r in range(len(N0.ground) + 1)
        for s in itertools.combinations(N0.ground, r)
        if N0.is_spanning(s)
    ]
    for C in N0.circuits:
        for S in spanning:
            found = False
            for X in M.circuits.reps:
                if X.support <= S | C and X.uparrow().support == C:
                    found = True
                    break
            if not found:
                out.append({"instance": name, "check": f"extend {sorted(C)} into {sorted(S)}"})
    return out


def criterion_8(ctx) -> CheckRecord:
    """Vector axioms hold and reconstruction recovers the circuits exactly."""
    failures = []
    for name, M in ctx.family() + ctx.windowed():
        w = ctx.instance_window(M)
        vs = ctx.vectors(M, w)
        report = check_vector_axioms(vs, w, M)
        if report:
            failures.append({"instance": name, "axioms": report[:2]})
            continue
        try:
            rec = reconstruct_from_vectors(vs)
        except HypermatError as exc:
            failures.append({"instance": name, "error": str(exc)})
            continue
        if rec.circuits != M.circuits:
            failures.append({"instance": name, "check": "circuit recovery"})
        elif ctx.vectors(rec, w) != vs:
            failures.append({"instance": name, "check": "vector set round trip"})
    return _record("C8 vector axioms round trip (Lemma 4)", failures)


def criterion_9(ctx) -> CheckRecord:
    """Painting validator and minimalization on all matroids with <= 5 elements."""
    failures = []
    count = 0
    for n in range(6):
        ground = tuple(str(i + 1) for i in range(n))
        for M in enumerate_matroids(ground):
            count += 1
            C, D = M.circuits, M.cocircuits()
            ok, witness = minty_check(ground, C, D)
            if not ok:
                failures.append({"matroid": repr(M), "witness": witness})
                continue
            if C or D:
                if minty_minimalize(ground, C, D) != M:
                    failures.append({"matroid": repr(M), "check": "fixed point"})
    return _record("C9 painting validators (Theorems 11-12)", failures,
                   detail=f"{count} matroids")


def criterion_10(ctx) -> CheckRecord:
    """Partition dichotomy: a witness for all 3^|E| partitions of each instance."""
    failures = []
    count = 0
    for name, M in ctx.family() + ctx.windowed():
        w = ctx.instance_window(M)
        for colors in itertools.product("RGB", repeat=len(M.ground)):
            parts = {"R": [], "G": [], "B": []}
            for e, c in zip(M.ground, colors):
                parts[c].append(e)
            count += 1
            try:
                farkas_witness(M, parts, w)
            except HypermatError as exc:
                failures.append({"instance": name, "partition": parts, "error": str(exc)})
    return _record("C10 partition dichotomy (Lemma 36)", failures, detail=f"{count} partitions")


def criterion_11(ctx) -> CheckRecord:
    """(C3)' agrees with full modular elimination, valid and corrupted alike."""
    failures = []
    cases = []
    for name, M in ctx.windowed():
        cases.append((name, M.circuits))
    for name, H, ground, vecs in corrupted_signatures(20):
        try:
            cases.append((name, signature_from_vectors(H, ground, vecs)))
        except HypermatError as exc:
            failures.append({"case": name, "error": f"corruption broke (C0)-(C2): {exc}"})
    for name, sig in cases:
        full = not check_circuit_axioms(sig)
        prime = not check_c3prime(sig)
        if full != prime:
            failures.append({"case": name, "full": full, "c3prime": prime})
    return _record("C11 (C3)' equivalence (Theorem 22)", failures, detail=f"{len(cases)} signatures")


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_suite(numbers=None) -> list[CheckRecord]:
    """Run the requested criteria (all by default) and time each one."""
    ctx = AcceptanceContext()
    records = []
    for i, crit in enumerate(CRITERIA, start=1):
        if numbers is not None and i not in numbers:
            continue
        t0 = time.perf_counter()
        rec = crit(ctx)
        rec.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        records.append(rec)
    return records
