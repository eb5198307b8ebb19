"""Command-line front end: parse inputs, run checks, emit deterministic JSON.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on a
parse or usage error or an operation the hyperfield does not support.
Reports are byte-identical across runs for fixed inputs, apart from the
elapsed-ms fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import acceptance, jsonio
from .acceptance import CheckRecord, _jsonable
from .errors import (
    HypermatError,
    InvalidCircuitsError,
    InvalidHyperfieldError,
    InvalidInputError,
    InvalidSignatureError,
    InvalidSubgroupError,
    NotAnHMatroidError,
    ResourceLimitError,
    SpecError,
    UnsupportedOperationError,
)
from .hmatroid import (
    HMatroid,
    check_circuit_axioms,
    dual_signature,
    hmatroid_from_circuits,
    perp_k,
    residue_matroid,
    signature_from_vectors,
)
from .homs import coset_map, sign_map, valuation_map, validate_homomorphism
from .hyperfields import check_axiom_budget, check_stringent, validate_axioms
from .jsonio import SCHEMA, VERSION
from .matroids import from_circuits
from .vectorspace import (
    box_rows,
    check_budget,
    check_vector_axioms,
    farkas_witness,
    is_perfect,
    vectors_enumerate,
    vectors_generate,
)

DEFAULT_WINDOW = 4
DEFAULT_MAX_GROUND = 7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermat",
        description="Exact computations with hyperfields and matroids over them.",
    )
    parser.add_argument("--version", action="version", version=f"hypermat {VERSION}")

    def common(p):
        p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                       help=f"grade window bound (default: {DEFAULT_WINDOW})")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-hyperfield", help="validate hyperfield axioms and stringency")
    p.set_defaults(func=cmd_check_hyperfield)
    p.add_argument("file")
    common(p)

    p = sub.add_parser("quotient", help="build a Krasner quotient GF(p)/G")
    p.set_defaults(func=cmd_quotient)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--subgroup", required=True, help="comma-separated unit labels, e.g. 1,2,4")
    common(p)

    m = sub.add_parser("matroid", help="operations on matroids over hyperfields")
    m.set_defaults(func=cmd_matroid)
    msub = m.add_subparsers(dest="verb", required=True)

    def mverb(name, **kwargs):
        q = msub.add_parser(name, **kwargs)
        q.add_argument("file")
        common(q)
        q.add_argument("--max-ground", type=int, default=DEFAULT_MAX_GROUND,
                       help="refuse documents with larger ground sets")
        return q

    mverb("check", help="validate a circuit signature as an H-matroid")
    mverb("dual", help="emit the dual matroid")
    q = mverb("minor", help="delete or contract one element")
    q.add_argument("--delete", metavar="E")
    q.add_argument("--contract", metavar="E")
    q = mverb("rescale", help="rescale by a nonzero scaling vector")
    q.add_argument("--rho", required=True, help="JSON object element -> entry")
    mverb("residue", help="emit the residue matroid")
    q = mverb("vectors", help="enumerate or generate the windowed vectors")
    q.add_argument("--enumerate", action="store_true")
    q.add_argument("--generate", action="store_true")
    mverb("perfect", help="check all vectors against all covectors")
    mverb("vector-axioms", help="check the vector axioms of the windowed vector set")
    q = mverb("pushforward", help="push the matroid forward along a homomorphism")
    q.add_argument("--hom", choices=("valuation", "sign"), required=True)
    q = mverb("farkas", help="find a partition dichotomy witness")
    q.add_argument("--partition", required=True, help='JSON {"R":[...],"G":[...],"B":[...]}')
    q.add_argument("--weak", action="store_true")

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.set_defaults(func=cmd_suite)
    p.add_argument("--criteria", help="comma-separated criterion numbers (default all)")
    common(p)
    return parser


def _window_of(args) -> int:
    if args.window < 0:
        raise SpecError(f"window must be >= 0, got {args.window}")
    return args.window


def _report(command, window, checks, result=None):
    return {
        "schema": SCHEMA,
        "version": VERSION,
        "command": command,
        "window": window,
        "checks": [c.to_json() for c in checks],
        "result": result,
    }


def _emit(report, out_path) -> int:
    text = jsonio.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


def _ms_since(t0) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _timed(check, window, fn, *args):
    """``(record, value)`` of ``fn(*args)``; the value is None when the check fails.

    An operation the hyperfield does not support is not a failed check: its
    ``UnsupportedOperationError`` propagates, and ``run`` exits 2 on it.
    """
    t0 = time.perf_counter()
    value = None
    try:
        value = fn(*args)
        status, payload = "pass", None
    except UnsupportedOperationError:
        raise
    except HypermatError as exc:
        status, payload = "fail", {"error": str(exc), "witness": _jsonable(exc.witness)}
    return CheckRecord(check, status, payload, window=window, elapsed_ms=_ms_since(t0)), value


def _json_object(flag, text) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{flag}: invalid JSON ({exc.msg})") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{flag}: expected a JSON object")
    return doc


def _load_parts(args):
    """The parsed document of a matroid verb, refused over ``--max-ground``
    before any matroid is built from it."""
    H, ground, vecs, side = jsonio.hmatroid_parts_from_json(jsonio.load_json(args.file), "$")
    if len(ground) > args.max_ground:
        raise ResourceLimitError(
            f"{args.file}: ground set exceeds --max-ground {args.max_ground}"
        )
    return H, ground, vecs, side


def cmd_check_hyperfield(args) -> int:
    window = _window_of(args)
    H = jsonio.hyperfield_from_json(jsonio.load_json(args.file), "$")
    check_axiom_budget(H, window)
    checks = []
    def run_axioms():
        violations = validate_axioms(H, window)
        if violations:
            raise InvalidHyperfieldError("axioms violated", violations=violations[:3])
    checks.append(_timed("axioms", window, run_axioms)[0])
    result = {"hyperfield": jsonio.hyperfield_to_json(H), **_stringency(H, window)}
    return _emit(_report("check-hyperfield", window, checks, result), args.out)


def _stringency(H, window) -> dict:
    """The report fields of ``check_stringent`` (a finite H ignores the window)."""
    stringent, witness = check_stringent(H, window)
    witness = None if witness is None else [jsonio.element_to_json(H, w) for w in witness]
    return {"stringent": stringent, "stringent_witness": witness}


def cmd_quotient(args) -> int:
    window = _window_of(args)
    try:
        subgroup = [int(s) for s in args.subgroup.split(",") if s]
    except ValueError as exc:
        raise SpecError(f"--subgroup: expected comma-separated integers ({exc})") from exc
    t0 = time.perf_counter()
    f = coset_map(args.p, subgroup)  # building the quotient validates its axioms
    H = f.codomain
    checks = [CheckRecord("axioms", "pass", window=window, elapsed_ms=_ms_since(t0))]
    def run_hom():
        violations = validate_homomorphism(f, window)
        if violations:
            raise InvalidHyperfieldError("coset map is not a homomorphism", violations=violations[:3])
    checks.append(_timed("coset-map-homomorphism", window, run_hom)[0])
    result = {
        "hyperfield": jsonio.hyperfield_to_json(H),
        "elements": list(H._elements),
        "addition": {f"{a},{b}": list(v) for a, b, v in H._add},
        **_stringency(H, window),
    }
    return _emit(_report("quotient", window, checks, result), args.out)


def _modular_elimination(sig):
    report = check_circuit_axioms(sig)
    if report:
        raise HypermatError(f"(C3) fails on {len(report)} pairs")


def _strong_duality(M):
    ok, witness = perp_k(M.circuits, M.cocircuits, None)
    if not ok:
        raise HypermatError(f"full orthogonality fails: {witness}")


def _check_records(window, H, ground, vecs, side):
    """The records of ``matroid check``, one per step of the construction,
    and the matroid's JSON when every step that builds it passes."""
    record, sig = _timed("signature (C0)-(C2)", window, signature_from_vectors, H, ground, vecs)
    checks = [record]
    if sig is None:
        return checks, None
    record, underlying = _timed("underlying matroid", window, from_circuits, ground, sig.supports)
    checks.append(record)
    synthesis = "cocircuit synthesis (Theorem 2)"
    if underlying is None:
        # synthesis starts from the underlying matroid, so it fails the same way
        record, M = dataclasses.replace(record, check=synthesis, elapsed_ms=0), None
    else:
        record, M = _timed(synthesis, window, lambda: HMatroid(
            H, tuple(ground), sig, dual_signature(underlying, sig), underlying, side))
    checks.append(record)
    checks.append(_timed("modular elimination (C3)", window, _modular_elimination, sig)[0])
    if M is None:
        return checks, None
    checks.append(_timed("strong duality", window, _strong_duality, M)[0])
    return checks, jsonio.hmatroid_to_json(M)


def cmd_matroid(args) -> int:
    window = _window_of(args)
    verb = args.verb
    if verb == "minor" and bool(args.delete) == bool(args.contract):
        raise SpecError("minor needs exactly one of --delete or --contract")
    if verb == "vectors" and args.enumerate == args.generate:
        raise SpecError("vectors needs exactly one of --enumerate or --generate")
    H, ground, vecs, side = _load_parts(args)
    if verb == "check":
        checks, result = _check_records(window, H, ground, vecs, side)
        return _emit(_report("matroid check", window, checks, result), args.out)
    M = hmatroid_from_circuits(H, ground, vecs, side)
    # a result matroid keeps the document's side label; only dual flips it
    checks = []
    result = None
    if verb == "dual":
        result = jsonio.hmatroid_to_json(M.dual())
        checks.append(CheckRecord("dual", "pass", None, window=window))
    elif verb == "minor":
        e = args.delete or args.contract
        if e not in M.ground:
            raise SpecError(f"unknown element {e!r}")
        out = M.delete(e) if args.delete else M.contract(e)
        result = jsonio.hmatroid_to_json(dataclasses.replace(out, side=side))
        checks.append(CheckRecord("minor", "pass", None, window=window))
    elif verb == "rescale":
        rho = {
            e: jsonio.element_from_json(M.field, v, f"--rho[{e}]")
            for e, v in _json_object("--rho", args.rho).items()
        }
        try:
            result = jsonio.hmatroid_to_json(dataclasses.replace(M.rescale(rho), side=side))
        except InvalidInputError as exc:
            raise SpecError(f"--rho: {exc}") from exc
        checks.append(CheckRecord("rescale", "pass", None, window=window))
    elif verb == "residue":
        record, R = _timed("residue construction", window, residue_matroid, M)
        checks.append(record)
        result = None if R is None else jsonio.hmatroid_to_json(dataclasses.replace(R, side=side))
    elif verb == "vectors":
        check_budget(M.field, M.ground, window)
        if args.enumerate:
            # the box lists elements in sort_key order, so sorted rows are sorted vectors
            box = M.field.elements_box(window)
            rows = sorted(box_rows(M, box))
            shared = {c: jsonio.element_to_json(M.field, box[c]) for c in set().union(*rows)}
            rows = [list(map(shared.__getitem__, row)) for row in rows]
        else:
            rows = jsonio.hvectors_to_json(sorted(vectors_generate(M, window), key=lambda v: v.sort_key()))
        result = {"count": len(rows), "vectors": rows}
        checks.append(CheckRecord("vectors", "pass", None, window=window))
    elif verb == "perfect":
        check_budget(M.field, M.ground, window)
        def run():
            ok, witness = is_perfect(M, window)
            if not ok:
                raise HypermatError(f"vector not orthogonal to covector: {witness}")
        checks.append(_timed("perfection", window, run)[0])
    elif verb == "vector-axioms":
        check_budget(M.field, M.ground, window)
        def run():
            report = check_vector_axioms(vectors_enumerate(M, window), window, M)
            if report:
                raise HypermatError(f"vector axioms fail: {len(report)} violations")
        checks.append(_timed("vector-axioms", window, run)[0])
    elif verb == "pushforward":
        hom = valuation_map(M.field) if args.hom == "valuation" else sign_map(M.field)
        record, image = _timed("pushforward", window, M.push_forward, hom)
        checks.append(record)
        result = None if image is None else jsonio.hmatroid_to_json(dataclasses.replace(image, side=side))
    else:  # farkas
        parts = _json_object("--partition", args.partition)
        if not all(isinstance(v, list) and all(isinstance(e, str) for e in v) for v in parts.values()):
            raise SpecError("--partition: expected lists of element labels")
        unknown = set(parts) - {"R", "G", "B"}
        if unknown:
            raise SpecError(f"--partition: unknown keys {sorted(unknown)}; expected R, G and B")
        R, G, B = (set(parts.get(key, ())) for key in ("R", "G", "B"))
        if R & G or R & B or G & B or R | G | B != set(M.ground):
            raise SpecError("--partition: R, G and B must partition the ground set")
        record, w = _timed("farkas", window, farkas_witness, M, parts, window, args.weak)
        checks.append(record)
        result = None if w is None else {"kind": w.kind, "witness": jsonio.hvector_to_json(w.vec)}
    return _emit(_report(f"matroid {verb}", window, checks, result), args.out)


def cmd_suite(args) -> int:
    window = _window_of(args)
    numbers = None
    if args.criteria is not None:
        try:
            numbers = {int(s) for s in args.criteria.split(",") if s}
        except ValueError as exc:
            raise SpecError(f"--criteria: expected comma-separated numbers ({exc})") from exc
        if not numbers:
            raise SpecError(f"--criteria: names no criterion, got {args.criteria!r}")
        unknown = numbers - set(range(1, len(acceptance.CRITERIA) + 1))
        if unknown:
            raise SpecError(f"--criteria: no such criteria {sorted(unknown)}")
    records = acceptance.run_suite(numbers)
    for rec in records:
        line = f"{rec.status.upper():4} {rec.check}"
        if rec.detail:
            line += f" ({rec.detail})"
        print(line, file=sys.stderr)
    return _emit(_report("suite", window, records), args.out)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ResourceLimitError, InvalidSubgroupError, InvalidHyperfieldError,
            UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    # run() lets a document that is no matroid over its hyperfield raise its
    # typed error; the command line reports it in one line
    try:
        code = run(argv)
    except (NotAnHMatroidError, InvalidSignatureError, InvalidCircuitsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
