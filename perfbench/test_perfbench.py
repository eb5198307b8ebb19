"""Tests of the benchmark's own parts: generators, checkers and tracer."""

import pytest

import run

run.import_cli()

import layers  # noqa: E402
import workloads  # noqa: E402
from hypermat import acceptance, cli, errors, hmatroid, hyperfields, jsonio, vectorspace  # noqa: E402

def test_valid_signatures_accepted_corrupted_rejected():
    for sig in workloads.realized_signatures(0):
        n = len(sig.matrix[0])
        M = jsonio.hmatroid_from_json(workloads.field_doc(sig.p, n, sig.circuits))
        doc = jsonio.hmatroid_to_json(M)
        assert workloads._field_vectors(doc["circuits"]) == sig.circuits
        assert workloads._field_vectors(doc["cocircuits"]) == sig.cocircuits
        with pytest.raises(errors.HypermatError):
            jsonio.hmatroid_from_json(workloads.field_doc(sig.p, n, sig.corrupted))


def test_enumerate_inputs_are_matroids_and_seeded():
    first = workloads.enumerate_docs(5)
    assert first == workloads.enumerate_docs(5)
    assert first != workloads.enumerate_docs(6)
    for _, _, _, doc in first:
        jsonio.hmatroid_from_json(doc)


def _small_workload(tmp_path):
    # GF(3) U_{2,4}: its valid copy, then its corrupted copy
    requests = workloads.construct_workload(0, str(tmp_path))[:20]
    requests += workloads.enumerate_workload(0, str(tmp_path))[:4]
    out = str(tmp_path / "suite.json")
    requests.append(workloads.Request("suite", ["suite", "--criteria", "2", "--out", out], out, None))
    return requests


def test_traced_and_untraced_reports_agree(tmp_path):
    w = _small_workload(tmp_path)
    _, _, plain = run.run_pass(cli, w, {})
    tr = layers.tracer()
    with tr:
        _, _, traced = run.run_pass(cli, w, {})
    assert len(tr.name_id) > 0
    roots = sum(e - s for s, e, p in zip(tr.start, tr.end, tr.parent) if p < 0)
    assert sum(self_s for _, self_s, _, _ in tr.summary().values()) == pytest.approx(roots)
    assert [o.report for o in plain] == [o.report for o in traced]
    assert plain == traced
    assert any(o.error for o in plain)  # corrupted inputs are in the mix


def _bindings():
    names = {}
    for mod in (hyperfields, hmatroid, vectorspace, jsonio, cli, acceptance):
        names.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (hyperfields.Hyperfield, hyperfields.SymbolicSet):
        names.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    names.update({("CRITERIA", i): f for i, f in enumerate(acceptance.CRITERIA)})
    return names


def test_tracer_restores_every_name():
    before = _bindings()
    original_perp = hmatroid.perp
    with pytest.raises(RuntimeError):
        with layers.tracer():
            assert hmatroid.perp is not original_perp
            assert cli.check_budget is vectorspace.check_budget
            assert cli.check_budget.__wrapped__ is before[("hypermat.cli", "check_budget")]
            assert hyperfields.Hyperfield.mul is not before[("Hyperfield", "mul")]
            assert acceptance.CRITERIA[7] is not before[("CRITERIA", 7)]
            raise RuntimeError("leave the traced block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
