import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypermat
from hypermat import Hyperfield, hmatroid_from_circuits, hvector
from hypermat.cli import main, run
from hypermat.errors import NotAnHMatroidError, ResourceLimitError
from hypermat.hyperfields import check_axiom_budget
from hypermat.jsonio import dumps, hmatroid_to_json
from hypermat.vectorspace import check_budget

G3 = ("1", "2", "3")


@pytest.fixture
def u23_sign_file(tmp_path, u23_sign):
    path = tmp_path / "u23-sign.json"
    path.write_text(dumps(hmatroid_to_json(u23_sign)))
    return str(path)


@pytest.fixture
def trop_u23_file(tmp_path, trop_u23):
    path = tmp_path / "trop-u23.json"
    path.write_text(dumps(hmatroid_to_json(trop_u23)))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_hyperfield_sign(tmp_path, capsys):
    path = tmp_path / "sign.json"
    path.write_text('{"kind": "sign"}\n')
    code, doc = run_json(capsys, ["check-hyperfield", str(path)])
    assert code == 0
    assert doc["checks"][0]["status"] == "pass"
    assert doc["result"]["stringent"] is True


def test_quotient_verb(capsys):
    code, doc = run_json(capsys, ["quotient", "--p", "7", "--subgroup", "1,2,4"])
    assert code == 0
    assert doc["result"]["stringent"] is False
    assert doc["result"]["elements"] == [0, 1, 3]
    assert doc["result"]["stringent_witness"] == [{"r": 1}, {"r": 1}]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_matroid_check_passes(capsys, u23_sign_file):
    code, doc = run_json(capsys, ["matroid", "check", u23_sign_file])
    assert code == 0
    names = [c["check"] for c in doc["checks"]]
    assert "cocircuit synthesis (Theorem 2)" in names


# U_{2,4} with every circuit all-plus: (C0)-(C2) hold, but it is no matroid over Sign
NOT_A_MATROID = {
    "hyperfield": {"kind": "sign"},
    "ground": ["1", "2", "3", "4"],
    "side": "left",
    "circuits": [
        [{"r": "+"}, {"r": "+"}, {"r": "+"}, "0"],
        [{"r": "+"}, {"r": "+"}, "0", {"r": "+"}],
        [{"r": "+"}, "0", {"r": "+"}, {"r": "+"}],
        ["0", {"r": "+"}, {"r": "+"}, {"r": "+"}],
    ],
}


def test_matroid_check_fails_on_bad_signature(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NOT_A_MATROID))
    code, doc = run_json(capsys, ["matroid", "check", str(path)])
    assert code == 1
    status = {c["check"]: c["status"] for c in doc["checks"]}
    assert status["cocircuit synthesis (Theorem 2)"] == "fail"
    assert status["modular elimination (C3)"] == "fail"


def test_right_side_check_witness_pairs_a_circuit_with_a_cocircuit(tmp_path, capsys):
    # a right matroid is checked as the left matroid over H^op, so its
    # 3-orthogonality witness is the first failing (circuit, cocircuit) pair
    corpus = Path(__file__).parent / "data" / "reports" / "gf3-U24-corrupt.json"
    doc = json.loads(corpus.read_text())
    path = tmp_path / "gf3-U24-corrupt-right.json"
    path.write_text(json.dumps({**doc, "side": "right"}))
    code, report = run_json(capsys, ["matroid", "check", str(path)])
    assert code == 1
    synthesis = {c["check"]: c for c in report["checks"]}["cocircuit synthesis (Theorem 2)"]
    assert synthesis["witness"]["witness"] == ["(0, u(1), u(1), u(2))", "(0, u(1), u(1), u(1))"]


def test_matroid_dual_round_trip(capsys, u23_sign_file, u23_sign):
    from hypermat.jsonio import hmatroid_from_json

    code, doc = run_json(capsys, ["matroid", "dual", u23_sign_file])
    assert code == 0
    assert hmatroid_from_json(doc["result"]) == u23_sign.dual()


def test_matroid_minor_contract(capsys, u23_sign_file):
    code, doc = run_json(capsys, ["matroid", "minor", "--contract", "1", u23_sign_file])
    assert code == 0
    assert doc["result"]["circuits"] == [[{"r": "+"}, {"r": "+"}]]
    assert doc["result"]["cocircuits"] == [[{"r": "+"}, {"r": "-"}]]


def test_matroid_vectors_enumerate(capsys, u23_sign_file):
    code, doc = run_json(capsys, ["matroid", "vectors", "--enumerate", u23_sign_file])
    assert code == 0
    assert doc["result"]["count"] == 3


def test_matroid_vectors_generate_matches(capsys, trop_u23_file):
    code, doc = run_json(capsys, ["matroid", "vectors", "--generate", trop_u23_file,
                                  "--window", "3"])
    code2, doc2 = run_json(capsys, ["matroid", "vectors", "--enumerate", trop_u23_file,
                                    "--window", "3"])
    assert code == code2 == 0
    assert doc["result"] == doc2["result"]


def test_matroid_residue(capsys, trop_u23_file):
    code, doc = run_json(capsys, ["matroid", "residue", trop_u23_file])
    assert code == 0
    assert doc["result"]["hyperfield"] == {"kind": "krasner"}
    assert doc["result"]["circuits"] == [[{}, {}, "0"]]
    assert doc["result"]["circuit_supports"] == [["1", "2"]]
    assert sorted(doc["result"]["cocircuit_supports"]) == [["1", "2"], ["3"]]


def test_matroid_vector_axioms(capsys, u23_sign_file):
    code, doc = run_json(capsys, ["matroid", "vector-axioms", u23_sign_file])
    assert code == 0
    assert doc["checks"][0]["status"] == "pass"


def test_matroid_perfect(capsys, u23_sign_file):
    code, doc = run_json(capsys, ["matroid", "perfect", u23_sign_file, "--window", "3"])
    assert code == 0


def test_matroid_farkas(capsys, u23_sign_file):
    code, doc = run_json(
        capsys, ["matroid", "farkas", "--partition", '{"G": ["1", "2", "3"]}', u23_sign_file]
    )
    assert code == 0
    assert doc["result"]["kind"] == "vector"


def test_matroid_pushforward(capsys, trop_u23_file):
    code, doc = run_json(capsys, ["matroid", "pushforward", "--hom", "valuation", trop_u23_file])
    assert code == 0
    assert doc["result"]["hyperfield"] == {"kind": "tropical", "rank": 1}


def test_exit_code_2_on_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = run(["matroid", "dual", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "broken.json:1" in err


@pytest.mark.parametrize("doc", [
    '{"kind": "field", "p": "x"}',
    '{"kind": "field", "p": 7.5}',
    '{"kind": "field", "p": 7.0}',
    '{"kind": "field", "p": true}',
    '{"kind": "tropical", "rank": 1.5}',
])
def test_exit_code_2_on_non_integer_parameters(tmp_path, capsys, doc):
    path = tmp_path / "field.json"
    path.write_text(doc)
    code = run(["check-hyperfield", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: $.") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    '{"kind": "field", "p": 4}',
    '{"kind": "stringent", "residue": "field", "p": 9, "rank": 1}',
    '{"kind": "tropical", "rank": -1}',
])
def test_check_hyperfield_exits_2_on_invalid_hyperfield(tmp_path, capsys, doc):
    # the same one-line refusal the matroid verbs give for this hyperfield
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run(["check-hyperfield", str(path)]) == 2
    assert capsys.readouterr().out == ""
    path.write_text(json.dumps({"hyperfield": json.loads(doc), "ground": ["1"], "circuits": [["0"]]}))
    assert run(["matroid", "dual", str(path)]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("doc, named", [
    ('{"kind": "field", "p": 5, "rank": 2}', "rank"),  # used to read GF(5)
    ('{"kind": "krasner", "rank": 3}', "rank"),  # used to read krasner()
    ('{"kind": "quotient", "p": 7, "subgroup": [1, 2, 4], "rank": 1}', "rank"),
    ('{"kind": "stringent", "residue": "sign", "rank": 1, "p": 4}', "modulus"),  # used to drop p
])
def test_check_hyperfield_refuses_parameters_its_kind_does_not_take(tmp_path, capsys, doc, named):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run(["check-hyperfield", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


@pytest.mark.axiom_budget
@pytest.mark.parametrize("doc", ['{"kind": "field", "p": 10007}', '{"kind": "tropical", "rank": 3}'])
def test_check_hyperfield_refuses_a_box_over_the_axiom_budget(tmp_path, capsys, deadline, doc):
    path = tmp_path / "big.json"
    path.write_text(doc)
    t0 = time.perf_counter()
    with deadline(10):
        code = run(["check-hyperfield", str(path)])
    assert time.perf_counter() - t0 < 0.5
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: axiom check of") and err.count("\n") == 1


def _tropical_u12_doc(rank):
    grade = {"g": [0] * rank}
    return {"hyperfield": {"kind": "tropical", "rank": rank}, "ground": ["1", "2"],
            "circuits": [[grade, grade]]}


@pytest.mark.parametrize("verb", [["check-hyperfield"], ["matroid", "vectors", "--enumerate"]])
def test_budgets_refuse_a_large_grade_rank_in_one_line(tmp_path, capsys, verb):
    # a box of 9^5000 elements: its count has more digits than int() will print
    doc = _tropical_u12_doc(5000)
    path = tmp_path / "rank5000.json"
    path.write_text(json.dumps(doc["hyperfield"] if verb == ["check-hyperfield"] else doc))
    assert run([*verb, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "more than 10^30" in err


def test_budgets_refuse_a_huge_grade_rank_at_once(deadline):
    H = Hyperfield.tropical(10**7)
    with deadline(5):
        for check in (lambda: check_axiom_budget(H, 1), lambda: check_budget(H, G3, 1)):
            with pytest.raises(ResourceLimitError, match=r"more than 10\^30"):
                check()


def test_exit_code_2_on_bool_residue(tmp_path, capsys):
    doc = {"hyperfield": {"kind": "field", "p": 5}, "ground": ["1", "2"],
           "circuits": [[{"r": 1}, {"r": True}]]}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code = run(["matroid", "dual", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: $.circuits[0][1].r") and err.count("\n") == 1


def test_exit_code_2_on_modulus_beyond_2_64(tmp_path, capsys):
    doc = {"hyperfield": {"kind": "field", "p": 2**64 + 13}, "ground": ["1"],
           "circuits": [[{"r": 1}]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = run(["matroid", "dual", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "below 2**64" in err and err.count("\n") == 1


def test_exit_code_2_on_missing_flag(capsys, u23_sign_file):
    code = run(["matroid", "minor", u23_sign_file])
    assert code == 2


def _one_line_error(capsys) -> bool:
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("verb", [["dual"], ["minor", "--delete", "1"], ["minor", "--contract", "1"]])
def test_exit_code_2_on_non_matroid_signature(tmp_path, capsys, verb):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NOT_A_MATROID))
    with pytest.raises(NotAnHMatroidError):
        run(["matroid", *verb, str(path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["matroid", *verb, str(path)])
    assert exit_info.value.code == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("flag", [
    ["rescale", "--rho", "[1]"],
    ["farkas", "--partition", "[1]"],
    ["farkas", "--partition", '{"G": 1}'],
])
def test_exit_code_2_on_json_flag_that_is_no_object(capsys, u23_sign_file, flag):
    assert run(["matroid", *flag, u23_sign_file]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["dual", "--window", "-1"],
    ["vectors"],
    ["vectors", "--enumerate", "--generate"],
    ["minor", "--delete", "9"],
], ids=["negative-window", "vectors-neither", "vectors-both", "minor-unknown-element"])
def test_usage_errors_exit_2(capsys, u23_sign_file, argv):
    assert run(["matroid", *argv, u23_sign_file]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("partition", [
    '{"X": ["1"]}',
    '{"G": ["1", "2"]}',
    '{"G": ["1", "2", "3"], "R": ["1"]}',
    '{"G": ["1", "2", "3", "9"]}',
    '{"G": ["1", "2", "3"], "X": []}',
])
def test_farkas_partition_that_is_no_partition_exits_2(capsys, u23_sign_file, partition):
    # checked before the timed search, so it is a usage error, not a failing record
    assert run(["matroid", "farkas", "--partition", partition, u23_sign_file]) == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("p, subgroup", [("8", "1"), ("7", "1,3")])
def test_quotient_bad_inputs_exit_2(capsys, p, subgroup):
    assert run(["quotient", "--p", p, "--subgroup", subgroup]) == 2
    assert _one_line_error(capsys)


def test_quotient_of_large_index_exits_2(capsys):
    t0 = time.perf_counter()
    assert run(["quotient", "--p", str(10**12 + 39), "--subgroup", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert _one_line_error(capsys)


def test_residue_refusal_exits_2(tmp_path, capsys):
    Q = Hyperfield.quotient(7, [1, 2, 4])
    one = Q.one()
    M = hmatroid_from_circuits(Q, G3, [hvector(Q, G3, {e: one for e in G3})])
    path = tmp_path / "quot.json"
    path.write_text(dumps(hmatroid_to_json(M)))
    assert run(["matroid", "residue", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "graded catalog" in captured.err


@pytest.mark.parametrize("ground, bad", [([True, False, None], "True"), ([1.0, "2", "3"], "1.0"),
                                         (["1", 2, "3"], "2")])
def test_non_string_ground_labels_exit_2(tmp_path, capsys, ground, bad):
    i = [repr(g) for g in ground].index(bad)
    doc = {"hyperfield": {"kind": "sign"}, "ground": ground, "circuits": [[{"r": "+"}] * 3]}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    assert run(["matroid", "dual", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: $.ground[{i}]: expected a string label, got {bad}\n"


def test_vectors_generate_over_non_stringent_hyperfield_exits_2(tmp_path, capsys):
    doc = {"hyperfield": {"kind": "quotient", "p": 7, "subgroup": [1, 2, 4]},
           "ground": list(G3),
           "circuits": [[{"r": 1}, {"r": 3}, "0"], [{"r": 1}, "0", {"r": 3}], ["0", {"r": 1}, {"r": 3}]]}
    path = tmp_path / "quot-u13.json"
    path.write_text(json.dumps(doc))
    assert run(["matroid", "vectors", "--generate", str(path)]) == 2
    assert _one_line_error(capsys)
    with pytest.raises(SystemExit) as exit_info:
        main(["matroid", "vectors", "--generate", str(path)])
    assert exit_info.value.code == 2
    assert _one_line_error(capsys)


def test_jobs_flag_is_gone(u23_sign_file):
    with pytest.raises(SystemExit) as exc:
        run(["matroid", "dual", "--jobs", "2", u23_sign_file])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["suite"],
    ["quotient", "--p", "7", "--subgroup", "1,2,4"],
    ["check-hyperfield", "sign.json"],
])
def test_max_ground_only_on_verbs_that_load_a_matroid(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--max-ground", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-ground 3" in capsys.readouterr().err


def test_suite_criteria_validation(capsys):
    assert run(["suite", "--criteria", "x"]) == 2
    assert run(["suite", "--criteria", "99"]) == 2
    code, doc = run_json(capsys, ["suite", "--criteria", "2"])
    assert code == 0
    assert len(doc["checks"]) == 1


@pytest.mark.parametrize("criteria", [",", ",,", ""])
def test_suite_refuses_a_selection_that_names_no_criterion(capsys, criteria):
    # an empty selection would run nothing and pass vacuously
    assert run(["suite", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --criteria: names no criterion, got {criteria!r}\n"


def test_rescale_rejects_zero_entries(capsys, u23_sign_file):
    code = run(["matroid", "rescale", "--rho", '{"1": "0", "2": {"r": "+"}, "3": {"r": "+"}}',
                u23_sign_file])
    assert code == 2
    code = run(["matroid", "rescale", "--rho", "{broken", u23_sign_file])
    assert code == 2


def test_rescale_refuses_labels_outside_the_ground_set(capsys, u23_sign_file):
    rho = {"1": {"r": "+"}, "2": {"r": "-"}, "3": {"r": "+"}, "9": {"r": "+"}}
    code = run(["matroid", "rescale", "--rho", json.dumps(rho), u23_sign_file])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --rho: scaling entries for elements outside the ground set: '9'\n"
    )


def test_budget_refusal(tmp_path, capsys):
    H = Hyperfield.sign()
    ground = tuple(str(i) for i in range(9))
    one = H.one()
    M = hmatroid_from_circuits(H, ground, [hvector(H, ground, {e: one for e in ground})])
    path = tmp_path / "big.json"
    path.write_text(dumps(hmatroid_to_json(M)))
    code = run(["matroid", "vectors", "--enumerate", str(path)])
    assert code == 2
    assert "max-ground" in capsys.readouterr().err


def _strip_elapsed(doc):
    for c in doc["checks"]:
        c.pop("elapsed_ms", None)
    return doc


def test_reports_are_deterministic(capsys, trop_u23_file):
    code1, doc1 = run_json(capsys, ["matroid", "vectors", "--enumerate", trop_u23_file])
    code2, doc2 = run_json(capsys, ["matroid", "vectors", "--enumerate", trop_u23_file])
    assert _strip_elapsed(doc1) == _strip_elapsed(doc2)


def test_elimination_witness_does_not_depend_on_the_hash_seed(tmp_path):
    # circuits 12 and 23 of a sign signature: eliminating 2 leaves {1, 3}, no circuit
    path = tmp_path / "no-elimination.json"
    path.write_text(json.dumps({
        "hyperfield": {"kind": "sign"},
        "ground": ["1", "2", "3"],
        "side": "left",
        "circuits": [[{"r": "+"}, {"r": "-"}, "0"], ["0", {"r": "+"}, {"r": "-"}]],
    }))
    src = str(Path(hypermat.__file__).resolve().parents[1])
    docs = []
    for seed in ("0", "6"):  # seeds on which the witnesses differed when scanned in set order
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "hypermat.cli", "matroid", "check", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        docs.append(_strip_elapsed(json.loads(proc.stdout)))
    assert docs[0] == docs[1]
    record = next(c for c in docs[0]["checks"] if c["check"] == "underlying matroid")
    assert record["witness"]["witness"] == [["1", "2"], ["2", "3"], "2"]


def test_out_flag_writes_file(tmp_path, capsys, u23_sign_file):
    out = tmp_path / "report.json"
    code = run(["matroid", "dual", u23_sign_file, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["command"] == "matroid dual"


def _u23_sign_doc(**changes):
    doc = {"hyperfield": {"kind": "sign"}, "ground": ["1", "2", "3"], "side": "left",
           "circuits": [[{"r": "+"}, {"r": "+"}, {"r": "+"}]]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("verb", [["check"], ["dual"], ["vectors", "--enumerate"]])
@pytest.mark.parametrize("changes", [
    {"side": "up"},
    {"ground": "abc"},
    {"ground": 5},
    {"circuits": [5]},
    {"circuits": {}},
])
def test_malformed_documents_exit_2_on_every_verb(tmp_path, capsys, verb, changes):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_u23_sign_doc(**changes)))
    assert run(["matroid", *verb, str(path)]) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exit_info:
        main(["matroid", *verb, str(path)])
    assert exit_info.value.code == 2
    assert _one_line_error(capsys)


@pytest.mark.parametrize("verb", [["check"], ["dual"], ["vectors", "--enumerate"], ["perfect"]])
def test_duplicate_ground_labels_exit_2_from_run(tmp_path, capsys, verb):
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(_u23_sign_doc(ground=["1", "1", "2"])))
    assert run(["matroid", *verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.ground[1]: duplicate label '1'\n"


@pytest.mark.parametrize("source, argv", [
    # U_{2,3} with circuit (+,-,+), deleting 1: the free matroid on 2, 3
    ({"circuits": [[{"r": "+"}, {"r": "-"}, {"r": "+"}]]}, ["minor", "--delete", "1"]),
    # the dual of the all-loops U_{0,2}
    ({"ground": ["1", "2"], "circuits": [[{"r": "+"}, "0"], ["0", {"r": "+"}]]}, ["dual"]),
])
def test_a_free_matroid_written_by_the_cli_reads_back(tmp_path, capsys, source, argv):
    path = tmp_path / "source.json"
    path.write_text(json.dumps(_u23_sign_doc(**source)))
    code, report = run_json(capsys, ["matroid", *argv, str(path)])
    free = report["result"]
    assert code == 0 and free["circuits"] == []
    free_path = tmp_path / "free.json"
    free_path.write_text(dumps(free))
    code, again = run_json(capsys, ["matroid", "check", str(free_path)])
    assert code == 0 and again["result"] == free
    first, *rest = free["ground"]
    plus = {"r": "+"}
    for verb in [["dual"], ["minor", "--delete", first], ["minor", "--contract", first],
                 ["rescale", "--rho", json.dumps({e: plus for e in free["ground"]})],
                 ["residue"], ["vectors", "--enumerate"], ["vectors", "--generate"],
                 ["perfect"], ["vector-axioms"], ["pushforward", "--hom", "valuation"],
                 ["farkas", "--partition", json.dumps({"R": [first], "G": rest, "B": []})]]:
        code = run(["matroid", *verb, str(free_path)])
        assert code in (0, 1), (verb, capsys.readouterr().err)
        assert json.loads(capsys.readouterr().out)["command"] == f"matroid {verb[0]}"


def test_check_refuses_a_ground_set_over_max_ground(tmp_path, capsys, deadline):
    # from_circuits scans all 2^24 subsets; the limit must refuse before it
    ground = [str(i) for i in range(24)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_u23_sign_doc(ground=ground, circuits=[[{"r": "+"}] * 24])))
    with deadline(10):
        code = run(["matroid", "check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--max-ground 7" in err and err.count("\n") == 1


def test_rescale_matches_the_library(tmp_path, capsys, trop_u23):
    # the README example, on trop-U23 and on the same circuits as a right matroid
    rho_json = '{"1":{"g":[1]},"2":{"g":[0]},"3":{"g":[0]}}'
    T = trop_u23.field
    rho = {"1": T.unit(1, (1,)), "2": T.one(), "3": T.one()}
    right = hmatroid_from_circuits(T, trop_u23.ground, trop_u23.circuits.reps, "right")
    for M in (trop_u23, right):
        path = tmp_path / f"trop-u23-{M.side}.json"
        path.write_text(dumps(hmatroid_to_json(M)))
        code, doc = run_json(capsys, ["matroid", "rescale", "--rho", rho_json, str(path)])
        assert code == 0
        assert doc["result"] == hmatroid_to_json(dataclasses.replace(M.rescale(rho), side=M.side))
        assert doc["result"] != hmatroid_to_json(M)
