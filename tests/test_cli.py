import json
import time

import pytest

from lchoose.cli import build_parser, main


def run(capsys, argv):
    """Drive the CLI in-process; return (exit code, parsed stdout or None)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level usage failures
        code = exc.code
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_phi_plain(capsys):
    code, doc = run(capsys, ["phi", "-l", "1,3"])
    assert code == 0
    assert doc["schema"] == "lchoose/1"
    assert doc["phi"] == 12
    assert doc["bounds"] == [11, 12]
    assert doc["search"] is None


def test_phi_trivial(capsys):
    code, doc = run(capsys, ["phi", "-l", "1,1,1"])
    assert code == 0
    assert doc["phi"] == "infinite"
    assert doc["bounds"] is None


def test_phi_with_search(capsys):
    code, doc = run(capsys, ["phi", "-l", "2", "--search-up-to", "6"])
    assert code == 0
    assert doc["search"]["minimum"] == 6
    assert doc["search"]["exact"] is True


def test_phi_search_budget_inconclusive(capsys):
    code, doc = run(capsys, ["phi", "-l", "2", "--search-up-to", "6",
                             "--budget-nodes", "10"])
    assert code == 2
    assert doc["search"]["minimum"] is None
    assert doc["search"]["exact"] is False


def test_check_exit_codes(capsys):
    code, doc = run(capsys, ["check", "-g", "2,2", "-l", "2"])
    assert code == 0 and doc["status"] == "CHOOSABLE"
    code, doc = run(capsys, ["check", "-g", "4,2", "-l", "2"])
    assert code == 1 and doc["status"] == "NOT_CHOOSABLE"
    assert doc["counterexample"] is not None
    code, doc = run(capsys, ["check", "-g", "4,2", "-l", "2", "--budget-nodes", "5"])
    assert code == 2 and doc["status"] == "INCONCLUSIVE"


def test_solve_round_trip(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"family": "k42", "k": 2, "sizes": [1, 0, 1]}))
    out = tmp_path / "inst.json"
    code, _ = run(capsys, ["gen", str(manifest), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    inst = doc["instances"][0]
    assert inst["graph"] == "4,2"
    body = tmp_path / "a.json"
    body.write_text(json.dumps({k: inst[k] for k in
                                ("universe", "lists", "partition", "lambda")}))
    code, solved = run(capsys, ["solve", "-g", inst["graph"], str(body)])
    assert code == 1
    assert solved["colourable"] is False

    easy = tmp_path / "easy.json"
    easy.write_text(json.dumps(
        {"universe": 2, "lists": [[0], [0, 1], [1]], "partition": None, "lambda": None}
    ))
    code, solved = run(capsys, ["solve", "-g", "2,1", str(easy)])
    assert code == 0
    assert solved["colouring"] is not None


def test_solve_a_part_with_a_thousand_colour_cover(tmp_path, capsys):
    # exits 0 with the colouring, not 1 after a recursion error
    body = tmp_path / "a.json"
    body.write_text(json.dumps(
        {"universe": 1100, "lists": [[i] for i in range(1100)], "partition": None, "lambda": None}
    ))
    code, solved = run(capsys, ["solve", "-g", "1100", str(body)])
    assert code == 0
    assert solved["colouring"] == list(range(1100))


def test_solve_vertex_mismatch(tmp_path, capsys):
    body = tmp_path / "a.json"
    body.write_text(json.dumps(
        {"universe": 1, "lists": [[0], [0]], "partition": None, "lambda": None}
    ))
    code, _ = run(capsys, ["solve", "-g", "2,1", str(body)])
    assert code == 3


def test_solve_malformed_document(tmp_path, capsys):
    body = tmp_path / "a.json"
    body.write_text(json.dumps({"universe": 2}))  # lists missing
    code, _ = run(capsys, ["solve", "-g", "1,1", str(body)])
    assert code == 3
    body.write_text("{not json")
    code, _ = run(capsys, ["solve", "-g", "1,1", str(body)])
    assert code == 3


def test_solve_refuses_a_document_with_non_integer_quotas(tmp_path, capsys):
    body = tmp_path / "a.json"
    doc = {"universe": 2, "lists": [[0], [1]]}
    for extra in ({"lambda": [1.9, 1.2]}, {"lambda": [1, 1], "partition": [0.5, 1.4]}):
        body.write_text(json.dumps({**doc, **extra}))
        code, out = run(capsys, ["solve", "-g", "1,1", str(body)])
        assert code == 3 and out is None
    body.write_text(json.dumps({"universe": 2, "lists": [[True, 0], [1]]}))
    code, out = run(capsys, ["solve", "-g", "1,1", str(body)])
    assert code == 3 and out is None


def test_solve_rejects_a_universe_beyond_its_lists(tmp_path, capsys, monkeypatch):
    from lchoose.assignment import ListAssignment

    def built(cls, universe, lists):
        pytest.fail("bitmasks were built before the document was validated")

    monkeypatch.setattr(ListAssignment, "from_lists", classmethod(built))
    body = tmp_path / "a.json"
    for doc in ({"universe": 10**12, "lists": [[0]]}, {"universe": 2, "lists": [[0], [7]]}):
        body.write_text(json.dumps(doc))
        code, out = run(capsys, ["solve", "-g", "1,1", str(body)])
        assert code == 3 and out is None


def test_threads_below_one_are_usage_errors(capsys):
    code, out = run(capsys, ["phi", "-l", "2", "--search-up-to", "3", "--threads", "0"])
    assert code == 3 and out is None
    code, out = run(capsys, ["verify", "phi2-exhaustive", "--threads", "-1"])
    assert code == 3 and out is None
    # the parser refuses them, so commands that start no pool refuse them too
    for argv in (["phi", "-l", "1,1", "--search-up-to", "4", "--threads", "0"],
                 ["verify", "tuple-audit", "--threads", "0"],
                 ["phi", "-l", "1,1", "--threads", "two"]):
        code, out = run(capsys, argv)
        assert code == 3 and out is None


def test_lchoose_threads_is_checked_like_the_flag(capsys, monkeypatch):
    for value in ("0", "abc"):
        monkeypatch.setenv("LCHOOSE_THREADS", value)
        for argv in (["phi", "-l", "2", "--search-up-to", "3"], ["verify", "tuple-audit"]):
            code, out = run(capsys, argv)
            assert code == 3 and out is None
    monkeypatch.setenv("LCHOOSE_THREADS", "2")
    assert build_parser().parse_args(["verify", "tuple-audit"]).threads == 2
    code, doc = run(capsys, ["phi", "-l", "2", "--search-up-to", "3"])
    assert code == 0 and doc["phi"] == 6
    # the flag still wins over the environment
    assert build_parser().parse_args(["phi", "-l", "2", "--threads", "1"]).threads == 1


def test_gen_lemma1_and_threes(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"family": "lemma1", "ones": 1, "twos": 0, "threes": 1}))
    code, doc = run(capsys, ["gen", str(manifest)])
    assert code == 0
    assert doc["instances"][0]["lambda"] == [1, 3]

    manifest.write_text(json.dumps({"family": "threes", "k": 2, "count": 1}))
    code, doc = run(capsys, ["gen", str(manifest)])
    assert code == 0
    inst = doc["instances"][0]
    assert inst["graph"] == "3,3"
    assert inst["universe"] == 3

    manifest.write_text(json.dumps({"family": "mystery"}))
    code, _ = run(capsys, ["gen", str(manifest)])
    assert code == 3


@pytest.mark.parametrize("count", [0, -1])
def test_gen_threes_rejects_nonpositive_count(tmp_path, capsys, count):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"family": "threes", "k": 2, "count": count}))
    assert main(["gen", str(manifest)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "count" in err


@pytest.mark.parametrize("manifest", [
    [1, 2],
    "threes",
    {"family": "threes", "k": 2, "count": True},
    {"family": "threes", "k": 4.7},
    {"family": "threes", "k": "4"},
    {"family": "lemma1", "ones": 1, "twos": 0, "threes": 1.0},
    {"family": "k42", "k": 2, "sizes": [1, False, 1]},
    {"family": "k42", "k": 2, "sizes": 7},
])
def test_gen_rejects_malformed_manifests(tmp_path, capsys, manifest):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["gen", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "manifest" in err and "Traceback" not in err


@pytest.mark.parametrize("manifest, field", [
    ({"family": "threes", "count": 1}, "k"),
    ({"family": "k42", "sizes": [1, 0, 1]}, "k"),
    ({"family": "k42", "k": 2}, "sizes"),
    ({"family": "lemma1", "ones": 1, "threes": 1}, "twos"),
])
def test_gen_names_a_missing_manifest_field(tmp_path, capsys, manifest, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["gen", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"manifest lacks the field {field!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("sizes", [[1, 2], {}, [1, 2, 3, 4]])
def test_gen_k42_names_a_sizes_field_of_the_wrong_length(tmp_path, capsys, sizes):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"family": "k42", "k": 6, "sizes": sizes}))
    assert main(["gen", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "sizes" in err and "unpack" not in err and "Traceback" not in err


def test_gen_threes_refuses_large_groups_at_once(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"family": "threes", "k": 12, "count": 1}))
    start = time.perf_counter()
    assert main(["gen", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "symmetry group too large" in err


def test_verify_bundle(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    code, doc = run(capsys, ["verify", "tuple-audit", "--out", str(out)])
    assert code == 0
    assert doc["ok"] is True
    assert doc["schema"] == "lchoose/1"
    assert json.loads(out.read_text())["ok"] is True


def test_verify_unknown_bundle(capsys):
    code, _ = run(capsys, ["verify", "no-such-bundle"])
    assert code == 3


@pytest.mark.parametrize("extra, code, summary", [
    ({"inconclusive": True}, 2, "bundle tuple-audit: inconclusive (budget)"),
    ({"inconclusive": False}, 1, "bundle tuple-audit: FAILED"),
    ({}, 1, "bundle tuple-audit: FAILED"),
])
def test_verify_exit_codes_of_a_failed_bundle(capsys, monkeypatch, extra, code, summary):
    # a stub bundle result, so no walk count decides which path is taken
    monkeypatch.setattr("lchoose.cli.run_bundle",
                        lambda name, **_: {"bundle": name, "ok": False, **extra})
    assert main(["verify", "tuple-audit"]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"schema": "lchoose/1", "command": "verify",
                                        "bundle": "tuple-audit", "ok": False, **extra}
    assert captured.err.strip() == summary


def test_usage_errors(capsys):
    code, _ = run(capsys, ["phi", "-l", "0,2"])
    assert code == 3  # quotas must be positive
    code, _ = run(capsys, ["phi"])
    assert code == 3  # missing -l
    code, _ = run(capsys, ["frobnicate"])
    assert code == 3  # unknown subcommand
    code, _ = run(capsys, ["check", "-g", "oops", "-l", "2"])
    assert code == 3  # unparsable graph


def test_missing_file(capsys, tmp_path):
    code, _ = run(capsys, ["gen", str(tmp_path / "absent.json")])
    assert code == 3


def test_oversized_shape_refused_before_the_walk(capsys):
    # the vertex group of K(10,10) has 10!*10!*2 elements; the verdict must
    # come before any per-subset work on the 20 vertices
    start = time.perf_counter()
    code, doc = run(capsys, ["check", "-g", "10,10", "-l", "2"])
    elapsed = time.perf_counter() - start
    assert code == 2 and doc["status"] == "INCONCLUSIVE"
    assert doc["exhaustive"] is False and doc["orbits_checked"] == 0
    assert "symmetry group too large" in doc["reason"]
    assert elapsed < 1.0


def test_oversized_shape_decided_by_the_greedy_bound(capsys):
    # K(9,1,1,1) has a 2,177,280-element group, past the limit, but its parts
    # peel greedily for lists of 4 colours: the big part leaves 3 vertices
    # outside, then each single leaves at most 2
    start = time.perf_counter()
    code, doc = run(capsys, ["check", "-g", "9,1,1,1", "-l", "4"])
    elapsed = time.perf_counter() - start
    assert code == 0 and doc["status"] == "CHOOSABLE"
    assert doc["exhaustive"] is True and doc["orbits_checked"] == 0
    assert "greedy bound" in doc["reason"] and doc["counterexample"] is None
    assert elapsed < 1.0


def test_budget_nodes_below_zero_are_usage_errors(capsys):
    for argv in (["phi", "-l", "2", "--search-up-to", "3", "--budget-nodes", "-3"],
                 ["check", "-g", "2,2", "-l", "2", "--budget-nodes", "-1"],
                 ["verify", "tuple-audit", "--budget-nodes", "-3"],
                 ["check", "-g", "2,2", "-l", "2", "--budget-nodes", "many"]):
        code, out = run(capsys, argv)
        assert code == 3 and out is None
    # zero is a budget that stops at the first node
    code, doc = run(capsys, ["check", "-g", "2,2", "-l", "2", "--budget-nodes", "0"])
    assert code == 2 and doc["reason"] == "budget exhausted"


def test_search_up_to_below_zero_is_a_usage_error(capsys):
    for argv in (["phi", "-l", "2", "--search-up-to", "-1"],
                 ["phi", "-l", "2", "--search-up-to", "six"]):
        code, out = run(capsys, argv)
        assert code == 3 and out is None
    code, doc = run(capsys, ["phi", "-l", "2", "--search-up-to", "0"])
    assert code == 0 and doc["search"]["n_max"] == 0


def test_removed_flags_are_usage_errors(capsys):
    code, _ = run(capsys, ["check", "-g", "2,2", "-l", "2", "--threads", "2"])
    assert code == 3
    code, _ = run(capsys, ["verify", "tuple-audit", "--seed", "1"])
    assert code == 3


def test_budget_seconds_on_check_and_phi(capsys):
    # the clock is read every 1,024 nodes, so a zero budget stops the walk there
    code, doc = run(capsys, ["check", "-g", "3,3,3", "-l", "3", "--budget-seconds", "0"])
    assert code == 2 and doc["status"] == "INCONCLUSIVE" and doc["reason"] == "budget exhausted"
    # the 7- and 8-vertex cells of the single quota 3 walk past 1,024 nodes
    code, doc = run(capsys, ["phi", "-l", "3", "--search-up-to", "8", "--budget-seconds", "0"])
    assert code == 2 and doc["search"]["exact"] is False
    assert {c["reason"] for c in doc["search"]["cells"] if not c["exhaustive"]} == {"budget exhausted"}
    # a generous clock changes nothing
    code, doc = run(capsys, ["phi", "-l", "2", "--search-up-to", "6", "--budget-seconds", "600"])
    assert code == 0 and doc["search"]["minimum"] == 6 and doc["search"]["exact"] is True
    code, doc = run(capsys, ["check", "-g", "4,2", "-l", "2", "--budget-seconds", "600"])
    assert code == 1 and doc["status"] == "NOT_CHOOSABLE"


@pytest.mark.parametrize("value", ["-1", "-0.5", "abc", "nan", ""])
def test_budget_seconds_must_be_a_nonnegative_number(capsys, value):
    for argv in (["check", "-g", "2,2", "-l", "2", "--budget-seconds", value],
                 ["phi", "-l", "2", "--search-up-to", "3", "--budget-seconds", value]):
        code, out = run(capsys, argv)
        assert code == 3 and out is None


def test_many_quota_classes_set_up_in_linear_time(capsys):
    # 100,000 classes of quota 2 on K(2,2): the walk's setup is one pass over
    # the classes, and the root's children are all cut by the lookahead
    start = time.perf_counter()
    code, doc = run(capsys, ["check", "-g", "2,2", "-l", "2*100000", "--budget-seconds", "1"])
    elapsed = time.perf_counter() - start
    assert code == 0 and doc["status"] == "CHOOSABLE"
    assert doc["exhaustive"] is True and doc["orbits_checked"] == 0
    assert elapsed < 2.0


def test_summaries_spell_runs_of_equal_quotas(capsys):
    # stderr spells a run of equal quotas as v*m where that is shorter; the
    # payload's lambda field still lists every part
    assert main(["check", "-g", "2,2", "-l", "2*100000", "--budget-seconds", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "2,2 is 2*100000-choosable (exhaustive)\n"
    assert len(captured.err) < 1024
    assert json.loads(captured.out)["lambda"] == [2] * 100000
    assert main(["check", "-g", "3,3", "-l", "2"]) == 1
    assert capsys.readouterr().err == "3,3 is not 2-choosable; counterexample attached\n"
    assert main(["phi", "-l", "3,1,1,1,2,2"]) == 0
    assert capsys.readouterr().err.startswith("phi(1*3,2,2,3) = ")
    assert main(["phi", "-l", "1*4"]) == 0
    assert capsys.readouterr().err.startswith("phi(1*4) is infinite")
