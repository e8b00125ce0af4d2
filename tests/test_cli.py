import json
import time

import pytest

from lchoose.cli import main


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
    # the vertex group of K(10,10) has 10!*10!*2 elements; the refusal must
    # come before any per-subset work on the 20 vertices
    start = time.perf_counter()
    code = main(["check", "-g", "10,10", "-l", "2"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "symmetry group too large" in captured.err
    assert elapsed < 1.0


def test_removed_flags_are_usage_errors(capsys):
    code, _ = run(capsys, ["check", "-g", "2,2", "-l", "2", "--threads", "2"])
    assert code == 3
    code, _ = run(capsys, ["verify", "tuple-audit", "--seed", "1"])
    assert code == 3
