import pytest

from lchoose.bundles import (
    bundle_lemma1_grid,
    bundle_phi2,
    bundle_tuple_audit,
    k42_block_sizes,
    run_bundle,
)


def test_k42_block_sizes():
    assert k42_block_sizes(2) == [(0, 1, 1), (1, 0, 1)]
    assert k42_block_sizes(4) == [(0, 2, 2), (1, 1, 2), (2, 0, 2)]
    assert len(k42_block_sizes(6)) == 4
    with pytest.raises(ValueError):
        k42_block_sizes(3)
    with pytest.raises(ValueError):
        k42_block_sizes(0)


def test_phi2_bundle():
    payload = bundle_phi2()
    assert payload["ok"] is True
    assert payload["phi"] == 6
    assert set(payload["witnesses"]) == {"4,2", "3,3"}
    assert all(v["status"] == "NOT_CHOOSABLE" for v in payload["witnesses"].values())
    assert payload["below"]["ok"] is True


def test_phi2_bundle_starved():
    payload = bundle_phi2(budget_nodes=5)
    assert payload["ok"] is False
    assert payload["inconclusive"] is True


def test_lemma1_bundle():
    payload = bundle_lemma1_grid()
    assert payload["ok"] is True
    lams = [row["lambda"] for row in payload["instances"]]
    assert lams == [[1, 3], [1, 2, 3], [1, 1, 3]]
    assert all(row["colourable"] is False for row in payload["instances"])


def test_lemma1_bundle_reports_a_structure_error_as_a_failed_row(monkeypatch):
    import lchoose.bundles as bundles

    real = bundles.verify_gadget

    def verify(inst):
        if inst.lam.parts == (1, 2, 3):
            raise bundles.StructureError("tampered")
        return real(inst)

    monkeypatch.setattr(bundles, "verify_gadget", verify)
    payload = bundle_lemma1_grid()
    assert payload["ok"] is False and payload["inconclusive"] is False
    assert [row["ok"] for row in payload["instances"]] == [True, False, True]
    assert payload["instances"][1] == {"ones": 1, "twos": 1, "threes": 1, "lambda": [1, 2, 3],
                                       "ok": False, "error": "tampered"}


def test_parity_bundle_budgeted():
    # a small budget truncates the miss-vector slice but must not break
    # anything that was actually examined
    payload = run_bundle("parity-k4", budget_nodes=300)
    assert payload["ok"] is True
    assert payload["threes_truncated"] is True
    names = [row["instance"] for row in payload["instances"]]
    assert sum(n.startswith("k42") for n in names) == 3
    for row in payload["instances"]:
        assert row["colourable"] is False
        assert all(v["fast"] and v["search"] for v in row["odd_obstructed"].values())


def test_tuple_audit_bundle():
    payload = bundle_tuple_audit()
    assert payload["ok"] is True
    assert payload["finder_cases"] == 2 * 7**4
    assert payload["finder_mismatches"] == []
    assert all(cell["ok"] for cell in payload["recipe_cells"])


def test_tuple_audit_reports_a_finder_mismatch(monkeypatch):
    import lchoose.bundles as bundles

    real = bundles.find_reducible_4tuple
    monkeypatch.setattr(bundles, "find_reducible_4tuple",
                        lambda caps, target: None if (caps, target) == ((6, 6, 6, 6), 3)
                        else real(caps, target))
    payload = bundle_tuple_audit()
    assert payload["ok"] is False and payload["inconclusive"] is False
    assert payload["finder_cases"] == 2 * 7**4
    assert payload["finder_mismatches"] == [{"target": 3, "caps": [6, 6, 6, 6]}]
    assert all(cell["ok"] for cell in payload["recipe_cells"])


def test_run_bundle_forwards_only_what_each_bundle_reads(monkeypatch):
    import lchoose.bundles as bundles

    calls = {}
    for name in bundles.BUNDLES:
        monkeypatch.setitem(bundles.BUNDLES, name,
                            lambda name=name, **kw: calls.setdefault(name, kw))
    for name in bundles.BUNDLES:
        run_bundle(name, threads=2, budget_nodes=7)
    assert calls == {
        "phi2-exhaustive": {"threads": 2, "budget_nodes": 7},
        "lemma1-grid": {},
        "parity-k4": {"budget_nodes": 7},
        "tuple-audit": {},
    }


def test_run_bundle_unknown():
    with pytest.raises(KeyError):
        run_bundle("no-such-bundle")
