"""Replay of the frozen verdict corpus.

``data/verdicts.json`` holds one record per cell: first the criterion-8
sweep, every k-part shape on at most 6 vertices for each quota multiset of
total k = 2 or 3; then the total-4 cells on at most 5 vertices, (1,1,1,1)
and (2,1,1,1) for each quota multiset of total 4; then the three-part shapes
on 7 vertices for the quotas (1,2) and (1,1,1).  Each record keeps the
status, the number of orbits the walk checked and the canonical key of the
counterexample.  The totals 2 and 3 were written by the cover-search oracle
walk, before the subset-DP prune replaced it, the total-4 cells by the
subset-DP walk, and the 7-vertex cells by the walk as it stood before the
lex-leader cut of its first class; every later version of the walk must
reproduce them exactly.

Regenerate only on purpose (for example when the corpus grows new cells):
``PYTHONPATH=src python tests/test_verdicts.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lchoose import assignment
from lchoose.assignment import AssignmentEnumerator, canonical_key
from lchoose.budget import Budget
from lchoose.bundles import bundle_phi2
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda
from lchoose.search import phi_search
from lchoose.solver import INCONCLUSIVE, NOT_CHOOSABLE, is_choosable

from helpers import ReferenceAssignmentEnumerator

CORPUS = Path(__file__).parent / "data" / "verdicts.json"
LAMBDAS = ((2,), (1, 1), (3,), (1, 2), (1, 1, 1))
TOTAL_4_LAMBDAS = ((4,), (2, 2), (1, 3), (1, 1, 2))
SEVEN_VERTEX_LAMBDAS = ((1, 2), (1, 1, 1))


def _cells():
    for lambdas, n_max in ((LAMBDAS, 6), (TOTAL_4_LAMBDAS, 5)):
        for parts in lambdas:
            k = sum(parts)
            for n in range(k, n_max + 1):
                for sizes in part_vectors(n, k):
                    yield sizes, parts
    for parts in SEVEN_VERTEX_LAMBDAS:
        for sizes in part_vectors(7, 3):
            yield sizes, parts


def _record(sizes, parts) -> dict:
    graph, lam = MultipartiteGraph(sizes), Lambda(parts)
    v = is_choosable(graph, lam)
    key = None
    if v.counterexample is not None:
        la, partition = v.counterexample
        key = canonical_key(la, graph, lam, partition).decode("ascii")
    return {
        "parts": list(sizes),
        "lambda": list(parts),
        "status": v.status,
        "orbits_checked": v.orbits_checked,
        "counterexample_key": key,
    }


def _corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="ascii"))


def test_corpus_covers_the_criterion_8_cells():
    got = [(tuple(r["parts"]), tuple(r["lambda"])) for r in _corpus()]
    assert got == list(_cells())
    assert sum(r["status"] == NOT_CHOOSABLE for r in _corpus()) > 0


def test_verdict_corpus_replays():
    mismatches = [
        (record, got)
        for record in _corpus()
        if (got := _record(tuple(record["parts"]), tuple(record["lambda"]))) != record
    ]
    assert mismatches == []


def _decided_payloads():
    # every verdict of the corpus cells and one refused before the walk: no
    # cut that skips only subtrees without a counted leaf may move them
    for sizes, parts in _cells():
        yield is_choosable(MultipartiteGraph(sizes), Lambda(parts)).to_dict()
    yield is_choosable(MultipartiteGraph((4, 4, 4, 4, 4)), Lambda((1, 1, 1, 1, 1))).to_dict()


def _starved_payloads():
    # the corpus cells on at most 6 vertices starved of nodes, and the
    # payloads that summarise starved sweeps: where a walk stops, and so what
    # it has counted, moves with every cut
    for sizes, parts in _cells():
        if sum(sizes) <= 6:
            yield is_choosable(MultipartiteGraph(sizes), Lambda(parts), Budget(max_nodes=30)).to_dict()
    yield bundle_phi2(budget_nodes=5)
    yield phi_search(Lambda((2,)), 6, budget_nodes=20).to_dict()


def _digest(payloads) -> str:
    docs = b"\n".join(json.dumps(doc, sort_keys=True).encode("ascii") for doc in payloads)
    return hashlib.sha256(docs).hexdigest()


# the decided digest was computed with the walk as it stood before the
# lookahead cut, and must not move; the starved one moves with every cut
DECIDED_DIGEST = "2f985cd90744331fbacb4827137435911b6413080a9f6e51697b82a8b4b10734"
STARVED_DIGEST = "194df11bc758f340d3e838f24d19df8bfbb47b640a3a4b7d6fa9450f26856521"


def test_verdict_payloads_pinned():
    assert _digest(_decided_payloads()) == DECIDED_DIGEST


def test_starved_payloads_pinned():
    assert _digest(_starved_payloads()) == STARVED_DIGEST


# the counterexample documents the anchored walks return, colour numbering
# included
ANCHOR_COUNTEREXAMPLES = {
    ((4, 2), (2,)): {
        "universe": 4,
        "lists": [[1, 3], [1, 2], [0, 3], [0, 2], [2, 3], [0, 1]],
        "partition": [0, 0, 0, 0],
        "lambda": [2],
    },
}


# vertex-group fetches per anchored walk, one per leaf test, keyed by status
ANCHOR_LEAF_CHECKS = {NOT_CHOOSABLE: 86, "CHOOSABLE": 142, INCONCLUSIVE: 88}


@pytest.mark.parametrize(
    "sizes, parts, status, nodes, orbits",
    [
        ((4, 2), (2,), NOT_CHOOSABLE, 261, 81),
        ((2, 2, 2), (1, 2), "CHOOSABLE", 677, 95),
        # a truncated walk, about 60% of the way: the budget is one node
        # short of the count, because the tick that overruns it is counted too
        ((2, 2, 2), (1, 2), INCONCLUSIVE, 401, 61),
    ],
)
def test_walk_node_anchors(sizes, parts, status, nodes, orbits, monkeypatch):
    # every leaf test fetches the vertex group once, which is what the
    # benchmark's ``assignment.canonical.leaf_checks`` counts
    fetched = []
    group = assignment.vertex_group
    monkeypatch.setattr(assignment, "vertex_group", lambda ps: fetched.append(ps) or group(ps))
    budget = Budget(max_nodes=nodes - 1 if status == INCONCLUSIVE else None)
    doc = is_choosable(MultipartiteGraph(sizes), Lambda(parts), budget).to_dict()
    assert (doc["status"], budget.nodes, doc["orbits_checked"]) == (status, nodes, orbits)
    assert doc["counterexample"] == ANCHOR_COUNTEREXAMPLES.get((sizes, parts))
    assert len(fetched) == ANCHOR_LEAF_CHECKS[status]


def _walk(enumerator, sizes, parts, prune, max_nodes=None):
    # the first yield when pruned (the counterexample a verdict takes), else
    # the whole stream; then orbits, truncation and nodes
    budget = Budget(max_nodes=max_nodes)
    enum = enumerator(MultipartiteGraph(sizes), Lambda(parts), budget, prune_colourable=prune)
    stream = [next(iter(enum), None)] if prune else list(enum)
    return stream, enum.orbits_seen, enum.truncated, budget.nodes


@pytest.mark.parametrize("sizes, parts", [
    *((sizes, parts) for sizes, parts in _cells() if sum(sizes) <= 6),
    ((5, 1, 1), (1, 2)), ((5, 1, 1), (1, 1, 1)), ((3, 2, 2), (1, 1, 1)),
])
def test_pruned_walk_matches_the_reference_walk(sizes, parts):
    # deciding colourable children in the parent skips only nodes that hold
    # no leaf: same first counterexample, orbits and truncation, fewer nodes
    *ref, ref_nodes = _walk(ReferenceAssignmentEnumerator, sizes, parts, True)
    *got, nodes = _walk(AssignmentEnumerator, sizes, parts, True)
    assert got == ref and nodes <= ref_nodes


@pytest.mark.parametrize("sizes, parts, max_nodes", [
    *((sizes, parts, None) for sizes, parts in _cells() if sum(sizes) <= 4),
    # larger walks, cut by the budget
    ((2, 1, 1, 1), (1, 1, 2), 5_000),
    ((3, 2, 1), (3,), 5_000),
    # every cell of total 2 or 3 on 5 vertices, and the 2-part ones on 6
    *((sizes, parts, None) for sizes, parts in _cells()
      if sum(parts) <= 3 and sum(sizes) == 5 or len(sizes) == 2 and sum(sizes) == 6),
])
def test_unpruned_walk_matches_the_reference_walk(sizes, parts, max_nodes):
    # without the colourability prune the walk enters a subset of the
    # reference's states: the scan bound skips only rejected types, the peak
    # cut only prefixes with no orbit maximum below, and the leaf test is exact
    stream, orbits, truncated, nodes = _walk(AssignmentEnumerator, sizes, parts, False, max_nodes)
    ref = _walk(ReferenceAssignmentEnumerator, sizes, parts, False, max_nodes)
    if max_nodes is None:
        assert (stream, orbits, truncated) == ref[:3] and nodes <= ref[3]
    else:  # cut at the same node, or further on along the same stream
        assert (stream, orbits, truncated, nodes) == ref or stream[:len(ref[0])] == ref[0]
    assert truncated == (max_nodes is not None)


def test_peak_cut_enters_fewer_nodes_than_the_reference_walk():
    # (4,2)/(1,1): both top-quota classes meet types whose peak beats the
    # lead, which the single-generator checks let through
    got = _walk(AssignmentEnumerator, (4, 2), (1, 1), False)
    ref = _walk(ReferenceAssignmentEnumerator, (4, 2), (1, 1), False)
    assert got[:3] == ref[:3] and len(got[0]) == got[1] == 978
    assert (got[3], ref[3]) == (2_619, 3_211)


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    records = [_record(sizes, parts) for sizes, parts in _cells()]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="ascii")
    print(f"wrote {len(records)} records to {CORPUS}")
