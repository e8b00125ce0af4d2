"""Replay of the frozen verdict corpus.

``data/verdicts.json`` holds one record per cell of the criterion-8 sweep:
every k-part shape on at most 6 vertices, for each quota multiset of total
k = 2 or 3.  Each record keeps the status, the number of orbits the walk
checked and the canonical key of the counterexample.  The corpus was written
by the cover-search oracle walk, before the subset-DP prune replaced it, and
every later version of the walk must reproduce it exactly.

Regenerate only on purpose (for example when the corpus grows new cells):
``PYTHONPATH=src python tests/test_verdicts.py``.
"""

import json
from pathlib import Path

import pytest

from lchoose.assignment import canonical_key
from lchoose.budget import Budget
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda
from lchoose.solver import NOT_CHOOSABLE, is_choosable

CORPUS = Path(__file__).parent / "data" / "verdicts.json"
LAMBDAS = ((2,), (1, 1), (3,), (1, 2), (1, 1, 1))


def _cells():
    for parts in LAMBDAS:
        k = sum(parts)
        for n in range(k, 7):
            for sizes in part_vectors(n, k):
                yield sizes, parts


def _record(sizes, parts, budget=None) -> dict:
    graph, lam = MultipartiteGraph(sizes), Lambda(parts)
    v = is_choosable(graph, lam, budget)
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


@pytest.mark.parametrize(
    "sizes, parts, status, nodes, orbits",
    [
        ((4, 2), (2,), NOT_CHOOSABLE, 19_746, 81),
        ((2, 2, 2), (1, 2), "CHOOSABLE", 138_935, 95),
    ],
)
def test_walk_node_anchors(sizes, parts, status, nodes, orbits):
    budget = Budget()
    record = _record(sizes, parts, budget)
    assert (record["status"], budget.nodes, record["orbits_checked"]) == (status, nodes, orbits)


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    records = [_record(sizes, parts) for sizes, parts in _cells()]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n", encoding="ascii")
    print(f"wrote {len(records)} records to {CORPUS}")
