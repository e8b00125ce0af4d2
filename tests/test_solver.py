import random
from itertools import chain

import pytest

from lchoose.assignment import ListAssignment, is_lambda_assignment
from lchoose.budget import Budget
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda
from lchoose.solver import (
    CHOOSABLE,
    INCONCLUSIVE,
    NOT_CHOOSABLE,
    Verdict,
    find_colouring,
    is_choosable,
    make_colourability_oracle,
)

from helpers import (
    colouring_micro_grid,
    colouring_random_corpus,
    naive_colouring_exists,
    naive_is_choosable,
)


def check_proper(graph, assignment, colouring):
    for v in range(graph.n):
        assert assignment.masks[v] >> colouring.colour_of[v] & 1, "colour not in list"
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if graph.adjacent(u, v):
                assert colouring.colour_of[u] != colouring.colour_of[v]


def random_assignment(rng, n, universe):
    full = (1 << universe) - 1
    while True:
        masks = [rng.randrange(1, full + 1) for _ in range(n)]
        union = 0
        for m in masks:
            union |= m
        if union == full:
            return ListAssignment(universe, tuple(masks))


def test_find_colouring_matches_brute_force():
    rng = random.Random(99)
    shapes = [
        MultipartiteGraph(sizes)
        for n in range(1, 7)
        for k in range(1, n + 1)
        for sizes in part_vectors(n, k)
    ]
    for _ in range(2500):
        G = rng.choice(shapes)
        la = random_assignment(rng, G.n, rng.randint(1, 5))
        got = find_colouring(G, la)
        assert (got is not None) == naive_colouring_exists(G, la), (G, la)
        if got is not None:
            check_proper(G, la, got)


def test_find_colouring_hand_cases():
    G = MultipartiteGraph((3, 3))
    bad = ListAssignment.from_lists(
        3, [[0, 1], [0, 2], [1, 2], [0, 1], [0, 2], [1, 2]]
    )
    assert find_colouring(G, bad) is None
    easy = ListAssignment.from_lists(2, [[0], [0], [0], [1], [1], [1]])
    col = find_colouring(G, easy)
    assert col is not None
    check_proper(G, easy, col)


def test_find_colouring_size_mismatch():
    with pytest.raises(ValueError):
        find_colouring(MultipartiteGraph((2, 1)), ListAssignment(1, (1, 1)))


def test_colourability_oracle_matches_both_colourers():
    # the subset-DP predicate against the cover search and the product
    # colourer, on criterion 7's random corpus and its exhaustive grid
    oracles = {}
    cases = 0
    for graph, la in chain(colouring_random_corpus(seed=777), colouring_micro_grid()):
        if graph not in oracles:
            oracles[graph] = make_colourability_oracle(graph)
        got = oracles[graph](la.masks)
        assert got is (find_colouring(graph, la) is not None), (graph, la)
        assert got is naive_colouring_exists(graph, la), (graph, la)
        cases += 1
    assert cases > 20_000
    G = MultipartiteGraph((2, 2))
    assert make_colourability_oracle(G)((0b01, 0b01, 0b10, 0b10)) is True
    assert make_colourability_oracle(G)((0b1, 0b1, 0b1, 0b1)) is False
    with pytest.raises(ValueError):
        make_colourability_oracle(G)((0b1, 0b1))


def test_is_choosable_matches_brute_force():
    lams = [Lambda(p) for p in ((1,), (2,), (1, 1), (3,), (1, 2))]
    for n in range(1, 5):
        for k in range(1, n + 1):
            for sizes in part_vectors(n, k):
                G = MultipartiteGraph(sizes)
                for lam in lams:
                    v = is_choosable(G, lam)
                    assert v.exhaustive and v.status in (CHOOSABLE, NOT_CHOOSABLE)
                    assert (v.status == CHOOSABLE) == naive_is_choosable(G, lam)
                    assert v.universe_bound == G.n * lam.total


def test_not_choosable_produces_valid_counterexample():
    G, lam = MultipartiteGraph((3, 3)), Lambda((2,))
    v = is_choosable(G, lam)
    assert v.status == NOT_CHOOSABLE
    assert v.exhaustive  # a witness is final regardless of budget
    la, part = v.counterexample
    assert find_colouring(G, la) is None
    assert not naive_colouring_exists(G, la)
    # the attached partition witnesses the quotas
    from lchoose.assignment import quota_counts

    counts = quota_counts(la, part)
    assert all(row == list(lam.parts) for row in counts)
    assert is_lambda_assignment(la, lam) is not None


def test_budget_gives_inconclusive():
    G, lam = MultipartiteGraph((2, 2), ), Lambda((2,))
    v = is_choosable(G, lam, Budget(max_nodes=5))
    assert v.status == INCONCLUSIVE
    assert not v.exhaustive
    assert v.counterexample is None


def test_verdict_to_dict():
    G, lam = MultipartiteGraph((3, 3)), Lambda((2,))
    d = is_choosable(G, lam).to_dict()
    assert d["status"] == NOT_CHOOSABLE
    assert d["exhaustive"] is True
    assert d["universe_bound"] == 12
    assert d["counterexample"]["lambda"] == [2]
    assert 1 <= d["counterexample"]["universe"] <= 12
    assert len(d["counterexample"]["lists"]) == 6


def test_choosable_known_shapes():
    # everything with fewer than six vertices is fine for quota 2
    lam = Lambda((2,))
    for n in range(2, 6):
        for sizes in part_vectors(n, 2):
            assert is_choosable(MultipartiteGraph(sizes), lam).status == CHOOSABLE
    assert is_choosable(MultipartiteGraph((4, 2)), lam).status == NOT_CHOOSABLE
