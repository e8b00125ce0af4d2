import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from lchoose.graphs import ColourableSets, MultipartiteGraph, part_vectors


def test_normalisation():
    g = MultipartiteGraph((2, 5, 2))
    assert g.part_sizes == (5, 2, 2)
    assert g.n == 9
    assert g.k == 3
    assert g.text() == "5,2,2"
    assert str(g) == "5,2,2"


def test_from_text():
    assert MultipartiteGraph.from_text("5,5,2,2").part_sizes == (5, 5, 2, 2)
    assert MultipartiteGraph.from_text(" 3 , 1 ").part_sizes == (3, 1)
    with pytest.raises(ValueError):
        MultipartiteGraph.from_text("")
    with pytest.raises(ValueError):
        MultipartiteGraph.from_text("3,0")


def test_parts_and_adjacency():
    g = MultipartiteGraph((3, 2))
    assert [tuple(p) for p in g.parts] == [(0, 1, 2), (3, 4)]
    assert g.part_of == (0, 0, 0, 1, 1)
    assert not g.adjacent(0, 2)
    assert g.adjacent(2, 3)
    assert not g.adjacent(3, 4)
    assert not g.adjacent(1, 1)


def test_size_histogram():
    g = MultipartiteGraph((5, 5, 2, 2, 2, 1))
    assert g.size_histogram() == {5: 2, 2: 3, 1: 1}


def naive_part_vectors(n, k):
    out = set()
    for combo in combinations_with_replacement(range(1, n + 1), k):
        if sum(combo) == n:
            out.add(tuple(sorted(combo, reverse=True)))
    return out


def test_part_vectors_match_brute_force():
    for n in range(1, 11):
        for k in range(1, n + 1):
            got = list(part_vectors(n, k))
            assert set(got) == naive_part_vectors(n, k), (n, k)
            # decreasing lex order, no repeats
            assert got == sorted(got, reverse=True)
            assert len(got) == len(set(got))
            for sizes in got:
                assert sum(sizes) == n and len(sizes) == k
                assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_part_vectors_empty_cases():
    assert list(part_vectors(3, 4)) == []
    assert list(part_vectors(0, 1)) == []
    assert list(part_vectors(4, 0)) == []


def test_colourable_sets_match_brute_force():
    # every bit of the family, not just the whole set's, after each colour
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        graph = MultipartiteGraph(rng.choice([s for k in range(1, n + 1) for s in part_vectors(n, k)]))
        sets = ColourableSets(graph)
        family, types = ColourableSets.EMPTY, []
        for _ in range(rng.randint(0, 5)):
            types.append(rng.randrange(1, 1 << n))
            family = sets.add(family, types[-1])
        for W in range(1 << n):
            members = [v for v in range(n) if W >> v & 1]
            # a proper colouring of W picks, per vertex, a colour whose type
            # holds it; vertices of different parts need different colours
            want = any(
                all(types[c] >> v & 1 for v, c in zip(members, pick))
                and all(
                    c1 != c2 or graph.part_of[v1] == graph.part_of[v2]
                    for (v1, c1), (v2, c2) in combinations(zip(members, pick), 2)
                )
                for pick in product(range(len(types)), repeat=len(members))
            )
            assert bool(family >> W & 1) == want, (graph, types, W)
