import random
from itertools import product

import pytest

from lchoose.graphs import MultipartiteGraph
from lchoose.reduction import (
    FourTuple,
    Recipe,
    find_reducible_4tuple,
    peel_recipes,
    subgraph_from_tuple,
)


def oracle_tuples(target):
    out = []
    for entries in product(range(target + 1), repeat=4):
        t = FourTuple(entries, target)
        if t.in_window():
            out.append(t)
    return out


def test_four_tuple_basics():
    t = FourTuple((1, 0, 2, 0), 3)
    assert t.part_count == 3
    assert t.vertex_count == 7
    assert t.in_window()  # 7 in [7, 8]
    assert t.part_vector() == (3, 3, 1)
    assert not FourTuple((3, 0, 0, 0), 3).in_window()  # 3 vertices, window [7, 8]
    assert not FourTuple((0, 0, 1, 1), 3).in_window()  # only 2 parts
    with pytest.raises(ValueError):
        FourTuple((1, -1, 0, 0), 3)
    with pytest.raises(ValueError):
        FourTuple((1, 0, 0), 3)
    with pytest.raises(ValueError):
        FourTuple((0, 0, 0, 0), 0)


def test_window_boundaries():
    # quota 5: window is [11, 12] on exactly 5 parts
    assert FourTuple((3, 0, 0, 2), 5).in_window()  # 11 vertices
    assert FourTuple((2, 1, 1, 1), 5).in_window()  # 11
    assert FourTuple((2, 0, 2, 1), 5).in_window()  # 12
    assert not FourTuple((4, 0, 0, 1), 5).in_window()  # 8
    assert not FourTuple((0, 0, 1, 4), 5).in_window()  # 19


def test_finder_agrees_with_oracle():
    for target in (1, 2, 3, 4, 5):
        valid = oracle_tuples(target)
        for caps in product(range(5), repeat=4):
            want = None
            for t in valid:
                if all(a <= c for a, c in zip(t.entries, caps)):
                    want = t
                    break
            assert find_reducible_4tuple(caps, target) == want, (caps, target)


def test_finder_random_caps():
    rng = random.Random(41)
    for _ in range(500):
        target = rng.randint(1, 9)
        caps = tuple(rng.randint(0, 9) for _ in range(4))
        got = find_reducible_4tuple(caps, target)
        if got is not None:
            assert got.in_window()
            assert all(a <= c for a, c in zip(got.entries, caps))
        else:
            assert all(
                not t.in_window() or any(a > c for a, c in zip(t.entries, caps))
                for t in oracle_tuples(target)
            )


def test_finder_rejects_bad_target():
    with pytest.raises(ValueError):
        find_reducible_4tuple((1, 1, 1, 1), 0)


def test_subgraph_split():
    G = MultipartiteGraph((5, 4, 3, 3, 2, 1, 1))
    tup = FourTuple((1, 0, 1, 1), 3)  # 8 vertices on 3 parts, window [7, 8]
    peeled, rest = subgraph_from_tuple(G, tup)
    assert peeled.part_sizes == (4, 3, 1)
    assert rest.part_sizes == (5, 3, 2, 1)
    assert peeled.n + rest.n == G.n


def test_subgraph_split_consumes_everything():
    G = MultipartiteGraph((4, 3, 1, 1))
    tup = FourTuple((2, 0, 1, 1), 4)  # 9 vertices, window [9, 10]
    peeled, rest = subgraph_from_tuple(G, tup)
    assert peeled.part_sizes == (4, 3, 1, 1)
    assert rest is None


def test_subgraph_split_errors():
    G = MultipartiteGraph((2, 2, 2))
    with pytest.raises(ValueError):
        subgraph_from_tuple(G, FourTuple((1, 0, 1, 1), 3))  # no quads available
    with pytest.raises(ValueError):
        subgraph_from_tuple(G, FourTuple((1, 1, 1, 0), 3))  # 6 vertices misses window


def test_recipes_valid_and_complete():
    """Recipes must hit the window, respect their bounds, and be empty only
    when brute force confirms no valid tuple exists."""
    for target in (3, 5, 7, 9, 11):
        valid = oracle_tuples(target)
        for n2 in range(target):
            for n3 in range(7):
                for largest in (4, 3):
                    recs = peel_recipes(target, n2, n3, largest_part=largest)
                    for r in recs:
                        t = r.four_tuple
                        assert t.in_window(), (target, n2, n3, largest, r)
                        assert t.entries[1] <= n2 and t.entries[2] <= n3
                        if largest == 3:
                            assert t.entries[3] == 0
                    exists = any(
                        t.entries[1] <= n2
                        and t.entries[2] <= n3
                        and (largest == 4 or t.entries[3] == 0)
                        for t in valid
                    )
                    assert bool(recs) == exists, (target, n2, n3, largest)


def test_recipes_respect_quad_bound():
    for n4 in range(4):
        for recs in (peel_recipes(7, 2, 1, n4=n4), peel_recipes(9, 0, 0, n4=n4)):
            for r in recs:
                assert r.four_tuple.entries[3] <= n4
    # past the brute-force oracle's reach: every recipe is a valid FourTuple
    # (none has a negative count) inside its window, under its quad bound
    for target in range(3, 100, 2):
        for n2, n3, n4 in product(range(8), range(8), (None, 0, 1, 2, 3)):
            for r in peel_recipes(target, n2, n3, n4=n4):
                assert r.four_tuple.in_window(), (target, n2, n3, n4, r)
                assert n4 is None or r.four_tuple.entries[3] <= n4


def test_recipe_variants_cover_residues():
    variants = set()
    for target in (3, 5, 7, 9):
        for n2 in range(target - 1):
            for n3 in range(5):
                for r in peel_recipes(target, n2, n3):
                    variants.add(r.variant)
    assert {"quad-anchor", "triple-fill-r0", "triple-fill-r1", "triple-fill-r2",
            "lean"} <= variants
    anchors = {r.variant for r in peel_recipes(5, 1, 3, largest_part=3)}
    assert "triple-anchor" in anchors


def test_recipes_reject_bad_arguments():
    with pytest.raises(ValueError):
        peel_recipes(4, 0, 0)
    with pytest.raises(ValueError):
        peel_recipes(1, 0, 0)
    with pytest.raises(ValueError):
        peel_recipes(5, -1, 0)
    with pytest.raises(ValueError):
        peel_recipes(5, 0, 0, largest_part=5)


def test_recipe_peels_compose_with_graphs():
    # a recipe's tuple actually peels from a host that offers its parts
    recs = peel_recipes(5, 1, 2)
    assert recs
    tup = recs[0].four_tuple
    sizes = tup.part_vector() + (4, 2, 2, 1)
    G = MultipartiteGraph(sizes)
    peeled, rest = subgraph_from_tuple(G, tup)
    assert peeled.n == tup.vertex_count
    assert rest is not None
