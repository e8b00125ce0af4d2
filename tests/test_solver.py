import hashlib
import random
from itertools import chain

import pytest

from lchoose import assignment
from lchoose.assignment import ListAssignment, is_lambda_assignment
from lchoose.budget import Budget
from lchoose.bundles import k42_block_sizes
from lchoose.constructions import build_bad_k42, build_gadget, random_threes_candidate
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda
from lchoose import solver
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
    half_list_corpus,
    naive_colouring_exists,
    naive_is_choosable,
    reference_greedy_complements,
    reference_table_search,
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


def test_is_choosable_refuses_a_counterexample_that_colours(monkeypatch):
    # K(4,2) is not (2)-choosable; a re-check that finds a colouring for the
    # walk's counterexample must stop the run, not report either verdict
    assert is_choosable(MultipartiteGraph((4, 2)), Lambda((2,))).status == NOT_CHOOSABLE
    monkeypatch.setattr(solver, "find_colouring", lambda graph, la: object())
    with pytest.raises(RuntimeError, match="enumerator yielded a colourable assignment"):
        is_choosable(MultipartiteGraph((4, 2)), Lambda((2,)))


def test_oversized_shapes_peel_whole_parts_as_vertices_peel(monkeypatch):
    # with every shape refused for its group, a verdict comes from the part
    # peel alone: CHOOSABLE iff the plain-loop vertex peel empties V, that is
    # iff the empty set is in E(k, ..., k)
    monkeypatch.setattr(assignment, "_GROUP_LIMIT", 0)
    seen = set()
    for sizes in (s for n in range(1, 8) for k in range(1, n + 1) for s in part_vectors(n, k)):
        graph = MultipartiteGraph(sizes)
        for k in range(1, 5):
            v = is_choosable(graph, Lambda((k,)))
            peels = bool(reference_greedy_complements(graph, [k] * graph.n) & 1)
            assert v.status == (CHOOSABLE if peels else INCONCLUSIVE), (sizes, k)
            assert v.orbits_checked == 0 and v.counterexample is None
            assert ("greedy bound" if peels else "symmetry group too large") in v.reason
            seen.add(peels)
    assert seen == {False, True}


def test_huge_group_refused_by_its_limit():
    # K(2000,2000)'s group order has over 11,000 digits, and lists of 2 do
    # not peel: the refusal names the limit instead of spelling the order
    v = is_choosable(MultipartiteGraph((2000, 2000)), Lambda((2,)))
    assert v.status == INCONCLUSIVE and v.orbits_checked == 0
    assert "symmetry group too large" in v.reason
    assert f"{assignment._GROUP_LIMIT:,}" in v.reason


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


# the solve benchmark's gadgets, plus (1,1,2), which it leaves out for time
PINNED_GADGETS = ((1, 0, 1), (1, 0, 2), (1, 1, 1), (1, 2, 1), (2, 0, 1), (2, 0, 2),
                  (2, 1, 1), (2, 2, 1), (3, 0, 1), (1, 1, 2))


def _pinned_colouring_cases():
    yield from colouring_random_corpus(seed=777)
    yield from half_list_corpus(seed=5, count=600)
    for sizes in PINNED_GADGETS:
        inst = build_gadget(*sizes)
        yield inst.graph, inst.assignment
    for k in (6, 8):
        for sizes in k42_block_sizes(k):
            yield build_bad_k42(k, sizes)
    rng = random.Random(68)
    for k in (6, 8):
        for _ in range(4):
            cand = random_threes_candidate(k, rng)
            yield cand.graph, cand.assignment


def test_first_colouring_pinned():
    # the exact first colouring is part of the contract: part order, cover
    # order and every prune that only cuts failing subtrees leave it alone
    got = [find_colouring(graph, la) for graph, la in _pinned_colouring_cases()]
    assert sum(c is not None for c in got) == 6776
    digest = hashlib.sha256(
        repr([None if c is None else c.colour_of for c in got]).encode()
    ).hexdigest()
    assert digest == "d0e4d45f05cda10a9f38ca13c5c39c8b1e01ebbd4ad476a4109978f0b2e1fc7e"


def _part_lists(graph, la):
    return [la.masks[part.start:part.stop] for part in graph.parts]


def test_tables_and_cover_search_give_the_same_first_colouring():
    # a search subtree succeeds exactly when its free colours lie in the
    # table of the parts below it, so both fallbacks take the same covers
    cases = [
        (graph, la) for graph, la in _pinned_colouring_cases()
        if la.universe_size <= solver._TABLE_COLOURS
    ]
    gadgets = [build_gadget(*sizes) for sizes in ((2, 2, 1), (1, 2, 1))]
    assert all((g.graph, g.assignment) in cases for g in gadgets)
    assert max(la.universe_size for _, la in cases) == solver._TABLE_COLOURS
    for graph, la in cases:
        lists, u = _part_lists(graph, la), la.universe_size
        got = solver._ok_search(lists, {}, u)
        assert got == solver._cover_search(lists, {}, u), (graph, la)
        if got is not None:
            check_proper(graph, la, got)


def _table_rule_boundary_cases(seed: int, count: int):
    """Seeded cases on both sides of the table rule: 16 or 17 colours, lists
    of two, and parts of two or three vertices until they hold the universe,
    so the Hall-type count decides about half of them either way."""
    rng = random.Random(seed)
    for _ in range(count):
        u = rng.choice((16, 17))
        sizes = []
        while sum(sizes) < u:
            sizes.append(rng.choice((2, 3)))
        union = 0
        while union != (1 << u) - 1:
            masks = tuple(sum(1 << c for c in rng.sample(range(u), 2)) for _ in range(sum(sizes)))
            union = 0
            for m in masks:
                union |= m
        yield MultipartiteGraph(tuple(sizes)), ListAssignment(u, masks)


def test_table_rule_boundary_agrees_with_subset_dp():
    # a stuck greedy pass falls back to the tables at 16 colours and to the
    # cover search at 17; the vertex-set subset DP shares no code with either
    outcomes = {}
    for graph, la in _table_rule_boundary_cases(seed=1617, count=200):
        got = find_colouring(graph, la)
        assert (got is not None) is make_colourability_oracle(graph)(la.masks), (graph, la)
        if got is not None:
            check_proper(graph, la, got)
        outcomes.setdefault(la.universe_size, set()).add(got is not None)
    assert outcomes == {16: {False, True}, 17: {False, True}}


def _trace_fallbacks(monkeypatch):
    """Record the name of each fallback that find_colouring calls."""
    taken = []

    def traced(name, search):
        def run(lists, covers, u):
            taken.append(name)
            return search(lists, covers, u)
        return run

    for name in ("_ok_search", "_cover_search"):
        monkeypatch.setattr(solver, name, traced(name, getattr(solver, name)))
    return taken


def test_greedy_front_falls_back_by_universe_size(monkeypatch):
    # the greedy pass runs at every size; a stuck one calls one fallback,
    # chosen by the universe size alone, and above the table rule the pass
    # gives the cover search's own first colouring
    taken = _trace_fallbacks(monkeypatch)
    greedy_17 = 0
    for graph, la in _table_rule_boundary_cases(seed=1617, count=200):
        taken.clear()
        got = find_colouring(graph, la)
        tables = la.universe_size <= solver._TABLE_COLOURS
        assert taken in ([], ["_ok_search" if tables else "_cover_search"]), (graph, la)
        if not tables:
            greedy_17 += not taken and got is not None
            assert got == solver._cover_search(_part_lists(graph, la), {}, la.universe_size)
    assert greedy_17 > 0


def test_colour_count_agrees_with_subset_dp(monkeypatch):
    # where the colour-counting bound cuts nodes, the cover search must still
    # agree with the subset DP, which shares no code with it; these universes
    # fall back to the tables in find_colouring, so the search is called directly
    cut = []
    count = solver._short_of_colours

    def counted(lists, avail):
        short = count(lists, avail)
        cut.append(short)
        return short

    monkeypatch.setattr(solver, "_short_of_colours", counted)
    oracles = {}
    outcomes = []
    cases_cut = 0
    for graph, la in half_list_corpus(seed=11, count=400):
        if graph not in oracles:
            oracles[graph] = make_colourability_oracle(graph)
        cut.clear()
        got = solver._cover_search(_part_lists(graph, la), {}, la.universe_size)
        cases_cut += any(cut)
        assert (got is not None) is oracles[graph](la.masks), (graph, la)
        if got is not None:
            check_proper(graph, la, got)
        outcomes.append(got is not None)
    assert len(outcomes) * 0.25 <= sum(outcomes) <= len(outcomes) * 0.75
    assert cases_cut >= len(outcomes) * 0.25


def test_root_colour_count_refuses_only_non_colourable_lists(monkeypatch):
    # find_colouring refuses without a search when the parts need more than
    # all the colours: a None with no fallback call, since the greedy pass
    # returns None only through one; the vertex-set subset DP, which shares
    # no code with it, must agree on every refusal, and some refusals must
    # rest on parts that need two colours (no more parts than colours)
    searched = _trace_fallbacks(monkeypatch)
    cases = chain(colouring_random_corpus(seed=777), half_list_corpus(seed=11, count=400),
                  _table_rule_boundary_cases(seed=1617, count=200))
    oracles, refused, by_pairs = {}, 0, 0
    for graph, la in cases:
        searched.clear()
        got = find_colouring(graph, la)
        if searched or got is not None:
            continue
        if graph not in oracles:
            oracles[graph] = make_colourability_oracle(graph)
        assert not oracles[graph](la.masks), (graph, la)
        refused += 1
        by_pairs += len(graph.parts) <= la.universe_size
    assert refused > 3000 and by_pairs > 300


def test_large_non_colourable_instances_are_refuted():
    # each took seconds before the colour count (k42 at k=10 close to a
    # minute); the solve benchmark leaves several out for that reason
    gadget = build_gadget(1, 1, 2)
    cases = [(gadget.graph, gadget.assignment)]
    for k in (8, 10):
        cases += [build_bad_k42(k, sizes) for sizes in k42_block_sizes(k)]
    rng = random.Random(10)
    for _ in range(4):
        cand = random_threes_candidate(10, rng)
        cases.append((cand.graph, cand.assignment))
    for graph, la in cases:
        assert find_colouring(graph, la) is None, (graph, la)


def _brute_minimal_covers(masks, universe):
    hitting = [c for c in range(1 << universe) if all(m & c for m in masks)]
    minimal = [c for c in hitting if not any(d != c and d & c == d for d in hitting)]
    return sorted(minimal, key=lambda c: (c.bit_count(), c))


def test_minimal_covers_filter_by_free_colours():
    # a minimal cover of the lists cut to avail is exactly a minimal cover of
    # the uncut lists that lies inside avail, in the same order: this lets the
    # cover search enumerate a part once and filter at every node
    rng = random.Random(808)
    checked = 0
    for _ in range(3000):
        universe = rng.randint(1, 10)
        full = (1 << universe) - 1
        masks = tuple(rng.randint(1, full) for _ in range(rng.randint(1, 5)))
        avail = rng.randint(0, full)
        cut = tuple(m & avail for m in masks)
        # the cover search's enumeration, and the minimal members of the tables
        table_covers = lambda ms: solver._table_covers(ms, universe)
        for covers_of in (solver._minimal_covers, table_covers):
            covers = covers_of(masks)
            if universe <= 8:
                assert covers == _brute_minimal_covers(masks, universe), masks
            if all(cut):
                assert [c for c in covers if not c & ~avail] == covers_of(cut)
                checked += 1
            else:
                assert not [c for c in covers if not c & ~avail]
    assert checked > 2000


@pytest.mark.parametrize("sizes", [(3, 2, 1), (1, 3, 1), (1, 0, 3)])
def test_larger_gadgets_are_refuted(sizes, monkeypatch):
    # (3,2,1) has 32 vertices; (2,2,2) is left out for time.  Each part's
    # covers are enumerated once per call, and identical parts share them.
    enumerated = []
    enumerate_covers = solver._minimal_covers

    def counted(masks):
        enumerated.append(masks)
        return enumerate_covers(masks)

    monkeypatch.setattr(solver, "_minimal_covers", counted)
    gadget = build_gadget(*sizes)
    graph, la = gadget.graph, gadget.assignment
    assert find_colouring(graph, la) is None
    distinct = {tuple(la.masks[v] for v in part) for part in graph.parts}
    assert 0 < len(enumerated) == len(set(enumerated)) <= len(distinct)


def test_greedy_pass_gives_the_frozen_tables_colouring(monkeypatch):
    # a greedy pass that gives every part a cover inside its free colours
    # keeps the covers the tables' forward pass keeps; a stuck one must fall
    # back to the tables, whether the lists are colourable or not; the root
    # colour count is turned off, so lists it would refuse reach the tables
    monkeypatch.setattr(solver, "_root_need", lambda commons: 0)
    fallbacks = []
    ok_search = solver._ok_search

    def counted(lists, covers, u):
        got = ok_search(lists, covers, u)
        fallbacks.append(got is not None)
        return got

    monkeypatch.setattr(solver, "_ok_search", counted)
    cases = chain(_pinned_colouring_cases(), colouring_random_corpus(seed=2718, count=3000))
    greedy = 0
    for graph, la in cases:
        if la.universe_size > solver._TABLE_COLOURS:
            continue
        stuck = len(fallbacks)
        got = find_colouring(graph, la)
        assert got == reference_table_search(graph, la), (graph, la)
        if len(fallbacks) == stuck:
            assert got is not None
            greedy += 1
    coloured = sum(fallbacks)
    assert greedy > 5000 and coloured > 400 and len(fallbacks) - coloured > 3000


def test_root_refusal_is_the_all_colours_count(monkeypatch):
    # the front counts colours from each part's shared colours; it must
    # refuse, before any fallback, exactly the lists whose Hall count over
    # all colours exceeds the universe
    fallbacks = []
    for name in ("_ok_search", "_cover_search"):
        def counted(*args, search=getattr(solver, name)):
            fallbacks.append(search)
            return search(*args)

        monkeypatch.setattr(solver, name, counted)
    refused = 0
    for graph, la in chain(colouring_random_corpus(seed=777), _pinned_colouring_cases()):
        u, stuck = la.universe_size, len(fallbacks)
        want = solver._colours_needed(_part_lists(graph, la), (1 << u) - 1) > u
        got = find_colouring(graph, la) is None and len(fallbacks) == stuck
        assert got == want, (graph, la)
        refused += want
    assert refused > 3000 and len(fallbacks) > 1000


def test_a_part_with_a_thousand_colour_cover_is_coloured():
    # 1,100 vertices in one part, each listing its own colour: the cover
    # enumeration must not take one stack frame per colour of the cover
    n = 1100
    la = ListAssignment(n, tuple(1 << i for i in range(n)))
    assert find_colouring(MultipartiteGraph((n,)), la).colour_of == tuple(range(n))


def test_a_thousand_single_vertex_parts_are_coloured():
    # K_1000 from full lists: the cover search must not take one stack frame
    # per part; vertex i takes colour i
    n = 1000
    graph = MultipartiteGraph((1,) * n)
    la = ListAssignment(n, ((1 << n) - 1,) * n)
    assert find_colouring(graph, la).colour_of == tuple(range(n))


def test_a_shared_free_colour_is_taken_without_the_tables(monkeypatch):
    # a part whose lists share a free colour takes the lowest as its cover
    # and builds no covers; a part whose shared colours are all taken builds
    # its covers and takes the first inside the free colours
    built = []
    table_covers = solver._table_covers

    def counted(masks, u):
        built.append(masks)
        return table_covers(masks, u)

    monkeypatch.setattr(solver, "_table_covers", counted)
    # every part shares a free colour: 0, then 1, then 2
    graph, la = MultipartiteGraph((2, 2, 1)), ListAssignment(3, (0b011, 0b001, 0b110, 0b010, 0b100))
    assert find_colouring(graph, la).colour_of == (0, 0, 1, 1, 2)
    assert built == []
    cases = [
        # the first part takes colour 0, the only one the second part's lists share
        (MultipartiteGraph((2, 2)), ListAssignment(3, (0b001, 0b011, 0b011, 0b101)), (0, 0, 1, 2)),
        # two shared colours are taken before the third part builds its covers,
        # whose first, {0, 1}, is no longer free
        (MultipartiteGraph((2, 2, 2, 1)),
         ListAssignment(5, (0b00001, 0b00011, 0b00010, 0b00110, 0b00101, 0b01010, 0b10000)),
         (0, 0, 1, 1, 2, 3, 4)),
    ]
    for graph, la, colour_of in cases:
        built.clear()
        got = find_colouring(graph, la)
        assert len(built) == 1
        assert got.colour_of == colour_of and got == reference_table_search(graph, la)


def test_single_colour_parts_take_no_cover_search(monkeypatch):
    # 400 single-vertex parts, vertex i listing only colour i: each part's
    # list is its shared free colour, so the greedy pass colours them all
    # and the cover search, whose colour count is cubic here, never runs
    taken = _trace_fallbacks(monkeypatch)
    n = 400
    la = ListAssignment(n, tuple(1 << i for i in range(n)))
    assert find_colouring(MultipartiteGraph((1,) * n), la).colour_of == tuple(range(n))
    assert taken == []
