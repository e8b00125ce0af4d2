import dataclasses
import hashlib
import json
import random
from collections import Counter
from functools import cache
from itertools import product

import pytest

from lchoose.assignment import (
    ColourPartition,
    ListAssignment,
    assignment_to_dict,
    canonical_key,
    is_lambda_assignment,
    quota_counts,
)
from lchoose.budget import Budget
from lchoose.bundles import k42_block_sizes
from lchoose.constructions import (
    StructureError,
    ThreesBadCandidate,
    ThreesFamilyEnumerator,
    _first_use,
    _miss_normal_form,
    _odd_triple,
    build_bad_k42,
    build_gadget,
    exception_graphs,
    parity_obstruction_check,
    random_threes_candidate,
    verify_gadget,
)
from lchoose.graphs import MultipartiteGraph
from lchoose.lam import Lambda
from lchoose.solver import find_colouring

from helpers import naive_colouring_exists, naive_witness_exists, reference_threes_family


GRID = [(1, 0, 1), (1, 1, 1), (2, 0, 1)]


@pytest.mark.parametrize("ones,twos,threes", GRID)
def test_gadget_shape_invariants(ones, twos, threes):
    inst = build_gadget(ones, twos, threes)
    k = inst.lam.total
    a = ones
    assert inst.graph.n == 2 * k + 3 * a + 3
    assert inst.assignment.universe_size == 2 * k - a
    assert inst.graph.size_histogram() == {5: a + 1, 2: k - a - 1}
    assert all(m.bit_count() == k for m in inst.assignment.masks)
    counts = quota_counts(inst.assignment, inst.partition)
    assert all(tuple(row) == inst.lam.parts for row in counts)


@pytest.mark.parametrize("ones,twos,threes", GRID)
def test_gadget_verifies_and_is_bad(ones, twos, threes):
    inst = build_gadget(ones, twos, threes)
    report = verify_gadget(inst)
    assert report["colourable"] is False
    assert report["quota_exact"] is True


def test_gadget_rejects_bad_multiplicities():
    with pytest.raises(ValueError):
        build_gadget(1, 0, 0)
    with pytest.raises(ValueError):
        build_gadget(0, 1, 1)
    with pytest.raises(ValueError):
        build_gadget(-1, 0, 1)
    with pytest.raises(ValueError, match="negative multiplicities"):
        build_gadget(1, -1, 1)
    with pytest.raises(ValueError, match="negative multiplicities"):
        build_gadget(-1, 0, 1, allow_zero_ones=True)
    # degenerate shape is constructible when asked for, but not certified
    inst = build_gadget(0, 0, 1, allow_zero_ones=True)
    assert inst.lam.parts == (3,)


def test_verify_gadget_catches_sabotage():
    inst = build_gadget(1, 0, 1)
    masks = list(inst.assignment.masks)
    masks[0] = masks[1]  # duplicate one list: quota exactness survives only by luck
    broken = dataclasses.replace(
        inst, assignment=ListAssignment(inst.assignment.universe_size, tuple(masks))
    )
    with pytest.raises(StructureError):
        verify_gadget(broken)
    small = dataclasses.replace(inst, graph=MultipartiteGraph((5, 5, 2)))
    with pytest.raises(StructureError):
        verify_gadget(small)


def _first_list(inst, universe, mask):
    """The gadget's lists over ``universe`` colours, vertex 0's replaced by ``mask``."""
    return ListAssignment(universe, (mask, *inst.assignment.masks[1:]))


@pytest.mark.parametrize("tamper, message", [
    (lambda inst: {"graph": MultipartiteGraph((5, 5, 3, 1))}, "part sizes are not"),
    (lambda inst: {"assignment": _first_list(inst, 8, inst.assignment.masks[0] | 1 << 7)},
     "universe size is not 2k-a"),
    (lambda inst: {"assignment": _first_list(inst, 7, inst.assignment.masks[0] & ~1)},
     "list at vertex 0 does not have k colours"),
    (lambda inst: {"partition": ColourPartition(inst.lam, (0, 0, 1, 1, 1, 1, 1))},
     "class 0 has 2 colours, expected 1"),
    (lambda inst: {"partition": ColourPartition(inst.lam, (1, 0, 1, 1, 1, 1, 1))},
     "vertex 3 holds 0 colours of class 0, quota is 1"),
])
def test_verify_gadget_names_the_broken_invariant(tamper, message):
    # build_gadget(1, 0, 1): lambda (1,3), parts 5,5,2,2, 7 colours, class 0 is colour 0
    inst = build_gadget(1, 0, 1)
    assert inst.partition.class_of == (0, 1, 1, 1, 1, 1, 1)
    with pytest.raises(StructureError, match=message):
        verify_gadget(dataclasses.replace(inst, **tamper(inst)))


def test_verify_gadget_requires_a_quota_partition(monkeypatch):
    # the partition checks above imply a witness, so only a search that
    # finds none can reach this report
    monkeypatch.setattr("lchoose.constructions.is_lambda_assignment", lambda *_: None)
    with pytest.raises(StructureError, match="admits no quota partition"):
        verify_gadget(build_gadget(1, 0, 1))


def test_constructed_instances_pinned():
    # sha256 over every gadget (ones 0-3, twos 0-3, threes 1-3), both
    # exception shapes and every k42 block-size triple at k = 2..10, seeded
    # miss-vector candidates and three enumerator streams: graph text plus
    # lists and partition, so a rewrite of the builders must keep each byte
    docs = []
    for ones, twos, threes in product(range(4), range(4), range(1, 4)):
        inst = build_gadget(ones, twos, threes, allow_zero_ones=True)
        docs.append([inst.graph.text(), assignment_to_dict(inst.assignment, inst.partition)])
    for k in range(2, 11, 2):
        docs.append([g.text() for g in exception_graphs(k)])
        for sizes in k42_block_sizes(k):
            graph, la = build_bad_k42(k, sizes)
            docs.append([list(sizes), graph.text(), assignment_to_dict(la)])
    rng = random.Random(14)
    for k in (2, 4, 6, 8, 10):
        for _ in range(3):
            cand = random_threes_candidate(k, rng)
            docs.append([cand.graph.text(), assignment_to_dict(cand.assignment)])
    for k, rows in ((2, None), (4, 1000), (6, 100)):
        for cand in ThreesFamilyEnumerator(k, Budget(max_nodes=rows)):
            docs.append([cand.graph.text(), assignment_to_dict(cand.assignment)])
    assert len(docs) == 113
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == "7e6ea579b40a0067c46bada09c4a6ff286cb3b71e65bb7e784c02d6a1442a150"


def test_exception_graphs():
    g1, g2 = exception_graphs(2)
    assert g1.part_sizes == (4, 2)
    assert g2.part_sizes == (3, 3)
    g1, g2 = exception_graphs(6)
    assert g1.part_sizes == (4,) + (2,) * 5
    assert g2.part_sizes == (3, 3, 3, 3, 1, 1)
    with pytest.raises(ValueError):
        exception_graphs(3)
    with pytest.raises(ValueError):
        exception_graphs(0)


def test_build_bad_k42_validation():
    with pytest.raises(ValueError):
        build_bad_k42(4, (1, 2, 2))  # 2*1+2*2 != 4
    with pytest.raises(ValueError):
        build_bad_k42(4, (1, 1, 1))  # 2*1 != 4
    with pytest.raises(ValueError):
        build_bad_k42(4, (-1, 3, 2))


@pytest.mark.parametrize("k,sizes", [
    (2, (1, 0, 1)),
    (2, (0, 1, 1)),
    (4, (0, 2, 2)),
    (4, (1, 1, 2)),
    (4, (2, 0, 2)),
])
def test_k42_family_is_bad_and_recognised(k, sizes):
    graph, la = build_bad_k42(k, sizes)
    assert graph.part_sizes == (4,) + (2,) * (k - 1)
    assert la.universe_size == 2 * k
    assert all(m.bit_count() == k for m in la.masks)
    assert find_colouring(graph, la) is None
    if k == 2:
        assert not naive_colouring_exists(graph, la)
    # two 4-part lists sharing a B block sum to the pair parts' A list
    assert _odd_triple(la.masks, k)


def test_threes_candidate_validation():
    base = tuple(sorted([0, 1, 2] * 2))
    ok = ThreesBadCandidate(4, (base, base, base), ((1 << 4) - 1,))
    assert ok.graph.part_sizes == (3, 3, 3, 1)
    assert ok.assignment.universe_size == 6
    with pytest.raises(ValueError):
        ThreesBadCandidate(3, (base,), ())
    with pytest.raises(ValueError):
        ThreesBadCandidate(4, (base, base), ((1 << 4) - 1,))
    with pytest.raises(ValueError):
        ThreesBadCandidate(4, (base, base, (0,) * 6), ((1 << 4) - 1,))
    with pytest.raises(ValueError):
        ThreesBadCandidate(4, (base, base, base), (0b111,))
    with pytest.raises(ValueError, match="must pick a local vertex per colour"):
        ThreesBadCandidate(4, (base, base, base[:-1] + (3,)), ((1 << 4) - 1,))
    with pytest.raises(ValueError, match="need one list per singleton part"):
        ThreesBadCandidate(4, (base, base, base), ())


def test_threes_candidates_always_bad():
    # counting: any proper colouring needs more colours than the universe has
    rng = random.Random(11)
    for k in (2, 4, 6):
        for _ in range(6):
            cand = random_threes_candidate(k, rng)
            assert all(m.bit_count() == k for m in cand.assignment.masks)
            assert find_colouring(cand.graph, cand.assignment) is None
            # a triple part holds every colour in two of its three lists
            assert _odd_triple(cand.assignment.masks[:3], k)


def test_random_threes_deterministic_under_seed():
    a = random_threes_candidate(4, random.Random(3))
    b = random_threes_candidate(4, random.Random(3))
    assert a == b


def test_threes_enumerator_small():
    enum = ThreesFamilyEnumerator(2)
    cands = list(enum)
    assert len(cands) == 1 and not enum.truncated
    # the lone orbit is the classic two-triangles assignment
    graph, la = cands[0].graph, cands[0].assignment
    assert graph.part_sizes == (3, 3)
    assert find_colouring(graph, la) is None
    assert not naive_colouring_exists(graph, la)

    lim = ThreesFamilyEnumerator(4, Budget(max_nodes=50))
    some = list(lim)
    assert lim.truncated
    assert all(find_colouring(c.graph, c.assignment) is None for c in some)


@pytest.mark.parametrize("k,rows", [(2, None), (4, 50), (4, 200), (4, 2_000)])
def test_threes_enumerator_matches_reference(k, rows):
    # the normal form skips only row tuples of orbits already met, so the
    # stream equals the one that keys every tuple, budget accounting included
    enum = ThreesFamilyEnumerator(k, Budget(max_nodes=rows))
    got = [(c.miss, c.singleton_lists) for c in enum]
    ref_budget = Budget(max_nodes=rows)
    ref, truncated = reference_threes_family(k, ref_budget)
    assert got == [(c.miss, c.singleton_lists) for c in ref]
    assert enum.truncated == truncated == (rows is not None)
    assert enum.budget.nodes == ref_budget.nodes


@pytest.mark.parametrize("k,rows,count,keys", [(4, 200, 10, 20), (6, 300, 7, 20)])
def test_threes_enumerator_shares_one_lane_memo(monkeypatch, k, rows, count, keys):
    # every key of the walk goes through the module's canonical_key, on one
    # shape, so each type's lane data is built once; keying each
    # normal-form-new tuple as the reference does gives the same candidates
    # in the same order
    import lchoose.constructions as constructions

    calls = []

    def spy(*args):
        calls.append(args)
        return canonical_key(*args)

    monkeypatch.setattr(constructions, "canonical_key", spy)
    got = [(c.miss, c.singleton_lists) for c in ThreesFamilyEnumerator(k, Budget(max_nodes=rows))]
    ref, _ = reference_threes_family(k, Budget(max_nodes=rows), _miss_normal_form)
    assert got == [(c.miss, c.singleton_lists) for c in ref]
    assert len(got) == count
    assert len(calls) == keys


@pytest.mark.parametrize("k,count", [(4, 40), (6, 8)])
def test_miss_normal_form_stays_in_the_orbit(k, count):
    half = k // 2
    base = tuple(sorted([0, 1, 2] * half))
    singles = ((1 << k) - 1,) * (half - 1)
    lam = Lambda((k,))
    partition = ColourPartition(lam, (0,) * (3 * half))
    rng = random.Random(k)

    def key(rows):
        cand = ThreesBadCandidate(k, (base,) + rows, singles)
        return canonical_key(cand.assignment, cand.graph, lam, partition)

    for _ in range(count):
        rows = tuple(tuple(rng.sample([0, 1, 2] * half, 3 * half)) for _ in range(half))
        assert key(_miss_normal_form(rows, half)) == key(rows)


def test_first_use_cache_gives_the_same_normal_forms():
    # one cache across many tuples, as an enumeration keeps it: every row
    # and every column-sorted row maps to its own renaming
    rng = random.Random(46)
    for k in (4, 6):
        half = k // 2
        first_use = cache(_first_use)
        for _ in range(300):
            rows = tuple(tuple(rng.sample([0, 1, 2] * half, 3 * half)) for _ in range(half))
            assert _miss_normal_form(rows, half, first_use) == _miss_normal_form(rows, half)


def test_threes_enumerator_k6_pinned():
    # digest of the (miss, singleton_lists) stream of a walk that keyed every row
    enum = ThreesFamilyEnumerator(6, Budget(max_nodes=300))
    got = [(c.miss, c.singleton_lists) for c in enum]
    assert len(got) == 7 and enum.truncated and enum.budget.nodes == 301
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "76ba2557401f0e613a26ed7535f3ce2849ccabd8c380232f693c05618e88e77b"


@pytest.mark.parametrize("k", [8, 12])
def test_threes_enumerator_refuses_large_groups_at_once(k):
    # K(3,3,3,3,3,1,1,1) already has 5,598,720 vertex symmetries; the check
    # must come before any balanced vector is built
    with pytest.raises(ValueError, match="symmetry group too large"):
        ThreesFamilyEnumerator(k)


def test_threes_enumerator_rejects_odd():
    with pytest.raises(ValueError):
        ThreesFamilyEnumerator(3)
    with pytest.raises(ValueError):
        random_threes_candidate(5, random.Random(0))


def test_parity_obstruction_fast_and_slow_agree():
    graph, la = build_bad_k42(2, (1, 0, 1))
    ones = Lambda((1, 1))
    assert parity_obstruction_check(graph, la, ones) is True
    assert parity_obstruction_check(graph, la, ones, force_search=True) is True
    assert not naive_witness_exists(la, ones)
    two = Lambda((2,))
    # the whole universe in one class witnesses the even quota
    assert parity_obstruction_check(graph, la, two) is False
    assert parity_obstruction_check(graph, la, two, force_search=True) is False


def test_forced_parity_check_refutes_large_odd_quotas_quickly():
    # inputs the benchmark leaves out for time: the forced path must refute
    # them at the root, not by exhausting the partition search
    import time

    cases = [(*build_bad_k42(10, sizes), (1, 2, 3, 4)) for sizes in k42_block_sizes(10)]
    rng = random.Random(10)
    for k, count, quotas in ((10, 4, ((1, 3, 6), (1, 1, 3, 5))), (12, 2, ((1, 3, 8), (1, 1, 5, 5)))):
        for _ in range(count):
            cand = random_threes_candidate(k, rng)
            cases.extend((cand.graph, cand.assignment, parts) for parts in quotas)
    start = time.perf_counter()
    for graph, la, parts in cases:
        assert parity_obstruction_check(graph, la, Lambda(parts), force_search=True) is True
    assert len(cases) == 18 and time.perf_counter() - start < 5


def test_parity_obstruction_at_k4():
    odd_lams = [Lambda(p) for p in ((1, 3), (1, 1, 2), (1, 1, 1, 1))]
    even_lams = [Lambda(p) for p in ((4,), (2, 2))]
    for sizes in ((0, 2, 2), (1, 1, 2), (2, 0, 2)):
        graph, la = build_bad_k42(4, sizes)
        for lam in odd_lams:
            assert parity_obstruction_check(graph, la, lam) is True
            assert parity_obstruction_check(graph, la, lam, force_search=True) is True
        for lam in even_lams:
            assert parity_obstruction_check(graph, la, lam) is False


def test_parity_obstruction_on_plain_lists_certificate_or_search():
    # the certificate reads no shape: the cyclic pairs sum to zero, so the
    # odd quota (1, 1) is refuted without a search; the rest is searched
    graph = MultipartiteGraph((2, 1))
    cyclic = ListAssignment.from_lists(3, [[0, 1], [1, 2], [0, 2]])
    assert _odd_triple(cyclic.masks, 2)
    assert parity_obstruction_check(graph, cyclic, Lambda((1, 1))) is True
    assert not naive_witness_exists(cyclic, Lambda((1, 1)))
    assert parity_obstruction_check(graph, cyclic, Lambda((2,))) is False
    shared = ListAssignment.from_lists(2, [[0, 1], [0, 1], [0, 1]])
    assert parity_obstruction_check(graph, shared, Lambda((1, 1))) is False
    assert parity_obstruction_check(graph, shared, Lambda((3,))) is True


def _triple_cases():
    """Seeded lists on 3 to 6 vertices over at most 6 colours, of exactly
    ``lam.total`` colours or one more.  Where the list size is even, half
    the cases plant three lists X|Y, Y|Z, X|Z from disjoint blocks, which
    sum to zero, tight or one colour too large."""
    rng = random.Random(1313)
    quotas = ((1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1),
              (1, 1, 2), (1, 1, 1, 1))
    for _ in range(600):
        lam = Lambda(rng.choice(quotas))
        n, lists = rng.randint(3, 6), []
        size = lam.total + (rng.random() < 0.3)
        if size % 2 == 0 and size <= 4 and rng.random() < 0.5:
            half = size // 2
            cols = rng.sample(range(6), 3 * half)
            x, y, z = set(cols[:half]), set(cols[half:2 * half]), set(cols[2 * half:])
            lists += [x | y, y | z, x | z]
        while len(lists) < n:
            lst = set(rng.sample(range(6), lam.total))
            if rng.random() < 0.2:
                lst.add(rng.randrange(6))
            lists.append(lst)
        rng.shuffle(lists)
        live = sorted(set().union(*lists))
        yield ListAssignment.from_lists(len(live), [[live.index(c) for c in lst]
                                                    for lst in lists]), lam


def test_odd_triple_refutes_only_what_has_no_witness():
    # the fast path may answer True only where brute force finds no witness,
    # and must agree with the forced path everywhere
    fired = Counter()
    for la, lam in _triple_cases():
        graph = MultipartiteGraph((la.n,))
        fast = parity_obstruction_check(graph, la, lam)
        assert fast == parity_obstruction_check(graph, la, lam, force_search=True), (la, lam)
        if fast:
            assert not naive_witness_exists(la, lam), (la, lam)
        if lam.m_odd and _odd_triple(la.masks, lam.total):
            fired[lam.parts] += 1
    # it must fire often, on several quotas, or the agreement says little
    assert sum(fired.values()) >= 60 and len(fired) >= 4, fired
