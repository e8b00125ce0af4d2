import random

import pytest

from lchoose.assignment import (
    AssignmentEnumerator,
    ColourPartition,
    ListAssignment,
    _transpose,
    assignment_from_dict,
    assignment_to_dict,
    canonical_key,
    is_lambda_assignment,
    quota_counts,
    trim_to_exact,
    vertex_group,
)
from lchoose.budget import Budget
from lchoose.constructions import ThreesFamilyEnumerator
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda
from lchoose.reduction import FourTuple

from helpers import (
    naive_colouring_exists,
    naive_orbit_keys,
    naive_witness_exists,
    random_blocks,
    reference_canonical_blocks,
    reference_peaks,
    reference_transpose,
    reference_trim_to_exact,
    reference_vertex_group,
    reference_witness,
)


def test_list_assignment_validation():
    ListAssignment(2, (1, 2))
    with pytest.raises(ValueError):
        ListAssignment(2, (1, 0))  # empty list
    with pytest.raises(ValueError):
        ListAssignment(1, (2,))  # colour outside the universe
    with pytest.raises(ValueError):
        ListAssignment(3, (1, 2))  # colour 2 unused
    with pytest.raises(ValueError):
        ListAssignment(0, ())
    with pytest.raises(ValueError, match="at least one vertex"):
        ListAssignment(1, ())


def test_from_lists_round_trip():
    la = ListAssignment.from_lists(4, [[0, 2], [1, 3], [2]])
    assert la.masks == (0b0101, 0b1010, 0b0100)
    assert la.colours(0) == (0, 2)
    assert la.lists() == ((0, 2), (1, 3), (2,))
    assert la.n == 3


def test_partition_validation():
    lam = Lambda((1, 2))
    ColourPartition(lam, (0, 1, 1))
    with pytest.raises(ValueError):
        ColourPartition(lam, (0, 2))
    assert ColourPartition(lam, (1, 0, 1)).class_masks()[1] == 0b101
    assert ColourPartition(lam, (1, 0, 1)).class_masks() == (0b010, 0b101)


def test_quota_counts():
    lam = Lambda((1, 2))
    la = ListAssignment.from_lists(3, [[0, 1, 2], [0, 2]])
    part = ColourPartition(lam, (0, 1, 1))
    assert quota_counts(la, part) == [[1, 2], [1, 1]]
    with pytest.raises(ValueError, match="partition universe does not match"):
        quota_counts(la, ColourPartition(lam, (0, 1)))


def random_assignment(rng, n, universe):
    """Nonempty random lists whose union is the whole universe."""
    full = (1 << universe) - 1
    while True:
        masks = [rng.randrange(1, full + 1) for _ in range(n)]
        union = 0
        for m in masks:
            union |= m
        if union == full:
            return ListAssignment(universe, tuple(masks))


def test_witness_search_matches_brute_force():
    rng = random.Random(2024)
    lams = [Lambda((1,)), Lambda((2,)), Lambda((1, 1)), Lambda((1, 2)), Lambda((3,))]
    for _ in range(400):
        n = rng.randint(1, 4)
        universe = rng.randint(1, 6)
        la = random_assignment(rng, n, universe)
        for lam in lams:
            got = is_lambda_assignment(la, lam)
            assert (got is not None) == naive_witness_exists(la, lam), (la, lam)
            if got is not None:
                counts = quota_counts(la, got)
                for v in range(n):
                    for i, k in enumerate(lam.parts):
                        assert counts[v][i] >= k


def test_witness_hand_cases():
    # the classic six-list shape admits no split into two singleton quotas
    la = ListAssignment.from_lists(
        4, [[0, 2], [0, 3], [1, 2], [1, 3], [0, 1], [2, 3]]
    )
    assert is_lambda_assignment(la, Lambda((2,))) is not None
    assert is_lambda_assignment(la, Lambda((1, 1))) is None
    wide = ListAssignment.from_lists(4, [[0, 1, 2, 3]] * 3)
    assert is_lambda_assignment(wide, Lambda((1, 3))) is not None
    assert is_lambda_assignment(wide, Lambda((1, 1, 1, 1))) is not None
    assert is_lambda_assignment(wide, Lambda((5,))) is None


def _pinned_witness_cases():
    """Seeded lists on up to 7 vertices with several equal quotas, sized so
    that about a third of them admit a witness."""
    rng = random.Random(2604)
    for parts in ((1, 1, 2), (2, 2, 2), (1, 1, 1, 1), (1, 2, 2), (1, 1, 1, 2)):
        lam = Lambda(parts)
        for _ in range(40):
            n = rng.randint(1, 7)
            universe = rng.randint(lam.total, lam.total + 3)
            lists = [rng.sample(range(universe), rng.randint(lam.total - 1, universe))
                     for _ in range(n)]
            for c in set(range(universe)) - {c for lst in lists for c in lst}:
                rng.choice(lists).append(c)
            yield ListAssignment.from_lists(universe, lists), lam


def test_witness_search_pinned_outputs():
    # the exact first witness is part of the contract: search order, pruning
    # and the empty-class symmetry rule all show in it
    import hashlib

    got = [is_lambda_assignment(la, lam) for la, lam in _pinned_witness_cases()]
    assert sum(w is not None for w in got) == 66
    digest = hashlib.sha256(
        repr([None if w is None else w.class_of for w in got]).encode()
    ).hexdigest()
    assert digest == "b2929ac1494738c6743b9a5d0575f28992116efe82815e66932655163618dbc4"

    from lchoose.bundles import k42_block_sizes
    from lchoose.constructions import build_bad_k42

    want = {
        ((0, 3, 3), (2, 4)): (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1),
        ((0, 3, 3), (2, 2, 2)): (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2),
        ((1, 2, 3), (2, 4)): (0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1),
        ((1, 2, 3), (2, 2, 2)): (0, 0, 1, 2, 1, 2, 0, 1, 2, 0, 1, 2),
        ((2, 1, 3), (2, 4)): (0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1),
        ((2, 1, 3), (2, 2, 2)): (0, 1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2),
        ((3, 0, 3), (2, 4)): (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1),
        ((3, 0, 3), (2, 2, 2)): (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2),
    }
    for sizes in k42_block_sizes(6):
        _, la = build_bad_k42(6, sizes)
        for parts in ((2, 4), (2, 2, 2)):
            assert is_lambda_assignment(la, Lambda(parts)).class_of == want[sizes, parts]


# per total k: the odd quotas (no witness on the k42 or the miss-vector
# family) and the even quotas (a witness on the k42 family)
FAMILY_QUOTAS = {
    4: (((1, 3), (1, 1, 2), (1, 1, 1, 1)), ((2, 2),)),
    6: (((3, 3), (1, 2, 3), (1, 1, 1, 3)), ((2, 4), (2, 2, 2))),
    8: (((3, 5), (1, 2, 5), (1, 1, 3, 3)), ((2, 6), (2, 2, 4))),
}


def _repeated_type_assignment(rng, n):
    """Lists built from 2 to 4 vertex sets, each repeated 1 to 4 times."""
    while True:
        types = [rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 4))]
        cols = [t for t in types for _ in range(rng.randint(1, 4))]
        rng.shuffle(cols)
        masks = tuple(sum(1 << c for c, t in enumerate(cols) if t >> v & 1) for v in range(n))
        if all(masks):
            return ListAssignment(len(cols), masks)


def _repeated_type_cases():
    from lchoose.bundles import k42_block_sizes
    from lchoose.constructions import build_bad_k42, random_threes_candidate

    rng = random.Random(4242)
    for k, (odd, even) in FAMILY_QUOTAS.items():
        for sizes in k42_block_sizes(k):
            _, la = build_bad_k42(k, sizes)
            yield from ((la, Lambda(parts)) for parts in odd + even)
        for _ in range(3):
            la = random_threes_candidate(k, rng).assignment
            yield from ((la, Lambda(parts)) for parts in odd)
    for _ in range(150):
        la = _repeated_type_assignment(rng, rng.randint(1, 6))
        for parts in ((1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1), (2, 2, 2), (1, 1, 1, 1)):
            yield la, Lambda(parts)


def test_same_type_rule_keeps_the_first_witness():
    # colours of one type may not descend in class, which must leave the
    # first witness of the labelled search exactly where it was
    got = found = 0
    for la, lam in _repeated_type_cases():
        want = reference_witness(la, lam)
        w = is_lambda_assignment(la, lam)
        assert (w and w.class_of) == (want and want.class_of), (la, lam)
        got += 1
        found += w is not None
    assert got == 1134 and 0 < found < got


def test_same_type_rule_agrees_with_brute_force():
    rng = random.Random(99)
    for _ in range(120):
        la = _repeated_type_assignment(rng, rng.randint(1, 4))
        if la.universe_size > 8:
            continue
        for parts in ((1, 1), (1, 2), (1, 1, 1), (2, 2)):
            lam = Lambda(parts)
            assert (is_lambda_assignment(la, lam) is not None) == naive_witness_exists(la, lam)


def _tight_cases():
    """Seeded lists of exactly ``lam.total`` colours on 3 to 6 vertices over
    up to 8 colours, some padded by one colour so they are not tight, then the
    k42 family and miss-vector candidates at k = 4, 6, 8 with their quotas."""
    from lchoose.bundles import k42_block_sizes
    from lchoose.constructions import build_bad_k42, random_threes_candidate

    rng = random.Random(1111)
    quotas = ((1, 1), (1, 3), (1, 1, 2), (1, 1, 1, 1), (2, 2), (4,), (1, 2), (1, 1, 1),
              (2, 3), (1, 1, 3), (1, 1, 1, 2))
    for _ in range(1000):
        lam = Lambda(rng.choice(quotas))
        universe = rng.randint(lam.total, min(8, lam.total + 2))
        lists = [rng.sample(range(universe), lam.total) for _ in range(rng.randint(3, 6))]
        for lst in lists:
            spare = sorted(set(range(universe)) - set(lst))
            if spare and rng.random() < 0.2:
                lst.append(rng.choice(spare))
        live = sorted({c for lst in lists for c in lst})
        yield ListAssignment.from_lists(len(live), [[live.index(c) for c in lst]
                                                    for lst in lists]), lam
    for k, (odd, even) in FAMILY_QUOTAS.items():
        for sizes in k42_block_sizes(k):
            _, la = build_bad_k42(k, sizes)
            yield from ((la, Lambda(parts)) for parts in odd + even)
        for _ in range(2):
            la = random_threes_candidate(k, rng).assignment
            yield from ((la, Lambda(parts)) for parts in odd + even)


def test_transpose_matches_the_reference():
    # widths below, at and past the rows' top bit: bits at or above the
    # width are dropped, and bits past the top one give empty masks
    rng = random.Random(29)
    for _ in range(500):
        rows = [rng.getrandbits(rng.randint(0, 24)) for _ in range(rng.randint(0, 22))]
        top = max((r.bit_length() for r in rows), default=0)
        for width in {0, rng.randint(0, top), top, top + rng.randint(1, 5)}:
            assert _transpose(rows, width) == reference_transpose(rows, width)


def test_parity_bound_keeps_every_witness(monkeypatch):
    # the GF(2) bound on tight lists may only refute what has no witness:
    # the first witness of the labelled search, and existence by brute force
    import lchoose.assignment as assignment

    fired = []
    blocked = assignment._parity_blocked
    monkeypatch.setattr(assignment, "_parity_blocked",
                        lambda masks, lam: fired.append(blocked(masks, lam)) or fired[-1])
    checked = 0
    for la, lam in _tight_cases():
        want = reference_witness(la, lam)
        w = is_lambda_assignment(la, lam)
        assert (w and w.class_of) == (want and want.class_of), (la, lam)
        if la.universe_size <= 8:
            assert (w is not None) == naive_witness_exists(la, lam), (la, lam)
            checked += 1
    # it must fire often, or the agreement above says nothing
    assert checked >= 1000 and sum(fired) >= 75


def test_trim_to_exact_properties():
    rng = random.Random(77)
    from helpers import naive_colouring_exists
    from lchoose.graphs import part_vectors

    shapes = [
        MultipartiteGraph(sizes)
        for n in range(2, 5)
        for k in range(1, n + 1)
        for sizes in part_vectors(n, k)
    ]
    lam = Lambda((1, 1))
    checked = 0
    for _ in range(300):
        G = rng.choice(shapes)
        la = random_assignment(rng, G.n, rng.randint(2, 5))
        witness = is_lambda_assignment(la, lam)
        if witness is None:
            continue
        checked += 1
        trimmed, tpart = trim_to_exact(la, lam, witness)
        counts = quota_counts(trimmed, tpart)
        assert all(row == list(lam.parts) for row in counts)
        # shrinking lists cannot create colourings
        if naive_colouring_exists(G, trimmed):
            assert naive_colouring_exists(G, la)
    assert checked > 50


def test_trim_matches_the_reference():
    # every witness a random class map gives, plus the search's own, against
    # the count-loop copy: the same universe, masks and classes
    rng = random.Random(1818)
    lams = [Lambda(p) for p in ((1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 1), (2, 2))]
    checked = 0
    for _ in range(1500):
        lam = rng.choice(lams)
        la = random_assignment(rng, rng.randint(1, 6), rng.randint(lam.total, 9))
        partitions = [ColourPartition(lam, tuple(rng.randrange(lam.size)
                                                 for _ in range(la.universe_size)))]
        partitions.append(is_lambda_assignment(la, lam))
        for part in partitions:
            if part is None or any(c < k for row in quota_counts(la, part)
                                   for c, k in zip(row, lam.parts)):
                continue
            checked += 1
            (want, want_part), (got, got_part) = (
                f(la, lam, part) for f in (reference_trim_to_exact, trim_to_exact))
            assert (got.universe_size, got.masks, got_part.class_of) == (
                want.universe_size, want.masks, want_part.class_of), (la, part)
    assert checked >= 500


def test_trim_rejects_non_witness():
    lam = Lambda((2,))
    la = ListAssignment.from_lists(2, [[0], [1]])
    with pytest.raises(ValueError):
        trim_to_exact(la, lam, ColourPartition(lam, (0, 0)))


def test_vertex_group_orders():
    assert len(vertex_group((2, 2))) == 8  # 2! * 2! * 2!
    assert len(vertex_group((3, 1))) == 6
    assert len(vertex_group((2, 1, 1))) == 4
    perms = vertex_group((2, 2))
    assert tuple(range(4)) in perms
    with pytest.raises(ValueError):
        vertex_group((4, 4, 4, 4, 4))


@pytest.mark.parametrize("sizes", [
    (1,), (3,), (1, 1), (2, 1), (2, 2), (3, 1, 1), (1, 2, 1, 2), (3, 2, 1), (2, 2, 2),
    (3, 3, 1, 1), (4, 3, 3, 2, 2, 2, 1),
])
def test_vertex_group_matches_the_reference(sizes):
    # the leaf canonical forms read their lanes in group order
    assert vertex_group(sizes) == reference_vertex_group(sizes)


@pytest.mark.parametrize("sizes", [(5, 1), (3, 3), (2, 2, 2), (4, 2, 2, 1), (1, 1, 1, 1)])
def test_walk_generators_generate_the_vertex_group(sizes):
    # the lex-leader cut is sound only for elements of the group, and its
    # generators should reach all of it
    from lchoose.assignment import _generators

    n = sum(sizes)

    def image(x, mask, shift):
        d = (x >> shift ^ x) & mask
        return x ^ d ^ d << shift

    # vertex v goes to the bit its singleton lands on
    gens = [tuple(image(1 << v, mask, shift).bit_length() - 1 for v in range(n))
            for mask, shift in _generators(sizes)]
    group = set(vertex_group(sizes))
    assert set(gens) <= group
    adjacent_equal = sum(a == b for a, b in zip(sizes, sizes[1:]))
    assert len(gens) == n - len(sizes) + adjacent_equal
    closure, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[v] for v in p)
            if q not in closure:
                closure.add(q)
                frontier.append(q)
    assert closure == group


def scramble(G, lam, la, part, rng):
    """Apply a random symmetry; the canonical key must not move."""
    # vertex permutation preserving parts and part sizes
    vperm = rng.choice(vertex_group(G.part_sizes))
    # colour permutation: shuffle within classes, swap equal-quota classes
    q = lam.size
    class_colours = [[c for c, ci in enumerate(part.class_of) if ci == i] for i in range(q)]
    order = list(range(q))
    by_quota = {}
    for i in order:
        by_quota.setdefault(lam.parts[i], []).append(i)
    cperm_target = {}
    for quota, idxs in by_quota.items():
        shuffled = idxs[:]
        rng.shuffle(shuffled)
        for a, b in zip(idxs, shuffled):
            cperm_target[a] = b
    cmap = {}
    for i in range(q):
        src = class_colours[i]
        dst = class_colours[cperm_target[i]][:]
        rng.shuffle(dst)
        for c_old, c_new in zip(src, dst):
            cmap[c_old] = c_new
    new_masks = [0] * la.n
    for v in range(la.n):
        m = 0
        for c in range(la.universe_size):
            if la.masks[v] >> c & 1:
                m |= 1 << cmap[c]
        new_masks[vperm[v]] = m
    new_class_of = [0] * la.universe_size
    for c in range(la.universe_size):
        new_class_of[cmap[c]] = part.class_of[c]
    return (
        ListAssignment(la.universe_size, tuple(new_masks)),
        ColourPartition(lam, tuple(new_class_of)),
    )


def test_canonical_key_invariant_under_symmetry():
    rng = random.Random(5)
    cells = [((2, 2), (2,)), ((2, 1), (1, 1)), ((3, 1), (2,)), ((1, 1, 1), (1, 1))]
    for sizes, parts in cells:
        G, lam = MultipartiteGraph(sizes), Lambda(parts)
        la, part = next(iter(AssignmentEnumerator(G, lam)))
        key = canonical_key(la, G, lam, part)
        for _ in range(25):
            la2, part2 = scramble(G, lam, la, part, rng)
            assert canonical_key(la2, G, lam, part2) == key


def test_canonical_key_rejects_inexact():
    G, lam = MultipartiteGraph((1, 1)), Lambda((1,))
    la = ListAssignment.from_lists(2, [[0, 1], [0]])
    with pytest.raises(ValueError):
        canonical_key(la, G, lam, ColourPartition(lam, (0, 0)))
    with pytest.raises(ValueError, match="disagree on the vertex count"):
        canonical_key(la, MultipartiteGraph((1, 1, 1)), lam, ColourPartition(lam, (0, 0)))


@pytest.mark.parametrize("lists, lam, built_for, classes", [
    ([[0], [0]], (1, 1), (1,), (0,)),
    ([[0, 1], [0, 1]], (1,), (1, 1), (0, 1)),
])
def test_canonical_key_refuses_a_partition_for_another_lambda(lists, lam, built_for, classes):
    # refused before a count row or a class block is indexed by the other lambda
    la = ListAssignment.from_lists(len(classes), lists)
    partition = ColourPartition(Lambda(built_for), classes)
    with pytest.raises(ValueError, match="different quota multiset"):
        canonical_key(la, MultipartiteGraph((1, 1)), Lambda(lam), partition)


# shapes with 1- and 2-byte lanes, and one with n=17, which needs 4-byte lanes
CANONICAL_SHAPES = [
    ((3, 3), 30), ((5, 1), 30), ((2, 2, 2), 30), ((4, 4, 1), 6), ((3, 3, 3, 1), 6),
    ((4, 3, 3, 2, 2, 2, 1), 1),
]


def _canonical_cases():
    rng = random.Random(31)
    for sizes, count in CANONICAL_SHAPES:
        for _ in range(count):
            yield sizes, random_blocks(rng, sum(sizes), 3, 4)


def test_canonical_blocks_match_the_per_permutation_reference():
    from lchoose.assignment import _canonical_blocks

    for sizes, blocks in _canonical_cases():
        assert _canonical_blocks(sizes, blocks) == reference_canonical_blocks(sizes, blocks)


@pytest.mark.parametrize("sizes, blocks", [
    # a single type in the top-quota class
    ((2, 2), ((3, (0b0111,)), (1, (0b1001, 0b0110, 0b1100)))),
    ((3, 3, 3, 1), ((2, (0b1000000001,)), (1, (0b0000111111, 0b1111000000)))),
    # two classes share the top quota, and the largest image is the second's
    ((2, 2), ((2, (0b0011,)), (2, (0b1010, 0b1110)), (1, (0b1101,)))),
    ((3, 3, 3, 1), ((2, (0b0000011011,)), (2, (0b1010011010, 0b1000101011)),
                    (1, (0b0000001010,)))),
    # the top-quota types look alike under every element, so a lower-quota
    # class decides the maximum
    ((2, 2), ((2, (0b1111, 0b1111)), (1, (0b0001, 0b0110, 0b1000)))),
    ((3, 3, 3, 1), ((2, (0b1111111111,)), (1, (0b0000000011, 0b0110000100)))),
    # exactly one lane reaches the peak: the swap of vertices 0 and 1
    ((2, 1), ((1, (0b001,)),)),
    ((2, 1), ((2, (0b001,)), (1, (0b011, 0b100)))),
    # every lane reaches the peak: all-ones types
    ((2, 2), ((2, (0b1111, 0b1111)),)),
    # the peak is shared by types in two equal-quota classes, in different lanes
    ((2, 2), ((2, (0b0011,)), (2, (0b1100, 0b0001)))),
    ((2, 2), ((1, (0b0001,)), (1, (0b0100, 0b0001)))),
    # three quota groups, given in ascending quota order: every lane ties on
    # the top group, and the lower groups decide
    ((2, 2), ((1, (0b0001,)), (2, (0b0011,)), (3, (0b1111,)))),
    ((2, 1), ((1, (0b001,)), (2, (0b011,)), (3, (0b111,)))),
    # three quota groups in mixed order (two quota-1 classes in the first)
    ((3, 3, 3, 1), ((1, (0b0000000011,)), (3, (0b1111111111,)),
                    (2, (0b0000000111, 0b1000000000)), (1, (0b0000111000,)))),
    ((3, 3), ((1, (0b000001,)), (3, (0b111111, 0b000110, 0b001001)),
              (2, (0b000111, 0b111000)))),
    # two lanes tie on the top group, and two lower classes decide
    ((2, 2, 2), ((1, (0b000011,)), (2, (0b110000, 0b001100)), (1, (0b010101,)))),
    # two equal top-quota classes tie in every lane, the lower one decides
    ((2, 2), ((1, (0b0110, 0b1001)), (2, (0b1111,)), (2, (0b1111,)))),
])
def test_canonical_blocks_hand_cases(sizes, blocks):
    from lchoose.assignment import _canonical_blocks

    assert _canonical_blocks(sizes, blocks) == reference_canonical_blocks(sizes, blocks)


def test_canonical_blocks_reuse_one_memo_per_shape():
    # the module keeps each type's lane data across calls on one shape: a
    # type met in one call must serve the next, whatever blocks hold it
    from lchoose import assignment

    assignment._TYPE_LANES.clear()
    first = ((2, (0b0110, 0b0011)), (1, (0b1000,)))
    second = ((1, (0b0011,)), (1, (0b1001, 0b0110)))
    built = []
    for blocks in (first, second, first):
        got = assignment._canonical_blocks((2, 2), blocks)
        assert got == reference_canonical_blocks((2, 2), blocks)
        built.append(assignment._TYPE_LANES[(2, 2)][0b0011])
    assert set(assignment._TYPE_LANES[(2, 2)]) == {0b0110, 0b0011, 0b1000, 0b1001}
    assert all(entry is built[0] for entry in built)
    for sizes, blocks in _canonical_cases():  # grouped by shape
        got = assignment._canonical_blocks(sizes, blocks)
        assert got == reference_canonical_blocks(sizes, blocks)


def _exact_blocks(rng: random.Random, n: int) -> tuple:
    """Random exact ``(quota, types)`` pairs, quotas ascending: a class of
    quota k joins k random splits of the vertices into at most three types,
    so each vertex lies in exactly k of them."""
    blocks = []
    for k in sorted(rng.randint(1, 2) for _ in range(rng.randint(1, 3))):
        types = []
        for _ in range(k):
            label = [rng.randrange(3) for _ in range(n)]
            types += [t for j in range(3) if (t := sum(1 << v for v in range(n) if label[v] == j))]
        blocks.append((k, tuple(types)))
    return tuple(blocks)


def test_type_lanes_are_kept_for_the_last_shape_only():
    # canonical forms and keys taken in turn over the shapes: a call on
    # another shape than the last replaces every type entry, and each call
    # still answers as the per-permutation reference
    from itertools import zip_longest

    from lchoose import assignment

    rng = random.Random(59)
    per_shape = [[c for c in _canonical_cases() if c[0] == sizes] for sizes, _ in CANONICAL_SHAPES]
    last = None
    for i, (sizes, blocks) in enumerate(c for row in zip_longest(*per_shape) for c in row if c):
        if i % 2:
            blocks = _exact_blocks(rng, sum(sizes))
            types = [t for _, ts in blocks for t in ts]
            la = ListAssignment(len(types), tuple(assignment._transpose(types, sum(sizes))))
            lam = Lambda(tuple(k for k, _ in blocks))
            part = ColourPartition(lam, tuple(ci for ci, (_, ts) in enumerate(blocks) for _ in ts))
            got = canonical_key(la, MultipartiteGraph(sizes), lam, part)
            assert got == repr(reference_canonical_blocks(sizes, blocks)).encode("ascii")
        else:
            assert assignment._canonical_blocks(sizes, blocks) == reference_canonical_blocks(
                sizes, blocks)
        assert sizes != last and list(assignment._TYPE_LANES) == [sizes]
        assert set(assignment._TYPE_LANES[sizes]) == {t for _, ts in blocks for t in ts}
        last = sizes


def test_walks_in_lockstep_give_their_own_streams():
    # two walks on different shapes, one item each in turn: each replaces
    # the type entries the other built, and neither stream may change
    from itertools import zip_longest

    cells = (((2, 2, 1), (1, 2)), ((3, 2), (2,)))

    def stream(sizes, parts):
        return AssignmentEnumerator(MultipartiteGraph(sizes), Lambda(parts))

    def items(enum):
        return [(la.masks, part.class_of) for la, part in enum]

    alone = [items(stream(*cell)) for cell in cells]
    together = list(zip(*zip_longest(*(stream(*cell) for cell in cells))))
    assert list(map(len, alone)) == [13326, 277]
    assert [items(filter(None, row)) for row in together] == alone


def test_two_byte_peak_lanes_are_gathered(monkeypatch):
    # 2-byte lanes (n = 9): the type {0} peaks at 1 << 8, in the lanes g
    # with g[0] == 8; those lanes, and no others, are gathered
    from operator import itemgetter

    from lchoose import assignment

    sizes = (3, 3, 3)
    blocks = ((2, (0b000000001,)), (1, (0b000000110, 0b011000000)))
    gathered = set()
    monkeypatch.setattr(assignment, "itemgetter",
                        lambda *lanes: gathered.update(lanes) or itemgetter(*lanes))
    assignment._TYPE_LANES.clear()
    got = assignment._canonical_blocks(sizes, blocks)
    assert got == reference_canonical_blocks(sizes, blocks)
    view, hits = assignment._TYPE_LANES[sizes][0b000000001]
    assert view.itemsize == 2
    assert gathered == set(hits) == {i for i, g in enumerate(vertex_group(sizes)) if g[0] == 8}


def test_peak_lanes_hold_the_largest_images():
    # every type of every shape on at most 8 vertices but the two whose group
    # is all of S_8: a type's peak lanes are exactly the group elements under
    # which its explicit image is the largest one
    from lchoose import assignment
    from lchoose.graphs import part_vectors

    shapes = (s for n in range(1, 9) for k in range(1, n + 1) for s in part_vectors(n, k))
    for sizes in (s for s in shapes if s not in ((8,), (1,) * 8)):
        per_lane = []  # per group element g, the image of every type under g
        for g in vertex_group(sizes):
            images = [0]  # images[m]: the image of type m under g
            for v in g:
                images += [x + (1 << v) for x in images]
            per_lane.append(images)
        types = tuple(range(1, 1 << sum(sizes)))
        assignment._lane_images(sizes, ((1, types),))
        entries = assignment._TYPE_LANES[sizes]
        for m in types:
            column = [images[m] for images in per_lane]
            best = max(column)
            assert entries[m][1] == [g for g, x in enumerate(column) if x == best], (sizes, m)


def test_peaks_are_the_largest_explicit_images():
    # every vertex set of every shape on at most 7 vertices, against the
    # largest of its images under each explicit group element
    from lchoose.assignment import _peaks
    from lchoose.graphs import part_vectors

    for sizes in (s for n in range(1, 8) for k in range(1, n + 1) for s in part_vectors(n, k)):
        best = [0] * (1 << sum(sizes))
        for g in vertex_group(sizes):
            images = [0]  # images[m]: the image of the vertex set m under g
            for v in g:
                images += [x | 1 << v for x in images]
            best = list(map(max, best, images))
        assert list(_peaks(sizes)) == best, sizes


def test_peaks_by_runs_match_the_closed_form():
    # the run-by-run outer sum against the whole-set closed form, on every
    # shape up to 9 vertices and on one 17-vertex shape of four runs
    from lchoose.assignment import _peaks
    from lchoose.graphs import part_vectors

    shapes = [s for n in range(1, 10) for k in range(1, n + 1) for s in part_vectors(n, k)]
    for sizes in shapes + [(4, 3, 3, 2, 2, 2, 1)]:
        assert _peaks(sizes) == reference_peaks(sizes), sizes


def test_leaf_test_agrees_with_the_orbit_maximum():
    # the walk's leaf test compares the orbit maximum with the blocks it
    # holds; it must accept exactly the blocks that are their own orbit
    # maximum, and no unsorted ones
    from lchoose.assignment import _canonical_blocks

    def sort(blocks):  # the identity's encoding
        return tuple(sorted(((k, tuple(sorted(ms, reverse=True))) for k, ms in blocks),
                            reverse=True))

    seen = set()  # (sorted, accepted) pairs met
    for sizes, blocks in _canonical_cases():
        canon = reference_canonical_blocks(sizes, blocks)
        for b in (blocks, sort(blocks), canon):
            leaf = _canonical_blocks(sizes, b) == b
            assert leaf == (canon == b)
            seen.add((b == sort(b), leaf))
    assert seen == {(False, False), (True, False), (True, True)}


def test_canonical_key_bytes_pinned():
    # keys are compared across runs (verdict corpus, family dedup), so their
    # exact bytes are part of the contract
    import hashlib

    from lchoose.constructions import ThreesFamilyEnumerator

    lam = Lambda((4,))
    cands = list(ThreesFamilyEnumerator(4, Budget(max_nodes=200)))
    assert len(cands) == 10
    keys = [canonical_key(c.assignment, c.graph, lam,
                          ColourPartition(lam, (0,) * c.assignment.universe_size)) for c in cands]
    for sizes, parts in (((3, 3), (1, 1)), ((2, 2, 1), (1, 2))):
        G, lam = MultipartiteGraph(sizes), Lambda(parts)
        keys += [canonical_key(la, G, lam, part) for la, part in AssignmentEnumerator(G, lam)]
    assert len(keys) == 10 + 644 + 13326
    digest = hashlib.sha256(b"\n".join(keys)).hexdigest()
    assert digest == "1475e479f8c52a9927fc8e1cde2efca2d3027484cab4d58df9916b08e5c171e7"


# orbit counts pinned from the brute-force oracle
ORBIT_CELLS = [
    ((1, 1), (1,), 2),
    ((1, 1), (2,), 3),
    ((1, 1), (1, 1), 3),
    ((2, 1), (1,), 4),
    ((2, 1), (2,), 12),
    ((2, 1), (1, 1), 11),
    ((2, 2), (1,), 7),
    ((2, 2), (2,), 40),
    ((2, 2), (1, 1), 37),
    ((3, 1), (2,), 44),
    ((1, 1, 1), (1, 1), 7),
    ((2, 1, 1), (1, 1), 54),
]

# the first masks of the unpruned stream, which pin the walk's order
STREAM_HEADS = {
    ((2, 2), (1, 1)): [(3, 3, 3, 3), (5, 3, 3, 3), (5, 5, 3, 3)],
}


@pytest.mark.parametrize("sizes,parts,count", ORBIT_CELLS)
def test_enumerator_hits_every_orbit_once(sizes, parts, count):
    G, lam = MultipartiteGraph(sizes), Lambda(parts)
    enum = AssignmentEnumerator(G, lam)
    keys, masks = [], []
    for la, part in enum:
        masks.append(la.masks)
        counts = quota_counts(la, part)
        assert all(row == list(lam.parts) for row in counts)
        assert la.universe_size <= G.n * lam.total
        keys.append(canonical_key(la, G, lam, part))
    assert not enum.truncated
    assert len(keys) == len(set(keys)), "an orbit was produced twice"
    assert set(keys) == naive_orbit_keys(G, lam)
    assert len(keys) == count == enum.orbits_seen
    head = STREAM_HEADS.get((sizes, parts), [])
    assert masks[: len(head)] == head


# per cell, the orbit count and the sha256 of the unpruned stream's canonical
# keys in stream order: a prune that drops a canonical leaf or reorders the
# stream changes the digest
PINNED_STREAMS = [
    ((4, 2), (2,), 1306, "c6332a33b08130487d0042ebd8bcdad427bd08b053921659f9a15d77155143da"),
    ((5, 1), (2,), 664, "31ad69b9b888a6c3392ba09c864dc6350b9eaec4cca72eb6f5492b220bb88257"),
    ((3, 3), (2,), 854, "2971a8560e31d54426e8c60df8dd39dd87e6f64995d9383b188dbd5565759a13"),
    ((2, 2, 1), (3,), 5417, "5b23da425457f93862abe617cb60e2996f9aa5ad887b9c7926fb8cada515ab45"),
]


@pytest.mark.parametrize("sizes, parts, count, digest", PINNED_STREAMS)
def test_unpruned_stream_pinned(sizes, parts, count, digest):
    import hashlib

    G, lam = MultipartiteGraph(sizes), Lambda(parts)
    enum = AssignmentEnumerator(G, lam)
    keys = [canonical_key(la, G, lam, part) for la, part in enum]
    assert (len(keys), enum.orbits_seen, enum.truncated) == (count, count, False)
    assert hashlib.sha256(b"\n".join(keys)).hexdigest() == digest


# the pruned walk against the unpruned one, no count pinned: every shape with
# one part per unit of quota up to 5 vertices, the 6-vertex two-part shapes
# for (2), and six shapes with more parts than quota, which hold most of the
# counterexample orbits
SOUNDNESS_CELLS = [
    (sizes, parts)
    for parts in ((2,), (1, 1), (3,), (1, 2), (1, 1, 1))
    for n in range(sum(parts), 6)
    for sizes in part_vectors(n, sum(parts))
] + [(sizes, (2,)) for sizes in part_vectors(6, 2)] + [
    ((2, 2, 1), (2,)), ((2, 2, 1), (1, 1)), ((4, 3), (2,)),
    ((5, 2), (2,)), ((2, 1, 1, 1), (3,)), ((2, 1, 1, 1), (1, 2)),
]


@pytest.mark.parametrize("sizes, parts", SOUNDNESS_CELLS, ids=[
    f"{','.join(map(str, sizes))}/{','.join(map(str, parts))}" for sizes, parts in SOUNDNESS_CELLS])
def test_pruned_stream_is_the_unpruned_stream_less_colourable_items(sizes, parts):
    # the lookahead and colourability cuts drop exactly the assignments that
    # brute force colours, and keep the rest in the unpruned order
    G, lam = MultipartiteGraph(sizes), Lambda(parts)
    pruned = AssignmentEnumerator(G, lam, prune_colourable=True)
    unpruned = AssignmentEnumerator(G, lam)
    want = [(la, part) for la, part in unpruned if not naive_colouring_exists(G, la)]
    assert list(pruned) == want
    assert not pruned.truncated and not unpruned.truncated


def test_enumerator_budget_truncates():
    G, lam = MultipartiteGraph((2, 2)), Lambda((2,))
    enum = AssignmentEnumerator(G, lam, Budget(max_nodes=10))
    got = sum(1 for _ in enum)
    assert enum.truncated
    assert got < 40


def _spent(budget):
    budget.tick()
    return budget


@pytest.mark.parametrize("make", [
    lambda b: AssignmentEnumerator(MultipartiteGraph((2, 2)), Lambda((2,)), b),
    lambda b: ThreesFamilyEnumerator(4, b),
], ids=["orbit-walk", "threes-family"])
@pytest.mark.parametrize("budget, walk, cut", [
    (lambda: Budget(), list, False),
    (lambda: Budget(max_nodes=10), list, True),
    (lambda: _spent(Budget(max_nodes=0)), list, True),
    (lambda: Budget(), lambda enum: next(iter(enum)), False),
], ids=["fresh", "cut", "spent-before", "abandoned"])
def test_truncated_is_the_budget_state(make, budget, walk, cut):
    enum = make(budget())
    walk(enum)
    assert enum.truncated is enum.budget.exhausted is cut


def test_enumerate_wrapper():
    G, lam = MultipartiteGraph((2, 1)), Lambda((2,))
    enum = AssignmentEnumerator(G, lam)
    assert sum(1 for _ in enum) == 12
    assert not enum.truncated


def test_dict_round_trip():
    lam = Lambda((1, 2))
    la = ListAssignment.from_lists(3, [[0, 1, 2], [0, 1, 2]])
    part = ColourPartition(lam, (0, 1, 1))
    doc = assignment_to_dict(la, part)
    assert set(doc) == {"universe", "lists", "partition", "lambda"}
    assert doc == {
        "universe": 3,
        "lists": [[0, 1, 2], [0, 1, 2]],
        "partition": [0, 1, 1],
        "lambda": [1, 2],
    }
    la2, part2, lam2 = assignment_from_dict(doc)
    assert la2 == la and part2 == part and lam2 == lam

    bare = assignment_to_dict(la)
    assert bare["partition"] is None and bare["lambda"] is None
    la3, part3, lam3 = assignment_from_dict(bare)
    assert la3 == la and part3 is None and lam3 is None


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"universe": 2},
        {"universe": "2", "lists": [[0], [1]]},
        {"universe": 2, "lists": [[0], ["x"]]},
        {"universe": 2, "lists": [[0], [1]], "partition": [0]},
        {"universe": 2, "lists": [[0], [1]], "partition": [0, 0]},
        {"universe": 2, "lists": [[0], [1]], "lambda": 3},
        [1, 2],
    ],
)
def test_dict_rejects_malformed(doc):
    with pytest.raises(ValueError):
        assignment_from_dict(doc)


@pytest.mark.parametrize("lists", [5, {"0": [0], "1": [1]}, "01"])
def test_dict_rejects_lists_that_are_not_an_array(lists):
    with pytest.raises(ValueError, match="lists must be an array of arrays"):
        assignment_from_dict({"universe": 2, "lists": lists})


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda", [1.9, 1.2]),
        ("lambda", [True, 1]),
        ("lambda", ["1", "1"]),
        ("partition", [0.5, 1.4]),
        ("partition", [False, True]),
        ("partition", ["0", "1"]),
        ("lists", [[True, 0], [1]]),
        ("lists", [[0.0], [1.0]]),
        ("lists", [["0"], [1]]),
        ("universe", True),
        ("universe", 2.0),
    ],
)
def test_dict_refuses_entries_that_are_not_integers(field, value):
    # int() would floor 1.9 to 1 and read True as 1: refuse them instead
    doc = {"universe": 2, "lists": [[0], [1]], "partition": [0, 1], "lambda": [1, 1]}
    assignment_from_dict(doc)
    with pytest.raises(ValueError):
        assignment_from_dict({**doc, field: value})


_CONSTRUCTORS = {
    "lambda": lambda x: Lambda((x, 1, 2)),
    "graph": lambda x: MultipartiteGraph((2, x)),
    "partition": lambda x: ColourPartition(Lambda((1, 1)), (0, x)),
    "four-tuple": lambda x: FourTuple((x, 0, 1, 0), 2),
    "lists": lambda x: ListAssignment.from_lists(2, [[0, 1], [x]]),
    "universe": lambda x: ListAssignment(x, (1, 1)),
    "masks": lambda x: ListAssignment(1, (1, x)),
    "target": lambda x: FourTuple((1, 0, 1, 0), x),
}


@pytest.mark.parametrize("value", [1.9, True, "1", 2.0])
@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_constructors_refuse_entries_that_are_not_integers(name, value):
    # each builds from the plain int 1; int() would floor 1.9 to 1, read True
    # as 1 and parse "1", so a silent conversion would pass unnoticed, and
    # a float universe like 2.0 would fail later with a TypeError
    _CONSTRUCTORS[name](1)
    with pytest.raises(ValueError, match="must be integers"):
        _CONSTRUCTORS[name](value)


@pytest.mark.parametrize(
    "doc",
    [
        {"universe": 3, "lists": [[0, 1], [2, 3]]},  # colour 3 outside
        {"universe": 3, "lists": [[0, -1], [1, 2]]},  # negative colour
        {"universe": 2, "lists": [[0], [1 << 40]]},  # huge colour
        {"universe": 10**12, "lists": [[0]]},  # universe above the entries
        {"universe": 5, "lists": [[0, 1], [2]]},
        {"universe": 0, "lists": [[0]]},
    ],
)
def test_dict_rejects_colours_outside_the_universe_before_building_masks(doc, monkeypatch):
    def built(cls, universe, lists):
        pytest.fail("bitmasks were built before the document was validated")

    monkeypatch.setattr(ListAssignment, "from_lists", classmethod(built))
    with pytest.raises(ValueError):
        assignment_from_dict(doc)
