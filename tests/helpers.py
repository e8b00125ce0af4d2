"""Independent brute-force oracles the real implementations are tested
against.  Everything here favours obviousness over speed and is only run on
tiny instances."""

from __future__ import annotations

import random
import sys
from array import array
from functools import cache, partial
from itertools import accumulate, permutations, product
from typing import Iterator

from lchoose.assignment import (
    ColourPartition,
    ListAssignment,
    _check_group,
    _generators,
    canonical_key,
    quota_counts,
    vertex_group,
)
from lchoose.budget import Budget
from lchoose.constructions import ThreesBadCandidate, _balanced_vectors
from lchoose.graphs import ColourableSets, MultipartiteGraph, part_vectors, subsets_without
from lchoose.lam import Lambda
from lchoose.solver import Colouring


def naive_colouring_exists(graph: MultipartiteGraph, assignment: ListAssignment) -> bool:
    """Try every per-vertex colour choice and test properness directly."""
    choices = [assignment.colours(v) for v in range(graph.n)]
    for pick in product(*choices):
        ok = True
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if pick[u] == pick[v] and graph.adjacent(u, v):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def reference_greedy_complements(graph: MultipartiteGraph, f) -> int:
    """E(f) one vertex set at a time: W is kept when V \\ W peels to nothing,
    removing while it can some remaining vertex v whose demand ``f[v]``
    exceeds its neighbours still remaining."""
    family = 0
    for w in range(1 << graph.n):
        left = [v for v in range(graph.n) if not w >> v & 1]
        while left:
            peel = [v for v in left if f[v] > sum(graph.adjacent(u, v) for u in left)]
            if not peel:
                break
            left.remove(peel[0])
        if not left:
            family |= 1 << w
    return family


def reference_add(graph: MultipartiteGraph, family: int, type_mask: int) -> int:
    """``ColourableSets.add`` as it stood before the per-part share tables:
    per part, one shift-and zeta step for each vertex of the type's share."""
    without = _reference_sets_without(graph.n)
    out = family
    for part in (((1 << len(p)) - 1) << p.start for p in graph.parts):
        t = type_mask & part
        g = family
        while t:
            low = t & -t
            g |= (g & without[low.bit_length() - 1]) << low
            t ^= low
        out |= g
    return out


def reference_peaks(part_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """``_peaks`` in its closed form over the whole vertex set: per set, the
    parts' share counts sorted by (size descending, count ascending) and
    packed into each part's top vertices."""
    ends = tuple(accumulate(part_sizes))
    shares = (sorted((-size, (s >> end - size & (1 << size) - 1).bit_count())
                     for size, end in zip(part_sizes, ends)) for s in range(1 << ends[-1]))
    return tuple(sum(((1 << c) - 1) << end - c for (_, c), end in zip(row, ends)) for row in shares)


def _squeezed_random_assignment(rng: random.Random, n: int, universe_cap: int) -> ListAssignment:
    u = rng.randint(1, universe_cap)
    masks = []
    for _ in range(n):
        size = rng.randint(1, u)
        cols = rng.sample(range(u), size)
        masks.append(sum(1 << c for c in cols))
    union = 0
    for m in masks:
        union |= m
    # squeeze unused colours out so the union is a full contiguous universe
    live = [c for c in range(u) if union >> c & 1]
    remap = {c: i for i, c in enumerate(live)}
    squeezed = tuple(
        sum(1 << remap[c] for c in range(u) if m >> c & 1) for m in masks
    )
    return ListAssignment(len(live), squeezed)


def _shapes(n: int) -> list[tuple[int, ...]]:
    return [s for k in range(1, n + 1) for s in part_vectors(n, k)]


def colouring_random_corpus(seed: int = 777, count: int = 10_000):
    """The seeded (graph, assignment) corpus of acceptance criterion 7:
    every shape on up to 7 vertices, universes of up to 5 colours."""
    rng = random.Random(seed)
    shapes_by_n = {n: _shapes(n) for n in range(1, 8)}
    for _ in range(count):
        n = rng.randint(1, 7)
        graph = MultipartiteGraph(rng.choice(shapes_by_n[n]))
        yield graph, _squeezed_random_assignment(rng, n, 5)


def colouring_micro_grid():
    """Every shape on up to 4 vertices with every list tuple over a universe
    of up to 3 colours whose union is the full set (criterion 7's grid)."""
    for n in range(1, 5):
        for sizes in _shapes(n):
            graph = MultipartiteGraph(sizes)
            for u in range(1, 4):
                full = (1 << u) - 1
                for masks in product(range(1, full + 1), repeat=n):
                    union = 0
                    for m in masks:
                        union |= m
                    if union == full:
                        yield graph, ListAssignment(u, masks)


def _class_multisets(n: int, quota: int):
    """All multisets of nonempty vertex subsets covering each vertex exactly
    ``quota`` times, as non-increasing tuples of masks."""
    full = (1 << n) - 1

    def rec(max_mask: int, remaining: tuple[int, ...], acc: list[int]):
        if all(r == 0 for r in remaining):
            yield tuple(acc)
            return
        for mask in range(min(max_mask, full), 0, -1):
            fits = True
            for v in range(n):
                if mask >> v & 1 and remaining[v] == 0:
                    fits = False
                    break
            if not fits:
                continue
            nxt = tuple(
                r - (mask >> v & 1) for v, r in enumerate(remaining)
            )
            acc.append(mask)
            yield from rec(mask, nxt, acc)
            acc.pop()

    yield from rec(full, (quota,) * n, [])


def naive_exact_assignments(graph: MultipartiteGraph, lam: Lambda):
    """Every exact assignment, one (assignment, partition) per raw choice.

    Classes are filled independently with coverage-exact type multisets;
    no symmetry reduction happens here.
    """
    n = graph.n
    per_class = [list(_class_multisets(n, k)) for k in lam.parts]
    for combo in product(*per_class):
        masks = [0] * n
        class_of = []
        colour = 0
        for ci, types in enumerate(combo):
            for t in types:
                for v in range(n):
                    if t >> v & 1:
                        masks[v] |= 1 << colour
                class_of.append(ci)
                colour += 1
        yield (
            ListAssignment(colour, tuple(masks)),
            ColourPartition(lam, tuple(class_of)),
        )


def naive_orbit_keys(graph: MultipartiteGraph, lam: Lambda) -> set[bytes]:
    """Canonical keys of all exact-assignment orbits, from brute force."""
    return {
        canonical_key(la, graph, lam, part)
        for la, part in naive_exact_assignments(graph, lam)
    }


def reference_vertex_group(part_sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``vertex_group`` as it was built from part offsets and a part map:
    the same permutations must come out in the same order."""
    sizes = part_sizes
    k = len(sizes)
    n = sum(sizes)
    starts = []
    acc = 0
    for s in sizes:
        starts.append(acc)
        acc += s
    by_size: dict[int, list[int]] = {}
    for i, s in enumerate(sizes):
        by_size.setdefault(s, []).append(i)
    size_items = sorted(by_size.items())
    perms: list[tuple[int, ...]] = []
    for targets_combo in product(*(permutations(idxs) for _, idxs in size_items)):
        part_map = [0] * k
        for (_, idxs), targets in zip(size_items, targets_combo):
            for src, dst in zip(idxs, targets):
                part_map[src] = dst
        for withins in product(*(permutations(range(s)) for s in sizes)):
            perm = [0] * n
            for i in range(k):
                base = starts[part_map[i]]
                w = withins[i]
                s0 = starts[i]
                for o in range(sizes[i]):
                    perm[s0 + o] = base + w[o]
            perms.append(tuple(perm))
    return tuple(perms)


def reference_canonical_blocks(part_sizes: tuple[int, ...], blocks: tuple) -> tuple:
    """The orbit maximum of ``blocks`` (``(quota, types)`` pairs), one vertex
    permutation at a time: map every type bit by bit, sort each class's
    images, then sort the classes, and keep the largest encoding."""
    best = None
    for perm in vertex_group(part_sizes):
        enc = tuple(sorted(
            ((k, tuple(sorted((sum(1 << perm[v] for v in range(len(perm)) if m >> v & 1)
                               for m in ms), reverse=True)))
             for k, ms in blocks),
            reverse=True,
        ))
        if best is None or enc > best:
            best = enc
    return best


def reference_threes_family(
    k: int, budget: Budget, quotient=None
) -> tuple[list[ThreesBadCandidate], bool]:
    """The miss-vector enumeration with a full canonical key for every row
    tuple whose ``quotient(rows, half)`` is new (by default its row
    multiset): the candidates in order, and whether ``budget`` cut the walk
    short."""
    from itertools import product as iproduct

    half = k // 2
    u = 3 * half
    base = tuple(sorted([0, 1, 2] * half))
    singleton = (1 << k) - 1
    singles = tuple([singleton] * (half - 1))
    lam = Lambda((k,))
    seen_rows: set[tuple] = set()
    seen: set[bytes] = set()
    graph = MultipartiteGraph((3,) * (half + 1) + (1,) * (half - 1))
    partition = ColourPartition(lam, (0,) * u)
    vecs = list(_balanced_vectors(u, half))
    found = []
    for rows in iproduct(vecs, repeat=half):
        if not budget.tick():
            return found, True
        # unpinned triple parts may swap freely, so their row multiset (the
        # default) is a cheap first quotient before the full canonical key
        rkey = tuple(sorted(rows)) if quotient is None else quotient(rows, half)
        if rkey in seen_rows:
            continue
        seen_rows.add(rkey)
        cand = ThreesBadCandidate(k, (base,) + tuple(rows), singles)
        key = canonical_key(cand.assignment, graph, lam, partition)
        if key in seen:
            continue
        seen.add(key)
        found.append(cand)
    return found, False


def random_blocks(rng: random.Random, n: int, classes: int, most: int) -> tuple:
    """Unsorted ``(quota, types)`` pairs: up to ``classes`` classes with
    quotas in 1..2 (so equal quotas occur), each of 1..``most`` nonempty
    vertex sets."""
    return tuple(
        (rng.randint(1, 2), tuple(rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, most))))
        for _ in range(rng.randint(1, classes))
    )


def naive_is_choosable(graph: MultipartiteGraph, lam: Lambda) -> bool:
    """Exhaustive check over raw exact assignments with the product colourer."""
    seen: set[bytes] = set()
    for la, part in naive_exact_assignments(graph, lam):
        key = canonical_key(la, graph, lam, part)
        if key in seen:
            continue
        seen.add(key)
        if not naive_colouring_exists(graph, la):
            return False
    return True


def naive_witness_exists(assignment: ListAssignment, lam: Lambda) -> bool:
    """Try every colour-to-class map and test the quotas directly."""
    q = lam.size
    for classes in product(range(q), repeat=assignment.universe_size):
        ok = True
        for v in range(assignment.n):
            got = [0] * q
            for c, ci in enumerate(classes):
                if assignment.masks[v] >> c & 1:
                    got[ci] += 1
            if any(got[i] < lam.parts[i] for i in range(q)):
                ok = False
                break
        if ok:
            return True
    return False


def reference_transpose(rows, width: int) -> list[int]:
    """Per bit j < width, the mask of the rows holding it, bit by bit."""
    return [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(width)]


def reference_witness(assignment: ListAssignment, lam: Lambda) -> ColourPartition | None:
    """``is_lambda_assignment`` as it was before colours of one type were
    made interchangeable: the same search over labelled class sequences, with
    only the equal-quota first-use rule.  Its first witness is the one the
    faster search must still return."""
    ks = lam.parts
    n = assignment.n
    universe = assignment.universe_size
    types = reference_transpose(assignment.masks, universe)
    order = sorted(range(universe), key=lambda c: (-types[c].bit_count(), c))
    full = (1 << n) - 1
    # bit 0 of every layer: lam.total layers for the counters, universe for supply
    layers = ((1 << lam.total * n) - 1) // full
    wide = ((1 << universe * n) - 1) // full
    supply = [0]
    for c in reversed(order):  # one more colour for every vertex of its type
        supply.append(supply[-1] | (supply[-1] << n | types[c]) & types[c] * wide)
    supply.reverse()

    def rec(pos, owed, need, used):
        if pos == universe:
            return ()
        s = types[order[pos]]
        have = supply[pos + 1]
        for i, k in enumerate(ks):
            if i and k == ks[i - 1] and not used >> i - 1 & 1:
                continue
            paid = (s & owed[i]) * layers
            left = need & ~paid | need >> n & paid
            if left & ~have:
                continue
            nxt = owed[:i] + (owed[i] & ~paid | owed[i] >> n & paid,) + owed[i + 1:]
            rest = rec(pos + 1, nxt, left, used | 1 << i)
            if rest is not None:
                return (i,) + rest
        return None

    need = (1 << lam.total * n) - 1
    choice = None if need & ~supply[0] else rec(0, tuple((1 << k * n) - 1 for k in ks), need, 0)
    if choice is None:
        return None
    return ColourPartition(lam, tuple(i for _, i in sorted(zip(order, choice))))


def reference_trim_to_exact(
    assignment: ListAssignment, lam: Lambda, partition: ColourPartition
) -> tuple[ListAssignment, ColourPartition]:
    """``trim_to_exact`` as it was with its own count loop and a renumbering
    dict: keep the ``k_i`` smallest colours of each class per list, drop the
    colours no list keeps, and renumber the survivors in order."""
    if partition.lam != lam:
        raise ValueError("partition was built for a different quota multiset")
    counts = quota_counts(assignment, partition)
    for v in range(assignment.n):
        for i, k in enumerate(lam.parts):
            if counts[v][i] < k:
                raise ValueError(
                    f"partition does not witness the quotas (vertex {v}, class {i})"
                )
    cms = partition.class_masks()
    kept_masks = []
    for v in range(assignment.n):
        m = 0
        for i, k in enumerate(lam.parts):
            inter = assignment.masks[v] & cms[i]
            for _ in range(k):
                low = inter & -inter
                m |= low
                inter ^= low
        kept_masks.append(m)
    used = 0
    for m in kept_masks:
        used |= m
    survivors = [c for c in range(assignment.universe_size) if used >> c & 1]
    renum = {c: j for j, c in enumerate(survivors)}
    new_masks = []
    for m in kept_masks:
        nm = 0
        while m:
            low = m & -m
            nm |= 1 << renum[low.bit_length() - 1]
            m ^= low
        new_masks.append(nm)
    trimmed = ListAssignment(len(survivors), tuple(new_masks))
    new_classes = tuple(partition.class_of[c] for c in survivors)
    return trimmed, ColourPartition(lam, new_classes)


def naive_refines(fine: Lambda, coarse: Lambda) -> bool:
    """Group fine parts onto coarse parts with exact sums, by brute force."""
    p, q = fine.size, coarse.size
    for grouping in product(range(q), repeat=p):
        sums = [0] * q
        for j, g in enumerate(grouping):
            sums[g] += fine.parts[j]
        if tuple(sums) == coarse.parts:
            return True
    return False


def naive_precedes(lam: Lambda, other: Lambda) -> bool:
    """Disjoint part subsets of ``other`` with sums covering ``lam``'s parts."""
    p, q = lam.size, other.size
    # slot q means unused
    for grouping in product(range(p + 1), repeat=q):
        sums = [0] * p
        for j, g in enumerate(grouping):
            if g < p:
                sums[g] += other.parts[j]
        if all(sums[i] >= lam.parts[i] for i in range(p)):
            return True
    return False


def half_list_corpus(seed: int, count: int):
    """Seeded (graph, assignment) cases where colour counting bites: 8 to 14
    vertices in at least half as many parts, universes of 6 to 12 colours,
    and every list half the universe (rounded down)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(8, 14)
        graph = MultipartiteGraph(rng.choice(list(part_vectors(n, rng.randint(n // 2, n)))))
        u = rng.randint(6, 12)
        union = 0
        while union != (1 << u) - 1:
            masks = tuple(sum(1 << c for c in rng.sample(range(u), u // 2)) for _ in range(n))
            union = 0
            for m in masks:
                union |= m
        yield graph, ListAssignment(u, masks)


def _sorted_lanes(quotas: list[int], rows) -> Iterator[tuple]:
    for cols in zip(*(zip(*r) for r in rows)):  # per lane, each class's images
        enc = zip(quotas, (tuple(sorted(c, reverse=True)) for c in cols))
        yield tuple(sorted(enc, reverse=True))


# per shape: the lane typecode and, per vertex v, an integer whose lane g is 1 << g[v]
_REFERENCE_LANES: dict[tuple[int, ...], tuple[str, list[int]]] = {}


def _reference_lane_images(part_sizes: tuple[int, ...], blocks: tuple) -> list[list[array]]:
    """``_lane_images`` as it stood before it kept a memo: per class and type
    of ``blocks``, an ``array`` of the type's images under every vertex-group
    element, built afresh on every call."""
    group = vertex_group(part_sizes)
    n = sum(part_sizes)
    if part_sizes not in _REFERENCE_LANES:
        code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= n)
        _REFERENCE_LANES[part_sizes] = code, [
            int.from_bytes(array(code, [1 << g[v] for g in group]), sys.byteorder)
            for v in range(n)]
    code, lanes = _REFERENCE_LANES[part_sizes]
    size = len(group) * array(code).itemsize
    return [[array(code, sum(x for v, x in enumerate(lanes) if m >> v & 1)
                   .to_bytes(size, sys.byteorder)) for m in ms] for _, ms in blocks]


def _encodings(part_sizes: tuple[int, ...], blocks: tuple) -> Iterator[tuple]:
    """Lazily, the encoding of ``blocks`` under each element of the vertex group."""
    return _sorted_lanes([k for k, _ in blocks], _reference_lane_images(part_sizes, blocks))


class ReferenceAssignmentEnumerator:
    """The orbit walk as it stood before it decided colourable children in
    the parent, bounded its type scan by the top owed vertex and tested
    leaves by the orbit maximum: every state it reaches ticks the budget, a
    colourable one returns only once entered, and a leaf is kept when no
    lane encoding exceeds it.  Node counts and streams of the current walk
    must match it with ``prune_colourable`` off."""

    def __init__(
        self,
        graph: MultipartiteGraph,
        lam: Lambda,
        budget: Budget | None = None,
        prune_colourable: bool = False,
    ):
        _check_group(graph.part_sizes)
        self.graph = graph
        self.lam = lam
        self.budget = budget if budget is not None else Budget()
        self.prune = prune_colourable
        self.truncated = False
        self.orbits_seen = 0
        self._gen = self._walk()

    def __iter__(self) -> Iterator[tuple[ListAssignment, ColourPartition]]:
        return self._gen

    def _build(self, done: tuple[tuple[int, ...], ...]):
        # colours are numbered in placement order
        types = [s for cls in done for s in cls]
        masks = tuple(
            sum(1 << c for c, s in enumerate(types) if s >> v & 1) for v in range(self.graph.n)
        )
        class_of = tuple(len(done) - 1 - ci for ci, cls in enumerate(done) for _ in cls)
        return ListAssignment(len(types), masks), ColourPartition(self.lam, class_of)

    def _walk(self):
        G = self.graph
        n = G.n
        full = (1 << n) - 1
        quotas = tuple(sorted(self.lam.parts, reverse=True))
        part_sizes = G.part_sizes
        tick = self.budget.tick
        # ``owed`` packs the current class's colours each vertex is still owed
        layers = sum(1 << j * n for j in range(quotas[0]))
        # a family holds the sets the placed colours can colour (EMPTY unpruned)
        add = partial(reference_add, G) if self.prune else lambda family, s: family
        start = ()  # every class opens with this prefix; ``img is cls`` tests for it

        def grow(ci, done, cls, owed, family, gens, images, bound):
            if not tick():
                self.truncated = True
                return
            rem = owed & full
            if rem == 0:
                done += (cls,)
                if ci + 1 < len(quotas):
                    k = quotas[ci + 1]
                    bound = cls if quotas[ci] == k else None
                    # later classes are checked only by the generators
                    # fixing every finished class
                    gens = [g for g, img in zip(gens, images) if img == cls]
                    yield from grow(ci + 1, done, start, (1 << k * n) - 1, family,
                                    gens, [start] * len(gens), bound)
                    return
                blocks = tuple(zip(quotas, done))
                # orbit maximum iff no group element gives a larger image
                if all(e <= blocks for e in _encodings(part_sizes, blocks)):
                    self.orbits_seen += 1
                    if not family >> full & 1:
                        yield self._build(done)
                return
            # colourability is monotone in the lists: a colourable partial
            # can never complete to a counterexample
            if family >> full & 1:
                return
            pos = len(cls)
            ceiling = cls[-1] if cls else full
            if bound is not None:
                if pos == len(bound):
                    return  # equal prefix already used the whole bound
                ceiling = min(ceiling, bound[pos])
            s = rem
            while s:
                if s <= ceiling:
                    spread = s * layers
                    nxt = owed & ~spread | owed >> n & spread
                    left = nxt & full
                    # any vertex still owed colours needs a later type of
                    # value >= 2**v, and later types are capped by s
                    if not left or 1 << left.bit_length() - 1 <= s:
                        # lex-leader cut: no orbit maximum lies below a
                        # prefix that some generator maps to a larger one
                        p = cls + (s,)
                        lifted = []
                        for (mask, shift), img in zip(gens, images):
                            d = (s >> shift ^ s) & mask
                            t = s ^ d ^ d << shift
                            # g fixes cls, and s <= cls[-1]: g lifts p iff t > s
                            if img is cls:
                                if t > s:
                                    break
                                lifted.append(p if t == s else cls + (t,))
                                continue
                            b = tuple(sorted(img + (t,), reverse=True))
                            if b > p:
                                break
                            lifted.append(b)
                        else:
                            yield from grow(
                                ci, done, p, nxt, add(family, s), gens, lifted,
                                bound if bound is not None and s == bound[pos] else None,
                            )
                            if self.truncated:
                                return
                s = (s - 1) & rem

        gens = _generators(part_sizes)
        yield from grow(0, (), start, (1 << quotas[0] * n) - 1, ColourableSets.EMPTY,
                        gens, [start] * len(gens), None)


# ``reference_table_search`` and its helpers: the exact-table path as it stood
# before the greedy pass, kept verbatim under reference names
_reference_sets_without = cache(subsets_without)


def _reference_paint(lists: list[tuple[int, ...]], chosen: list[int]) -> Colouring:
    """Each vertex takes its least colour in its part's cover; parts hold
    consecutive vertices, so their lists concatenate in vertex order."""
    picks = (m & cover for masks, cover in zip(lists, chosen) for m in masks)
    return Colouring(tuple((pick & -pick).bit_length() - 1 for pick in picks))


def _reference_disjoint(without: tuple[int, ...], colours: int) -> int:
    """The family of colour sets that miss every colour in ``colours``."""
    out = -1
    while colours:
        low = colours & -colours
        out &= without[low.bit_length() - 1]
        colours ^= low
    return out


def _reference_table_covers(masks: tuple[int, ...], u: int) -> tuple[int, list[int]]:
    """The covering family of ``masks``, as a 2**u-bit table, and its minimal
    members (none one colour smaller) in ``_minimal_covers``' order."""
    without = _reference_sets_without(u)
    family = (1 << (1 << u)) - 1
    for m in set(masks):
        family &= ~_reference_disjoint(without, m)
    above = 0
    for c in range(u):
        above |= (family & without[c]) << (1 << c)
    bits, minimal = bin(family & ~above)[:1:-1], []
    i = bits.find("1")
    while i >= 0:
        minimal.append(i)
        i = bits.find("1", i + 1)
    return family, sorted(minimal, key=int.bit_count)


def reference_table_search(graph: MultipartiteGraph, assignment: ListAssignment) -> Colouring | None:
    """The exact tables: no backtracking, since a part's cover is kept only
    when the rest of its free colours lie in ``ok`` of the parts after it."""
    u = assignment.universe_size
    without = _reference_sets_without(u)
    lists = [assignment.masks[part.start:part.stop] for part in graph.parts]
    tables = {masks: _reference_table_covers(masks, u) for masks in set(lists)}
    # the last part's ok is its covering family: the sets holding one of its covers
    ok = [0] * (len(lists) - 1) + [tables[lists[-1]][0], (1 << (1 << u)) - 1]
    for i in reversed(range(len(lists) - 1)):
        later = ok[i + 1]
        for x in tables[lists[i]][1]:
            ok[i] |= (later & _reference_disjoint(without, x)) << x
    free = (1 << u) - 1
    if not ok[0] >> free & 1:
        return None
    chosen = []
    for masks, later in zip(lists, ok[1:]):
        for x in tables[masks][1]:
            if not x & ~free and later >> (free & ~x) & 1:
                break
        chosen.append(x)
        free &= ~x
    return _reference_paint(lists, chosen)
