"""Independent brute-force oracles the real implementations are tested
against.  Everything here favours obviousness over speed and is only run on
tiny instances."""

from __future__ import annotations

import random
from itertools import product

from lchoose.assignment import ColourPartition, ListAssignment, canonical_key
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda


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
