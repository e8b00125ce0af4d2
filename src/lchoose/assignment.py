"""List assignments over a finite colour universe.

Lists are bitmasks over colours ``0..universe_size-1``.  Up to renaming, a
colour is described by its *type*: the set of vertices whose lists contain
it.  An assignment that meets every quota exactly is a multiset of types per
quota class, which is the representation the orbit enumerator walks.  Each
class of quota k then holds at most ``n*k`` colours, so the walk is finite,
and since shrinking lists can only destroy colourings, exact assignments
suffice to decide choosability.

Symmetries quotiented out by ``canonical_key`` and the enumerator:
  * renaming colours within a quota class,
  * swapping whole classes of equal quota,
  * permuting vertices within a part and swapping equal-size parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

from .budget import Budget
from .graphs import ColourableSets, MultipartiteGraph
from .lam import Lambda

# explicit-group canonicalisation is meant for desk-scale instances
_GROUP_LIMIT = 2_000_000


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex colour lists as bitmasks over a shared universe.

    Every list is nonempty and every universe colour appears in some list.
    """

    universe_size: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError("universe must contain at least one colour")
        masks = tuple(self.masks)
        if not masks:
            raise ValueError("assignment needs at least one vertex")
        full = (1 << self.universe_size) - 1
        seen = 0
        for v, m in enumerate(masks):
            if m == 0:
                raise ValueError(f"empty list at vertex {v}")
            if m & ~full:
                raise ValueError(f"list at vertex {v} uses colours outside the universe")
            seen |= m
        if seen != full:
            raise ValueError("every universe colour must appear in some list")
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_lists(cls, universe_size: int, lists) -> "ListAssignment":
        masks = []
        for lst in lists:
            m = 0
            for c in lst:
                m |= 1 << int(c)
            masks.append(m)
        return cls(universe_size, tuple(masks))

    @property
    def n(self) -> int:
        return len(self.masks)

    def colours(self, v: int) -> tuple[int, ...]:
        return tuple(c for c in range(self.universe_size) if self.masks[v] >> c & 1)

    def lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.colours(v) for v in range(self.n))


@dataclass(frozen=True)
class ColourPartition:
    """Assignment of every universe colour to one quota class (0-based)."""

    lam: Lambda
    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        cls = tuple(int(c) for c in self.class_of)
        q = self.lam.size
        if any(c < 0 or c >= q for c in cls):
            raise ValueError("class index out of range")
        object.__setattr__(self, "class_of", cls)

    @property
    def universe_size(self) -> int:
        return len(self.class_of)

    def class_mask(self, i: int) -> int:
        m = 0
        for c, ci in enumerate(self.class_of):
            if ci == i:
                m |= 1 << c
        return m

    def class_masks(self) -> tuple[int, ...]:
        out = [0] * self.lam.size
        for c, ci in enumerate(self.class_of):
            out[ci] |= 1 << c
        return tuple(out)


def quota_counts(assignment: ListAssignment, partition: ColourPartition) -> list[list[int]]:
    """Matrix ``counts[v][i] = |L(v) & class_i|``."""
    if partition.universe_size != assignment.universe_size:
        raise ValueError("partition universe does not match the assignment")
    cms = partition.class_masks()
    return [[ (assignment.masks[v] & cm).bit_count() for cm in cms ]
            for v in range(assignment.n)]


def is_lambda_assignment(assignment: ListAssignment, lam: Lambda) -> ColourPartition | None:
    """Search for a partition of the universe witnessing the quotas.

    A witness gives every vertex at least ``lam.parts[i]`` colours of class i
    in its list, for every i.  Returns the first witness found by a
    deterministic backtracking search over colours (colours touching the most
    vertices first), or None when no witness exists.
    """
    q = lam.size
    ks = lam.parts
    total = lam.total
    n = assignment.n
    universe = assignment.universe_size
    masks = assignment.masks
    if any(m.bit_count() < total for m in masks):
        return None

    members = [tuple(v for v in range(n) if masks[v] >> c & 1) for c in range(universe)]
    order = sorted(range(universe), key=lambda c: (-len(members[c]), c))
    counts = [[0] * q for _ in range(n)]
    free = [masks[v].bit_count() for v in range(n)]
    class_used = [0] * q
    assign = [-1] * universe

    def feasible(vs: tuple[int, ...]) -> bool:
        # every touched vertex must still be able to fill its open quotas
        for v in vs:
            row = counts[v]
            need = 0
            for i in range(q):
                d = ks[i] - row[i]
                if d > 0:
                    need += d
            if need > free[v]:
                return False
        return True

    def rec(pos: int) -> bool:
        if pos == universe:
            return True
        c = order[pos]
        vs = members[c]
        tried_empty: set[int] = set()
        for i in range(q):
            if class_used[i] == 0:
                # classes of equal quota are interchangeable while empty
                if ks[i] in tried_empty:
                    continue
                tried_empty.add(ks[i])
            assign[c] = i
            class_used[i] += 1
            for v in vs:
                counts[v][i] += 1
                free[v] -= 1
            if feasible(vs) and rec(pos + 1):
                return True
            class_used[i] -= 1
            for v in vs:
                counts[v][i] -= 1
                free[v] += 1
            assign[c] = -1
        return False

    if not rec(0):
        return None
    return ColourPartition(lam, tuple(assign))


def trim_to_exact(
    assignment: ListAssignment, lam: Lambda, partition: ColourPartition
) -> tuple[ListAssignment, ColourPartition]:
    """Shrink every list to exactly its quota in each class.

    Keeps the ``k_i`` smallest colours of each intersection, drops colours
    that then appear in no list, and renumbers the survivors in order.
    Returns the trimmed assignment together with the renumbered partition.
    Raises ValueError when the partition does not witness the quotas.
    """
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


def _check_group(part_sizes: tuple[int, ...]) -> None:
    order = math.prod(math.factorial(s) for s in part_sizes) * math.prod(
        math.factorial(part_sizes.count(s)) for s in set(part_sizes)
    )
    if order > _GROUP_LIMIT:
        raise ValueError(f"symmetry group too large ({order}) for explicit canonical forms")


@lru_cache(maxsize=None)
def vertex_group(part_sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations preserving the part structure.

    Vertices may be permuted within a part and whole parts of equal size may
    swap.  Enumerated explicitly, so guarded against huge groups.
    """
    _check_group(part_sizes)
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


Blocks = tuple  # tuple[(quota, tuple[type mask, ...]), ...]


def _canonical_blocks(part_sizes: tuple[int, ...], blocks: Blocks) -> Blocks:
    bits_of: dict[int, tuple[int, ...]] = {}
    for _, ms in blocks:
        for m in ms:
            if m not in bits_of:
                out = []
                mm = m
                while mm:
                    low = mm & -mm
                    out.append(low.bit_length() - 1)
                    mm ^= low
                bits_of[m] = tuple(out)
    best = None
    for perm in vertex_group(part_sizes):
        enc = tuple(
            sorted(
                (
                    (k, tuple(sorted((sum(1 << perm[b] for b in bits_of[m]) for m in ms), reverse=True)))
                    for k, ms in blocks
                ),
                reverse=True,
            )
        )
        if best is None or enc > best:
            best = enc
    return best


def _blocks_of(assignment: ListAssignment, lam: Lambda, partition: ColourPartition) -> Blocks:
    type_masks = [0] * assignment.universe_size
    for v, m in enumerate(assignment.masks):
        bit = 1 << v
        mm = m
        while mm:
            low = mm & -mm
            type_masks[low.bit_length() - 1] |= bit
            mm ^= low
    per_class: list[list[int]] = [[] for _ in range(lam.size)]
    for c, ci in enumerate(partition.class_of):
        per_class[ci].append(type_masks[c])
    blocks = tuple(
        (lam.parts[i], tuple(sorted(per_class[i], reverse=True))) for i in range(lam.size)
    )
    return tuple(sorted(blocks, reverse=True))


def canonical_key(
    assignment: ListAssignment,
    graph: MultipartiteGraph,
    lam: Lambda,
    partition: ColourPartition,
) -> bytes:
    """Orbit invariant of an exact assignment under all symmetries.

    Two exact assignments get equal keys iff one maps to the other by some
    combination of colour renaming within classes, swaps of equal-quota
    classes, vertex permutations within parts and swaps of equal-size parts.
    Requires the assignment to be exact for (lam, partition).
    """
    if assignment.n != graph.n:
        raise ValueError("assignment and graph disagree on the vertex count")
    counts = quota_counts(assignment, partition)
    for v in range(assignment.n):
        for i, k in enumerate(lam.parts):
            if counts[v][i] != k:
                raise ValueError(
                    f"assignment is not exact for the partition (vertex {v}, class {i})"
                )
    blocks = _blocks_of(assignment, lam, partition)
    canon = _canonical_blocks(graph.part_sizes, blocks)
    return repr(canon).encode("ascii")


class AssignmentEnumerator:
    """Depth-first stream of exact assignments, one per symmetry orbit.

    Colours are placed one at a time as types (vertex bitmasks), class by
    class with quotas descending.  Within a class the type sequence is
    non-increasing, and a class of the same quota as its predecessor must not
    exceed the predecessor's encoding, so every orbit is generated at least
    once in its maximal encoding.  A finished assignment is yielded only when
    its encoding *is* the orbit maximum, hence exactly once per orbit.

    With ``prune_colourable`` set, subtrees whose partial lists already admit
    a proper colouring are skipped: completions only add colours, so
    everything below stays colourable.  Leaves that are themselves colourable
    are suppressed too, which turns the stream into the stream of
    counterexample orbits.  A non-colourable assignment keeps every prefix
    non-colourable, so no counterexample orbit is ever lost to this pruning.
    Each test reads one bit of a ``ColourableSets`` family; the walk keeps a
    stack of them, one update per placed colour, so no solver runs.

    ``truncated`` reports whether the budget cut the walk short;
    ``orbits_seen`` counts the canonical leaves reached.  Shapes whose vertex
    group is too large for the leaf canonical forms raise ValueError at once.
    """

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
        self._quotas = tuple(sorted(lam.parts, reverse=True))
        self._gen = self._walk()

    def __iter__(self) -> Iterator[tuple[ListAssignment, ColourPartition]]:
        return self._gen

    def _build(self, masks: list[int], done: list[tuple[int, ...]]):
        total_colours = sum(len(enc) for enc in done)
        la = ListAssignment(total_colours, tuple(masks))
        q = len(self._quotas)
        class_of = []
        for ci, enc in enumerate(done):
            class_of.extend([q - 1 - ci] * len(enc))
        return la, ColourPartition(self.lam, tuple(class_of))

    def _walk(self):
        G = self.graph
        n = G.n
        full = (1 << n) - 1
        q = len(self._quotas)
        quotas = self._quotas
        part_sizes = G.part_sizes
        masks = [0] * n
        types: list[int] = []
        done: list[tuple[int, ...]] = []
        # families[-1]: the sets the placed colours can colour (EMPTY unpruned)
        add = ColourableSets(G).add if self.prune else lambda family, s: family
        families = [ColourableSets.EMPTY]

        def leaf():
            blocks = tuple((quotas[i], done[i]) for i in range(q))
            if _canonical_blocks(part_sizes, blocks) != blocks:
                return
            self.orbits_seen += 1
            if families[-1] >> full & 1:
                return
            yield self._build(masks, done)

        def grow(ci, start, rem, rem_mask, cap, bound, pos, tight):
            if self.truncated:
                return
            if not self.budget.tick():
                self.truncated = True
                return
            if rem_mask == 0:
                done.append(tuple(types[start:]))
                if ci + 1 == q:
                    yield from leaf()
                else:
                    yield from begin_class(ci + 1)
                done.pop()
                return
            # colourability is monotone in the lists: a colourable partial
            # can never complete to a counterexample
            if families[-1] >> full & 1:
                return
            if tight and pos >= len(bound):
                return  # equal prefix already used the whole bound
            ceiling = min(cap, bound[pos]) if tight else cap
            s = rem_mask
            while s:
                if s <= ceiling:
                    bit = 1 << len(types)
                    new_mask = rem_mask
                    t = s
                    while t:
                        low = t & -t
                        v = low.bit_length() - 1
                        rem[v] -= 1
                        if rem[v] == 0:
                            new_mask ^= low
                        masks[v] |= bit
                        t ^= low
                    # any vertex still owed colours needs a later type of
                    # value >= 2**v, and later types are capped by s
                    ok = True
                    if new_mask:
                        ok = (1 << (new_mask.bit_length() - 1)) <= s
                    if ok:
                        types.append(s)
                        families.append(add(families[-1], s))
                        yield from grow(
                            ci, start, rem, new_mask, s, bound, pos + 1,
                            tight and s == bound[pos],
                        )
                        families.pop()
                        types.pop()
                    t = s
                    while t:
                        low = t & -t
                        v = low.bit_length() - 1
                        rem[v] += 1
                        masks[v] &= ~bit
                        t ^= low
                    if self.truncated:
                        return
                s = (s - 1) & rem_mask

        def begin_class(ci):
            k = quotas[ci]
            bound = done[ci - 1] if ci and quotas[ci - 1] == k else None
            rem = [k] * n
            yield from grow(ci, len(types), rem, full, full, bound, 0, bound is not None)

        yield from begin_class(0)


def enumerate_lambda_assignments(
    graph: MultipartiteGraph, lam: Lambda, budget: Budget | None = None
) -> AssignmentEnumerator:
    """Orbit stream of exact assignments of ``graph`` for ``lam``.

    Iterate the returned enumerator for ``(assignment, partition)`` pairs;
    check its ``truncated`` flag afterwards to distinguish a proved-complete
    walk from one cut off by the budget.
    """
    return AssignmentEnumerator(graph, lam, budget)


def assignment_to_dict(
    assignment: ListAssignment,
    partition: ColourPartition | None = None,
    lam: Lambda | None = None,
) -> dict:
    """Interchange form: universe size, sorted lists, optional partition/quotas."""
    if lam is None and partition is not None:
        lam = partition.lam
    return {
        "universe": assignment.universe_size,
        "lists": [list(assignment.colours(v)) for v in range(assignment.n)],
        "partition": list(partition.class_of) if partition is not None else None,
        "lambda": list(lam.parts) if lam is not None else None,
    }


def assignment_from_dict(data: dict) -> tuple[ListAssignment, ColourPartition | None, Lambda | None]:
    """Inverse of assignment_to_dict; raises ValueError on schema violations."""
    if not isinstance(data, dict):
        raise ValueError("assignment document must be a JSON object")
    for key in ("universe", "lists"):
        if key not in data:
            raise ValueError(f"assignment document lacks {key!r}")
    universe = data["universe"]
    lists = data["lists"]
    if not isinstance(universe, int) or not isinstance(lists, list):
        raise ValueError("assignment document has wrong field types")
    for lst in lists:
        if not isinstance(lst, list) or not all(isinstance(c, int) for c in lst):
            raise ValueError("lists must be arrays of integers")
    assignment = ListAssignment.from_lists(universe, lists)
    lam = None
    if data.get("lambda") is not None:
        lam_field = data["lambda"]
        if not isinstance(lam_field, list):
            raise ValueError("lambda must be an array of integers")
        lam = Lambda(tuple(lam_field))
    partition = None
    if data.get("partition") is not None:
        part_field = data["partition"]
        if not isinstance(part_field, list) or len(part_field) != universe:
            raise ValueError("partition must list one class per universe colour")
        if lam is None:
            raise ValueError("partition requires the lambda field")
        partition = ColourPartition(lam, tuple(part_field))
    return assignment, partition, lam
