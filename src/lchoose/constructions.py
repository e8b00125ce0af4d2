"""Hand-built instances: the tight upper-bound gadget and two families of
non-colourable assignments on the small exception graphs.

The gadget realises, for quotas with a singletons, b twos and c larger odd
entries, a non-choosable complete multipartite graph on 2k+3a+3 vertices
over a universe of 2k-a colours.  Its structure is rigid enough that
``verify_gadget`` can re-derive every claimed property from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .assignment import (
    ColourPartition,
    ListAssignment,
    canonical_key,
    is_lambda_assignment,
)
from .budget import Budget
from .graphs import MultipartiteGraph
from .lam import Lambda


class StructureError(ValueError):
    """A constructed instance violates one of its defining invariants."""


# Seven menu rows for the size-5 parts (rows 0..4) and the size-2 parts
# (rows 5, 6).  Offsets are into a block of 6 shared colours per odd quota
# entry (triples) and 4 per quota-2 entry (pairs); every colour of a block
# appears in 5 of the 7 rows for triples and in 3 plus 2 = a mixed pattern
# for pairs, arranged so no system of distinct block choices covers a part.
_TRIPLE_PATTERNS = (
    (0, 2, 4),
    (0, 2, 5),
    (0, 1, 3),
    (1, 2, 3),
    (1, 4, 5),
    (0, 1, 2),
    (3, 4, 5),
)
_PAIR_PATTERNS = (
    (1, 2),
    (1, 3),
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 1),
    (2, 3),
)


@dataclass(frozen=True)
class GadgetInstance:
    ones: int
    twos: int
    threes: int
    graph: MultipartiteGraph
    lam: Lambda
    assignment: ListAssignment
    partition: ColourPartition
    singleton_colours: tuple[int, ...]
    pair_blocks: tuple[tuple[int, ...], ...]
    triple_blocks: tuple[tuple[int, ...], ...]


def build_gadget(ones: int, twos: int, threes: int, allow_zero_ones: bool = False) -> GadgetInstance:
    """Instance for quotas ``{1 x ones, 2 x twos, 3 x threes}``.

    Requires threes >= 1.  The construction also needs at least one
    singleton quota; pass allow_zero_ones to build the degenerate shape
    anyway (it is not certified non-colourable).
    """
    if threes < 1:
        raise ValueError("need at least one quota-3 class")
    if ones < 1 and not allow_zero_ones:
        raise ValueError("need at least one quota-1 class")
    if ones < 0 or twos < 0:
        raise ValueError("negative multiplicities")
    lam = Lambda((1,) * ones + (2,) * twos + (3,) * threes)
    k = lam.total
    a = ones

    sizes = (5,) * (a + 1) + (2,) * (k - a - 1)
    graph = MultipartiteGraph(sizes)

    # universe layout: singleton colours first, then 4 per quota-2 class,
    # then 6 per larger class
    singles = tuple(range(a))
    pos = a
    pairs = []
    for _ in range(twos):
        pairs.append(tuple(range(pos, pos + 4)))
        pos += 4
    triples = []
    for _ in range(threes):
        triples.append(tuple(range(pos, pos + 6)))
        pos += 6
    universe = pos
    if universe != 2 * k - a:
        raise StructureError("universe size drifted from 2k-a")

    def row_mask(row: int) -> int:
        m = 0
        for c in singles:
            m |= 1 << c
        for block in pairs:
            for off in _PAIR_PATTERNS[row]:
                m |= 1 << block[off]
        for block in triples:
            for off in _TRIPLE_PATTERNS[row]:
                m |= 1 << block[off]
        return m

    masks = []
    for pi, size in enumerate(sizes):
        if size == 5:
            for j in range(5):
                masks.append(row_mask(j))
        else:
            masks.append(row_mask(5))
            masks.append(row_mask(6))
    assignment = ListAssignment(universe, tuple(masks))

    class_of = [0] * universe
    for c in singles:
        class_of[c] = singles.index(c)
    for i, block in enumerate(pairs):
        for c in block:
            class_of[c] = a + i
    for i, block in enumerate(triples):
        for c in block:
            class_of[c] = a + twos + i
    partition = ColourPartition(lam, tuple(class_of))

    return GadgetInstance(
        ones, twos, threes, graph, lam, assignment, partition,
        singles, tuple(pairs), tuple(triples),
    )


def verify_gadget(inst: GadgetInstance) -> dict:
    """Re-derive every defining property of a gadget instance.

    Raises StructureError naming the first violated invariant; on success
    returns a report of the checked facts, including the non-colourability
    certificate (checked by exhaustive colouring search).
    """
    from .solver import find_colouring

    lam = inst.lam
    k = lam.total
    a = lam.m_one

    if inst.graph.n != 2 * k + 3 * a + 3:
        raise StructureError("vertex count is not 2k+3a+3")
    hist = inst.graph.size_histogram()
    if hist.get(5, 0) != a + 1 or hist.get(2, 0) != k - a - 1 or len(hist) > 2:
        raise StructureError("part sizes are not 5 x (a+1) together with 2 x (k-a-1)")
    if inst.assignment.universe_size != 2 * k - a:
        raise StructureError("universe size is not 2k-a")
    for v in range(inst.graph.n):
        if inst.assignment.masks[v].bit_count() != k:
            raise StructureError(f"list at vertex {v} does not have k colours")

    cms = inst.partition.class_masks()
    for i, quota in enumerate(lam.parts):
        block = cms[i].bit_count()
        want = {1: 1, 2: 4}.get(quota, 6)
        if block != want:
            raise StructureError(f"class {i} has {block} colours, expected {want}")
        for v in range(inst.graph.n):
            got = (inst.assignment.masks[v] & cms[i]).bit_count()
            if got != quota:
                raise StructureError(
                    f"vertex {v} holds {got} colours of class {i}, quota is {quota}"
                )

    witness = is_lambda_assignment(inst.assignment, lam)
    if witness is None:
        raise StructureError("assignment admits no quota partition at all")

    colouring = find_colouring(inst.graph, inst.assignment)
    if inst.ones >= 1:
        if colouring is not None:
            raise StructureError("assignment is properly colourable")
    return {
        "vertices": inst.graph.n,
        "universe": inst.assignment.universe_size,
        "list_size": k,
        "quota_exact": True,
        "colourable": colouring is not None,
    }


def exception_graphs(k: int) -> tuple[MultipartiteGraph, MultipartiteGraph]:
    """The two minimal vertex-count shapes for the all-twos quota at total k.

    For even k >= 2 these are K(4,2,...,2) on 2k+2 vertices and
    K(3,...,3,1,...,1) with k/2+1 threes and k/2-1 ones.
    """
    if k < 2 or k % 2:
        raise ValueError("total quota must be even and at least 2")
    half = k // 2
    g1 = MultipartiteGraph((4,) + (2,) * (k - 1))
    g2 = MultipartiteGraph((3,) * (half + 1) + (1,) * (half - 1))
    return g1, g2


def build_bad_k42(k: int, sizes: tuple[int, int, int]) -> tuple[MultipartiteGraph, ListAssignment]:
    """Non-colourable assignment on K(4,2,...,2) with list size k.

    ``sizes = (s1, s3, sb)``: the four lists of the size-4 part are built
    from blocks A1..A4 of sizes s1,s1,s3,s3 and B1,B2 of size sb, combined
    as A1 A3 B1 / A1 A4 B2 / A2 A4 B1 / A2 A3 B2, so any two vertices of the
    part share exactly one block.  Every size-2 part gets the pair
    (all of A, all of B).  Needs 2*s1 + 2*s3 = k = 2*sb with s1, s3 >= 0;
    one of s1, s3 may vanish (at k=2 it must).
    """
    s1, s3, sb = sizes
    if s1 < 0 or s3 < 0 or sb < 1:
        raise ValueError("block sizes out of range")
    if 2 * s1 + 2 * s3 != k or 2 * sb != k:
        raise ValueError("block sizes do not tile lists of size k")
    graph = MultipartiteGraph((4,) + (2,) * (k - 1))

    blocks = []
    pos = 0
    for width in (s1, s1, s3, s3, sb, sb):
        m = 0
        for c in range(pos, pos + width):
            m |= 1 << c
        blocks.append(m)
        pos += width
    a1, a2, a3, a4, b1, b2 = blocks
    a_all = a1 | a2 | a3 | a4
    b_all = b1 | b2

    masks = [a1 | a3 | b1, a1 | a4 | b2, a2 | a4 | b1, a2 | a3 | b2]
    for _ in range(k - 1):
        masks.append(a_all)
        masks.append(b_all)
    return graph, ListAssignment(pos, tuple(masks))


@dataclass(frozen=True)
class ThreesBadCandidate:
    """Assignment shape on K(3,..,3,1,..,1) driven by per-colour miss vectors.

    The universe has 3k/2 colours.  Each size-3 part sees every colour in
    exactly two of its three lists; ``miss[p][c]`` names the local vertex
    (0..2) whose list omits colour c, and each local vertex is missed by
    exactly k/2 colours, so all lists have size k.  Singleton parts carry
    arbitrary k-subsets.  Any proper colouring needs 3k/2+1 distinct
    colours (2 per triple part plus the singletons), one more than the
    universe holds, so every candidate is non-colourable by counting.
    """

    k: int
    miss: tuple[tuple[int, ...], ...]
    singleton_lists: tuple[int, ...]

    def __post_init__(self) -> None:
        k = self.k
        if k < 2 or k % 2:
            raise ValueError("total quota must be even and at least 2")
        half = k // 2
        u = 3 * half
        if len(self.miss) != half + 1:
            raise ValueError("need one miss vector per size-3 part")
        for row in self.miss:
            if len(row) != u or any(x not in (0, 1, 2) for x in row):
                raise ValueError("miss vector must pick a local vertex per colour")
            tallies = [0, 0, 0]
            for x in row:
                tallies[x] += 1
            if tallies != [half, half, half]:
                raise ValueError("each local vertex must be missed by exactly k/2 colours")
        if len(self.singleton_lists) != half - 1:
            raise ValueError("need one list per singleton part")
        full = (1 << u) - 1
        for m in self.singleton_lists:
            if m & ~full or m.bit_count() != k:
                raise ValueError("singleton lists must be k-subsets of the universe")

    @property
    def graph(self) -> MultipartiteGraph:
        half = self.k // 2
        return MultipartiteGraph((3,) * (half + 1) + (1,) * (half - 1))

    @property
    def assignment(self) -> ListAssignment:
        half = self.k // 2
        u = 3 * half
        full = (1 << u) - 1
        masks = []
        for row in self.miss:
            local = [full, full, full]
            for c, missed in enumerate(row):
                local[missed] &= ~(1 << c)
            masks.extend(local)
        masks.extend(self.singleton_lists)
        return ListAssignment(u, tuple(masks))


def _balanced_vectors(u: int, half: int):
    """All vectors in {0,1,2}^u with each value occurring ``half`` times."""

    def rec(prefix: list[int], left: list[int]):
        if len(prefix) == u:
            yield tuple(prefix)
            return
        for x in (0, 1, 2):
            if left[x]:
                left[x] -= 1
                prefix.append(x)
                yield from rec(prefix, left)
                prefix.pop()
                left[x] += 1

    yield from rec([], [half, half, half])


class ThreesFamilyEnumerator:
    """Budgeted walk over the miss-vector family, one candidate per orbit.

    The first part's miss vector is pinned to the sorted base vector, which
    is legitimate because renaming colours can always sort it; remaining
    symmetry is quotiented by canonical keys.  Singleton lists are fixed to
    the full-universe k-subset family's first element pattern (lowest k
    colours) to keep the family finite at small k; the counting argument
    above is indifferent to the singleton lists.
    """

    def __init__(self, k: int, budget: Budget | None = None):
        if k < 2 or k % 2:
            raise ValueError("total quota must be even and at least 2")
        self.k = k
        self.budget = budget if budget is not None else Budget()
        self.truncated = False

    def __iter__(self):
        from itertools import product as iproduct

        k = self.k
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
        for rows in iproduct(vecs, repeat=half):
            if not self.budget.tick():
                self.truncated = True
                return
            # unpinned triple parts may swap freely, so their row multiset
            # is a cheap first quotient before the full canonical key
            rkey = tuple(sorted(rows))
            if rkey in seen_rows:
                continue
            seen_rows.add(rkey)
            cand = ThreesBadCandidate(k, (base,) + tuple(rows), singles)
            key = canonical_key(cand.assignment, graph, lam, partition)
            if key in seen:
                continue
            seen.add(key)
            yield cand


def random_threes_candidate(k: int, rng) -> ThreesBadCandidate:
    """Seedable sample from the miss-vector family (see ThreesBadCandidate).

    Miss vectors are uniform balanced vectors; each singleton part gets a
    uniform k-subset of the universe.  ``rng`` is a random.Random.
    """
    if k < 2 or k % 2:
        raise ValueError("total quota must be even and at least 2")
    half = k // 2
    u = 3 * half
    rows = []
    for _ in range(half + 1):
        row = [0, 1, 2] * half
        rng.shuffle(row)
        rows.append(tuple(row))
    singles = []
    for _ in range(half - 1):
        chosen = rng.sample(range(u), k)
        m = 0
        for c in chosen:
            m |= 1 << c
        singles.append(m)
    return ThreesBadCandidate(k, tuple(rows), tuple(singles))


def _recognize_k42(graph: MultipartiteGraph, assignment: ListAssignment, k: int) -> bool:
    """Does the assignment match the four-blocks shape of build_bad_k42?

    Accepts exactly the shapes for which the parity argument goes through:
    the B blocks partition B, the A blocks partition A (empty blocks fine),
    every 2-part carries the pair (A, B), and some ordering of the 4-part
    realises the A1 A3 B1 / A1 A4 B2 / A2 A4 B1 / A2 A3 B2 layout.
    """
    if graph.part_sizes != (4,) + (2,) * (k - 1):
        return False
    if any(m.bit_count() != k for m in assignment.masks):
        return False
    pair_masks = assignment.masks[4:]
    pairs = {frozenset((pair_masks[2 * i], pair_masks[2 * i + 1])) for i in range(k - 1)}
    if len(pairs) != 1:
        return False
    two = sorted(next(iter(pairs)))
    if len(two) != 2 or two[0] & two[1]:
        return False
    for a_all, b_all in (tuple(two), tuple(reversed(two))):
        for perm in permutations(range(4)):
            L = [assignment.masks[v] for v in perm]
            a1 = L[0] & L[1] & a_all
            a2 = L[2] & L[3] & a_all
            a3 = L[0] & L[3] & a_all
            a4 = L[1] & L[2] & a_all
            b1 = L[0] & L[2] & b_all
            b2 = L[1] & L[3] & b_all
            if (a1 | a2 | a3 | a4) != a_all or (b1 | b2) != b_all:
                continue
            asum = a1.bit_count() + a2.bit_count() + a3.bit_count() + a4.bit_count()
            if asum != a_all.bit_count():
                continue
            if b1.bit_count() + b2.bit_count() != b_all.bit_count():
                continue
            want = [a1 | a3 | b1, a1 | a4 | b2, a2 | a4 | b1, a2 | a3 | b2]
            if L == want:
                return True
    return False


def _recognize_threes(graph: MultipartiteGraph, assignment: ListAssignment, k: int) -> bool:
    """Every triple part sees every colour in exactly two lists, balanced."""
    half = k // 2
    if graph.part_sizes != (3,) * (half + 1) + (1,) * (half - 1):
        return False
    u = assignment.universe_size
    if u != 3 * half:
        return False
    if any(m.bit_count() != k for m in assignment.masks):
        return False
    for p in range(half + 1):
        trio = assignment.masks[3 * p : 3 * p + 3]
        for c in range(u):
            hits = sum(m >> c & 1 for m in trio)
            if hits != 2:
                return False
    return True


def parity_obstruction_check(
    graph: MultipartiteGraph,
    assignment: ListAssignment,
    lam: Lambda,
    force_search: bool = False,
) -> bool:
    """True when no partition of the universe witnesses the quotas.

    For the two structural families above this is settled by counting
    whenever ``lam`` has an odd entry.  All lists have size exactly
    ``lam.total``, so a witness partition would meet every list in exactly
    its quota per class.  On the four-blocks shape, subtracting the four
    big-part equations in pairs forces each class to split the B side
    evenly, so every quota is even.  On the miss-vector shape, summing a
    triple part's three equations counts each class twice (every colour sits
    in exactly two of the three lists), so three times any quota is even.
    An odd entry therefore rules out a witness outright.  Everything else,
    or any call with force_search, goes through the backtracking search.
    """
    k = lam.total
    if not force_search and lam.m_odd > 0:
        if _recognize_k42(graph, assignment, k) or _recognize_threes(graph, assignment, k):
            return True
    return is_lambda_assignment(assignment, lam) is None
