"""Hand-built instances: the tight upper-bound gadget and two families of
non-colourable assignments on the small exception graphs.

The gadget realises, for quotas with a singletons, b twos and c quota-3
entries, a non-choosable complete multipartite graph on 2k+3a+3 vertices
over a universe of 2k-a colours.  Its structure is rigid enough that
``verify_gadget`` can re-derive every claimed property from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .assignment import (
    ColourPartition,
    ListAssignment,
    _check_group,
    canonical_key,
    is_lambda_assignment,
)
from .budget import Budget
from .graphs import MultipartiteGraph
from .lam import Lambda


class StructureError(ValueError):
    """A constructed instance violates one of its defining invariants."""


# Seven menu rows for the size-5 parts (rows 0..4) and the size-2 parts
# (rows 5, 6).  Offsets are into a block of 6 shared colours per quota-3
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
# per quota: the width of its class's colour block and each menu row's offsets
# inside it; a singleton class's one colour lies in every list
_BLOCKS = {1: (1, ((0,),) * 7), 2: (4, _PAIR_PATTERNS), 3: (6, _TRIPLE_PATTERNS)}


@dataclass(frozen=True)
class GadgetInstance:
    graph: MultipartiteGraph
    lam: Lambda
    assignment: ListAssignment
    partition: ColourPartition


def build_gadget(ones: int, twos: int, threes: int, allow_zero_ones: bool = False) -> GadgetInstance:
    """Instance for quotas ``{1 x ones, 2 x twos, 3 x threes}``.

    Requires threes >= 1.  The construction also needs at least one
    singleton quota; pass allow_zero_ones to build the degenerate shape
    anyway (it is not certified non-colourable).  Each class owns one block
    of colours, in ``lam.parts`` order, and a menu row's list is its
    offsets inside every block.  With k = ``lam.total``, the ones+1 size-5
    parts take rows 0..4 and the k-ones-1 size-2 parts rows 5 and 6.
    """
    if threes < 1:
        raise ValueError("need at least one quota-3 class")
    if ones < 1 and not allow_zero_ones:
        raise ValueError("need at least one quota-1 class")
    if ones < 0 or twos < 0:
        raise ValueError("negative multiplicities")
    lam = Lambda((1,) * ones + (2,) * twos + (3,) * threes)
    pair_parts = lam.total - ones - 1
    class_of, rows = [], [0] * 7
    for i, quota in enumerate(lam.parts):
        width, patterns = _BLOCKS[quota]
        for r, offsets in enumerate(patterns):  # the block opens at colour len(class_of)
            rows[r] |= sum(1 << len(class_of) + off for off in offsets)
        class_of += [i] * width
    return GadgetInstance(
        MultipartiteGraph((5,) * (ones + 1) + (2,) * pair_parts),
        lam,
        ListAssignment(len(class_of), tuple(rows[:5] * (ones + 1) + rows[5:] * pair_parts)),
        ColourPartition(lam, class_of),
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
    if a >= 1 and colouring is not None:
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
    K(3,...,3,1,...,1) with k/2+1 threes and k/2-1 ones.  This is the one
    home of both shapes and of the even-total rule: the builders and
    enumerators below, and ``bundles.k42_block_sizes``, refuse any other
    total through it.
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
    if len(sizes) != 3:
        raise ValueError(f"k42 sizes must hold 3 block sizes (s1, s3, sb), got {list(sizes)}")
    s1, s3, sb = sizes
    if s1 < 0 or s3 < 0 or sb < 1:
        raise ValueError("block sizes out of range")
    if 2 * s1 + 2 * s3 != k or 2 * sb != k:
        raise ValueError("block sizes do not tile lists of size k")
    graph = exception_graphs(k)[0]

    blocks, pos = [], 0
    for width in (s1, s1, s3, s3, sb, sb):
        blocks.append((1 << width) - 1 << pos)
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
        exception_graphs(k)  # refuses a total that is odd or below 2
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
        return exception_graphs(self.k)[1]

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


def _first_use(row: tuple[int, ...]) -> tuple[int, ...]:
    """``row`` with its symbols renamed in order of first appearance."""
    names: dict[int, int] = {}
    return tuple(names.setdefault(x, len(names)) for x in row)


def _miss_normal_form(rows: tuple[tuple[int, ...], ...], half: int,
                      first_use=_first_use) -> tuple[tuple[int, ...], ...]:
    """A representative of the unpinned miss vectors ``rows`` under cheap symmetries.

    Renames each row's symbols in order of first appearance, sorts the
    colour columns inside each base block (colours ``b*half .. (b+1)*half-1``),
    renames the symbols again and sorts the rows.  Each step is a group
    element of the candidate built from ``rows``: a renaming permutes one
    triple part's vertices; a column sort renames colours inside the blocks,
    on which the pinned base row is constant and of which the singleton lists
    are the union of blocks 0 and 1; a row sort swaps unpinned triple parts.
    Equal normal forms therefore mean one orbit; unequal ones may not.
    ``first_use`` computes the renaming; an enumeration passes its own
    ``functools.cache`` of ``_first_use``, since its rows repeat.
    """
    cols = list(zip(*map(first_use, rows)))
    cols = [c for b in range(0, 3 * half, half) for c in sorted(cols[b:b + half])]
    return tuple(sorted(map(first_use, zip(*cols))))


class ThreesFamilyEnumerator:
    """Budgeted walk over the miss-vector family, one candidate per orbit.

    The first part's miss vector is pinned to the sorted base vector, which
    is legitimate because renaming colours can always sort it; the remaining
    rows run over all balanced vectors.  Each row tuple first goes through
    ``_miss_normal_form``, a few group elements that fix the base row and the
    singleton lists; a tuple whose normal form was seen before lies in the
    orbit of an earlier tuple and is skipped without a canonical key; the
    rows repeat, so each enumeration renames each distinct row once.  The
    others get a full ``canonical_key``, and a candidate is yielded when that
    key is new; all keys are on one shape, so ``assignment`` builds each
    type's lane data once.  The first tuple of every orbit in iteration
    order always reaches its key, so the yielded candidates, their order and
    the budget's state (its node count, and ``exhausted``, which
    ``truncated`` reads) are those of a walk that keys every tuple.
    Singleton lists are fixed to the lowest k colours to keep the family
    finite; the counting argument above is indifferent to them.  Totals
    whose vertex group is too large for canonical keys (k >= 8) raise
    ValueError at once.
    """

    def __init__(self, k: int, budget: Budget | None = None):
        self.graph = exception_graphs(k)[1]
        _check_group(self.graph.part_sizes)
        self.k = k
        self.budget = budget if budget is not None else Budget()

    @property
    def truncated(self) -> bool:
        return self.budget.exhausted

    def __iter__(self):
        k = self.k
        half = k // 2
        u = 3 * half
        base = tuple(sorted([0, 1, 2] * half))
        singleton = (1 << k) - 1
        singles = tuple([singleton] * (half - 1))
        lam = Lambda((k,))
        seen_forms: set[tuple] = set()
        first_use = cache(_first_use)
        seen: set[bytes] = set()
        partition = ColourPartition(lam, (0,) * u)
        vecs = list(_balanced_vectors(u, half))
        for rows in product(vecs, repeat=half):
            if not self.budget.tick():
                return
            form = _miss_normal_form(rows, half, first_use)
            if form in seen_forms:
                continue
            seen_forms.add(form)
            cand = ThreesBadCandidate(k, (base,) + tuple(rows), singles)
            key = canonical_key(cand.assignment, self.graph, lam, partition)
            if key in seen:
                continue
            seen.add(key)
            yield cand


def random_threes_candidate(k: int, rng) -> ThreesBadCandidate:
    """Seedable sample from the miss-vector family (see ThreesBadCandidate).

    Miss vectors are uniform balanced vectors; each singleton part gets a
    uniform k-subset of the universe.  ``rng`` is a random.Random.
    ``ThreesBadCandidate`` refuses a total that is odd or below 2.
    """
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


def _odd_triple(masks: tuple[int, ...], total: int) -> bool:
    """Do three lists of exactly ``total`` colours have an empty symmetric difference?"""
    tight = {m for m in masks if m.bit_count() == total}
    return any(a ^ b in tight for a, b in combinations(tight, 2))


def parity_obstruction_check(
    graph: MultipartiteGraph,
    assignment: ListAssignment,
    lam: Lambda,
    force_search: bool = False,
) -> bool:
    """True when no partition of the universe witnesses the quotas.

    A list of exactly ``lam.total`` colours meets a witness in exactly
    ``k_i`` colours of class i.  When three such lists have an empty
    symmetric difference, every colour lies in none or two of them, so each
    class meets the three an even number of times in all, while a witness
    needs ``3 * k_i`` of them.  An odd quota therefore rules out a witness
    outright.  Both families above carry such a triple: two lists of the
    4-part that share a B block sum to the pair part's A list, and the three
    lists of a triple part hold every colour twice.  Everything else, or any
    call with force_search, goes to ``is_lambda_assignment``, whose GF(2)
    certificate settles these families at the root by Gaussian elimination.
    The fast path shares no code with it, so each checks the other.
    Neither reads ``graph``; it stays in the signature for the callers.
    """
    if not force_search and lam.m_odd and _odd_triple(assignment.masks, lam.total):
        return True
    return is_lambda_assignment(assignment, lam) is None
