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
``is_lambda_assignment`` opens equal-quota classes in order and keeps same-type
colours in non-decreasing classes, which leaves its first witness in place.
Before it searches, it refutes by parity: a witness meets every list of exactly
``lam.total`` colours in exactly ``k_i`` colours of class i, a linear system
over GF(2) per class, and an inconsistent one leaves no witness to find.
The enumerator yields only orbit maxima, and cuts a class prefix p as soon as
a generator g of the vertex group gives ``sorted(g(p), reverse=True) > p``:
every class holding p then has a larger image too, so no maximum lies below.

Both searches below keep per-vertex counters as *packed layers*: one
integer of n-bit layers, layer j holding the vertices whose count exceeds j.
With ``S = s * layers`` (bit 0 of every layer set), ``x & ~S | x >> n & S``
lowers by one every positive count in s, ``x & full`` holds the vertices with
a positive count, and ``x & ~y`` is nonzero iff some count in x exceeds y's.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain, permutations, product
from operator import itemgetter
from typing import Iterator

from .budget import Budget
from .graphs import ColourableSets, MultipartiteGraph
from .lam import Lambda, integers

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
        (universe,) = integers((self.universe_size,), "universe size")
        if universe < 1:
            raise ValueError("universe must contain at least one colour")
        masks = integers(self.masks, "list masks")
        if not masks:
            raise ValueError("assignment needs at least one vertex")
        full = (1 << universe) - 1
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
            for c in integers(lst, "colours"):
                m |= 1 << c
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
        cls = integers(self.class_of, "colour classes")
        q = self.lam.size
        if any(c < 0 or c >= q for c in cls):
            raise ValueError("class index out of range")
        object.__setattr__(self, "class_of", cls)

    @property
    def universe_size(self) -> int:
        return len(self.class_of)

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


def _check_quotas(
    assignment: ListAssignment, lam: Lambda, partition: ColourPartition, exact: bool
) -> None:
    """Raise ValueError unless ``partition``, built for ``lam``, gives every
    vertex at least ``k_i`` colours of class i, or exactly ``k_i`` if ``exact``."""
    if partition.lam != lam:
        raise ValueError("partition was built for a different quota multiset")
    for v, row in enumerate(quota_counts(assignment, partition)):
        for i, (have, k) in enumerate(zip(row, lam.parts)):
            if have < k or exact and have > k:
                raise ValueError(f"partition does not witness the quotas: vertex {v} "
                                 f"has {have} colours of class {i}, whose quota is {k}")


def _transpose(rows, width: int) -> list[int]:
    """Per bit j < width, the rows holding it as a mask over row indices: list
    masks to colour types (the vertices whose lists hold each colour), and back."""
    out, keep = [0] * width, (1 << width) - 1
    for i, r in enumerate(rows):
        bit, r = 1 << i, r & keep
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


def _parity_blocked(masks: tuple[int, ...], lam: Lambda) -> bool:
    """Is some quota's GF(2) system on the tight lists inconsistent?

    A list is tight when it holds exactly ``lam.total`` colours; a witness
    meets it in exactly ``k_i`` colours of class i, so the indicator of class
    i solves ``sum(x[c] for c in L) = k_i`` mod 2 over the tight lists L.
    Gaussian elimination of the lists, as bitmasks above one parity bit
    ``k_i & 1`` per class, blocks a witness once some row loses every
    colour but keeps a parity bit.  All quotas even: never blocked.
    """
    q = lam.size
    rhs = sum((k & 1) << i for i, k in enumerate(lam.parts))
    if not rhs:
        return False
    basis: dict[int, int] = {}  # pivot (top bit) -> reduced row
    for m in masks:
        if m.bit_count() == lam.total:
            row = m << q | rhs
            while row >> q and row.bit_length() in basis:
                row ^= basis[row.bit_length()]
            if row >> q:
                basis[row.bit_length()] = row
            elif row:
                return True
    return False


def is_lambda_assignment(assignment: ListAssignment, lam: Lambda) -> ColourPartition | None:
    """Search for a partition of the universe witnessing the quotas.

    A witness gives every vertex at least ``lam.parts[i]`` colours of class i
    in its list, for every i.  Returns the first witness found by a
    deterministic backtracking search over colours (colours touching the most
    vertices first, each tried in classes 0, 1, ...), or None when no witness
    exists.  Each node gets its state from its parent as packed counters (see
    the module note): ``owed[i]`` counts the class-i colours each vertex still
    needs and ``need`` their sum, while ``supply[pos]``, built once, counts
    each list's colours at ``order[pos:]``.  The search prunes with one bit
    test, ``need & ~supply[pos]``: some vertex needs more colours than it has
    left.  Before any of this is built, ``_parity_blocked`` may refute the
    quotas: a list of exactly ``lam.total`` colours meets a witness in exactly
    ``k_i`` colours of class i, so an inconsistent GF(2) system on those lists
    leaves nothing to find.  It refutes only what the search would, so every
    witness is unchanged.
    Empty classes of equal quota are interchangeable, and quotas ascend, so
    class i is tried only once class i-1 of the same quota is in use.  Colours
    of one type are interchangeable too, so none takes a class below the one
    before it.  This keeps the first witness, the least along ``order`` under
    the first rule: swapping two same-type colours out of class order in it,
    then renaming equal-quota classes by first use, would give a smaller one.
    """
    if _parity_blocked(assignment.masks, lam):
        return None
    ks = lam.parts
    n = assignment.n
    universe = assignment.universe_size
    types = _transpose(assignment.masks, universe)
    order = sorted(range(universe), key=lambda c: (-types[c].bit_count(), c))
    full = (1 << n) - 1
    # bit 0 of every layer: lam.total layers for the counters, universe for supply
    layers = ((1 << lam.total * n) - 1) // full
    wide = ((1 << universe * n) - 1) // full
    supply = [0]
    for c in reversed(order):  # one more colour for every vertex of its type
        supply.append(supply[-1] | (supply[-1] << n | types[c]) & types[c] * wide)
    supply.reverse()
    # path[1:pos + 1] holds the branch's classes of order[:pos] and path[0] a class-0
    # sentinel; mate[pos] indexes the previous colour of the same type, or the sentinel
    path = [0] * (universe + 1)
    mate, last = [], {}
    for pos, c in enumerate(order):
        mate.append(last.get(types[c], 0))
        last[types[c]] = pos + 1

    def rec(pos, owed, need, used):
        if pos == universe:
            return path[1:]
        s = types[order[pos]]
        have = supply[pos + 1]
        for i in range(path[mate[pos]], len(ks)):
            if i and ks[i] == ks[i - 1] and not used >> i - 1 & 1:
                continue
            paid = (s & owed[i]) * layers
            left = need & ~paid | need >> n & paid
            if left & ~have:
                continue
            nxt = owed[:i] + (owed[i] & ~paid | owed[i] >> n & paid,) + owed[i + 1:]
            path[pos + 1] = i
            rest = rec(pos + 1, nxt, left, used | 1 << i)
            if rest is not None:
                return rest
        return None

    need = (1 << lam.total * n) - 1
    choice = None if need & ~supply[0] else rec(0, tuple((1 << k * n) - 1 for k in ks), need, 0)
    if choice is None:
        return None
    return ColourPartition(lam, tuple(i for _, i in sorted(zip(order, choice))))


def trim_to_exact(
    assignment: ListAssignment, lam: Lambda, partition: ColourPartition
) -> tuple[ListAssignment, ColourPartition]:
    """Shrink every list to exactly its quota in each class.

    Keeps the ``k_i`` smallest colours of each intersection, drops colours
    that then appear in no list, and renumbers the survivors in order.
    Returns the trimmed assignment together with the renumbered partition.
    Raises ValueError when the partition does not witness the quotas.
    """
    _check_quotas(assignment, lam, partition, exact=False)
    cms = partition.class_masks()
    kept_masks = []
    for m in assignment.masks:
        kept = 0
        for k, cm in zip(lam.parts, cms):
            inter = m & cm
            for _ in range(k):
                kept |= inter & -inter
                inter &= inter - 1
        kept_masks.append(kept)
    types = _transpose(kept_masks, assignment.universe_size)
    survivors = [c for c, t in enumerate(types) if t]
    masks = _transpose([types[c] for c in survivors], assignment.n)
    classes = tuple(partition.class_of[c] for c in survivors)
    return ListAssignment(len(survivors), tuple(masks)), ColourPartition(lam, classes)


def _check_group(part_sizes: tuple[int, ...]) -> None:
    # the order's factors one at a time, stopping past a machine word: a huge
    # part builds no huge factorial, and no reason spells a huge number
    order = 1
    for f in chain(*(range(2, s + 1) for s in part_sizes),
                   *(range(2, part_sizes.count(s) + 1) for s in set(part_sizes))):
        order *= f
        if order > sys.maxsize:
            raise ValueError(f"symmetry group too large (past the {_GROUP_LIMIT:,}-element "
                             "limit) for explicit canonical forms")
    if order > _GROUP_LIMIT:
        raise ValueError(f"symmetry group too large ({order}) for explicit canonical forms")


@lru_cache(maxsize=None)
def vertex_group(part_sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Vertex permutations preserving the part structure.

    Vertices may be permuted within a part and whole parts of equal size may
    swap.  Enumerated explicitly, so guarded against huge groups.
    """
    _check_group(part_sizes)
    parts = [range(end - s, end) for s, end in zip(part_sizes, accumulate(part_sizes))]
    # the lanes follow this order: swaps of equal-size parts (sizes ascending)
    # outermost, then the vertices' images part by part
    groups = [[p for p in parts if len(p) == s] for s in sorted(set(part_sizes))]
    perms: list[tuple[int, ...]] = []
    for targets in product(*map(permutations, groups)):
        dest = dict(zip(chain(*groups), chain(*targets)))
        images = product(*(permutations(dest[p]) for p in parts))
        perms += (tuple(chain(*row)) for row in images)
    return tuple(perms)


@lru_cache(maxsize=None)
def _peaks(part_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex set s, its largest image under ``vertex_group(part_sizes)``:
    each part's share of s packed into the part's top vertices, the shares
    ascending along each run of equal-size parts (later parts sit higher).
    A run's peaks read only its vertices, so the runs' tables add up."""
    table, base = [0], 0
    for size in sorted(set(part_sizes), reverse=True):  # the runs, in vertex order
        ends = range(base + size, base + size * part_sizes.count(size) + 1, size)
        shares = (sorted((s >> end - size - base & (1 << size) - 1).bit_count() for end in ends)
                  for s in range(1 << ends[-1] - base))  # s: the run's vertices, shifted down
        run = [sum(((1 << c) - 1) << end - c for c, end in zip(row, ends)) for row in shares]
        table, base = [hi + lo for hi in run for lo in table], ends[-1]
    return tuple(table)


def _generators(part_sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """Generators of ``vertex_group(part_sizes)`` as delta swaps ``(mask, shift)``.

    One adjacent transposition per neighbouring pair of vertices in a part,
    and one swap per pair of neighbouring equal-size parts.  A swap exchanges
    the bits of ``mask`` with those ``shift`` places above them: with
    ``d = (x >> shift ^ x) & mask`` the image of the vertex set x is
    ``x ^ d ^ d << shift``.  Needs no table over the 2^n vertex sets.
    """
    gens = []
    start = 0
    for i, size in enumerate(part_sizes):
        gens += [(1 << v, 1) for v in range(start, start + size - 1)]
        if part_sizes[i + 1:i + 2] == (size,):
            gens.append((((1 << size) - 1) << start, size))
        start += size
    return gens


Blocks = tuple  # tuple[(quota, tuple[type mask, ...]), ...]


# per shape: the lane typecode and, per vertex v, an integer whose lane g is 1 << g[v]
_LANES: dict[tuple[int, ...], tuple[str, list[int]]] = {}
# per type of the shape keyed most recently, and of no other: its lanes and peak lanes
_TYPE_LANES: dict[tuple[int, ...], dict[int, tuple[memoryview, list[int]]]] = {}


def _lane_images(part_sizes: tuple[int, ...],
                 blocks: Blocks) -> list[list[tuple[memoryview, list[int]]]]:
    """Per class and type of ``blocks``, the type's images under every
    vertex-group element (the sum of its vertices' lanes) as a ``memoryview``
    cast to lanes, and the lanes that hold the type's peak (``_peaks``).
    Each type's entry is built once and kept until another shape is keyed."""
    group = vertex_group(part_sizes)
    n = sum(part_sizes)
    if part_sizes not in _LANES:
        code = next(c for c in "BHILQ" if array(c).itemsize * 8 >= n)
        _LANES[part_sizes] = code, [int.from_bytes(array(code, [1 << g[v] for g in group]),
                                                   sys.byteorder) for v in range(n)]
    code, lanes = _LANES[part_sizes]
    if (entries := _TYPE_LANES.get(part_sizes)) is None:
        _TYPE_LANES.clear()
        entries = _TYPE_LANES[part_sizes] = {}
    peaks = _peaks(part_sizes)
    size = len(group) * array(code).itemsize
    for _, ms in blocks:
        for m in ms:
            if m not in entries:
                image = sum(x for v, x in enumerate(lanes) if m >> v & 1)
                view = memoryview(image.to_bytes(size, sys.byteorder)).cast(code)
                entries[m] = view, [g for g, x in enumerate(view) if x == peaks[m]]
    return [[entries[m] for m in ms] for _, ms in blocks]


def _canonical_blocks(part_sizes: tuple[int, ...], blocks: Blocks) -> Blocks:
    """The orbit maximum of ``blocks``.  Encodings open with their largest
    top-quota image, the largest ``_peaks`` value of a top-quota type, so
    only the peak lanes of the types that reach it are compared:
    ``itemgetter`` gathers them and ``map`` sorts each class's images per
    lane, with no Python frame per lane.  Each quota group, highest first,
    keeps only the lanes that reach its best encoding."""
    quotas = [k for k, _ in blocks]
    rows = _lane_images(part_sizes, blocks)
    peaks = _peaks(part_sizes)
    tops = [(peaks[m], hits) for (k, ms), r in zip(blocks, rows) if k == max(quotas)
            for m, (_, hits) in zip(ms, r)]
    peak = max(p for p, _ in tops)
    lanes = list(set().union(*(hits for p, hits in tops if p == peak)))
    down = partial(sorted, reverse=True)
    if len(rows) == 1:
        get = itemgetter(*lanes, lanes[0])  # the repeated lane keeps every gather a tuple
        return ((quotas[0], tuple(max(map(down, zip(*(get(v) for v, _ in rows[0])))))),)
    out = []
    for k in sorted(set(quotas), reverse=True):
        get = itemgetter(*lanes, lanes[0])
        cols = [map(down, zip(*(get(v) for v, _ in r))) for q, r in zip(quotas, rows) if q == k]
        encs = list(map(down, zip(*cols)))  # per kept lane, the group's classes
        best = max(encs)
        out += ((k, tuple(c)) for c in best)
        lanes = [lane for lane, e in zip(lanes, encs) if e == best]
    return tuple(out)


def _blocks_of(assignment: ListAssignment, lam: Lambda, partition: ColourPartition) -> Blocks:
    type_masks = _transpose(assignment.masks, assignment.universe_size)
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
    The key spells the orbit maximum, which ``_canonical_blocks`` reads off
    lane-packed vertex images, kept per type across calls on one shape.
    Requires an exact (lam, partition).
    """
    if assignment.n != graph.n:
        raise ValueError("assignment and graph disagree on the vertex count")
    _check_quotas(assignment, lam, partition, exact=True)
    blocks = _blocks_of(assignment, lam, partition)
    canon = _canonical_blocks(graph.part_sizes, blocks)
    return repr(canon).encode("ascii")


class AssignmentEnumerator:
    """Depth-first stream of exact assignments, one per symmetry orbit.

    Colours are placed one at a time as types (vertex bitmasks), class by
    class with quotas descending.  Within a class the type sequence is
    non-increasing, and a class of the same quota as its predecessor must not
    exceed the predecessor's encoding, so every orbit is generated at least
    once in its maximal encoding.  A finished assignment's encoding is already
    sorted, and it is yielded only when ``_canonical_blocks`` returns it
    unchanged, so it *is* the orbit maximum: exactly once per orbit.

    Inside the walk, a prefix p of a class (non-increasing types) is cut, with
    everything below it, when some generator g from ``_generators`` gives
    ``sorted(g(p), reverse=True) > p``.  The first class is checked by every
    generator, each later class only by the generators that map every
    finished class onto itself.  This is a lex-leader condition (Crawford,
    Ginsberg, Luks & Roy, KR 1996): adding types to p only raises the top
    order statistics of its image, so the whole class C has a larger image
    too, and g, fixing the classes before C, maps the leaf's encoding to a
    larger one.  The first position also sees the whole group: an orbit
    maximum opens with the peak (largest image, ``_peaks``) of a top-quota
    type, so a type in a top-quota class whose peak exceeds the lead, the
    first class's first type, is cut too (a first type itself is left to the
    generators).  No orbit maximum is lost, the leaf test still decides which
    leaves are yielded, and the stream and its order are unchanged; only
    labelled nodes that lead to no yield are skipped.  Each node carries, per
    generator, the sorted image of its class prefix, and a child's images
    are its parent's with one type inserted.

    With ``prune_colourable`` set, colourable leaves are suppressed, which
    turns the stream into the stream of counterexample orbits.  Each node
    gets from its parent a ``ColourableSets`` family and, before its child
    loop, tables per part that family joined by a colour on each submask of
    the part's owed vertices (``ColourableSets.shares``): a child's family is
    one OR per part, no solver runs and nothing is undone on backtrack.
    A child that finishes the last class is always entered, as its leaf test
    counts the orbit.  Any other child is cut when its family meets E(r - 1)
    (``ColourableSets.complements``, kept per class by the owed counters), r_v
    being the colours vertex v is still owed in this class and the later
    ones: colour W from the placed colours, then the rest greedily from
    fresh ones, of which v gets r_v - 1 or more short of the final colour.
    So every leaf-parent below is colourable, and no leaf is entered from a
    colourable parent (V is in E(r - 1)): orbits counted and the stream are
    those of a walk that cuts colourable children only, which loses no
    counterexample, as none has a colourable prefix.

    Every state the walk enters ticks the budget once; ``truncated`` reads
    ``budget.exhausted``, and ``orbits_seen`` counts the canonical leaves
    reached.  Shapes whose vertex group is too large for the leaf canonical
    forms raise ValueError at once.
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
        self.orbits_seen = 0
        self._gen = self._walk()

    def __iter__(self) -> Iterator[tuple[ListAssignment, ColourPartition]]:
        return self._gen

    @property
    def truncated(self) -> bool:
        return self.budget.exhausted

    def _build(self, done: tuple[tuple[int, ...], ...]):
        # colours are numbered in placement order
        types = [s for cls in done for s in cls]
        masks = tuple(_transpose(types, self.graph.n))
        class_of = tuple(len(done) - 1 - ci for ci, cls in enumerate(done) for _ in cls)
        return ListAssignment(len(types), masks), ColourPartition(self.lam, class_of)

    def _walk(self):
        G = self.graph
        n = G.n
        full = (1 << n) - 1
        quotas = tuple(sorted(self.lam.parts, reverse=True))
        part_sizes = G.part_sizes
        tick, prune = self.budget.tick, self.prune
        peaks = _peaks(part_sizes)
        # ``owed`` packs the current class's colours each vertex is still owed
        layers = sum(1 << j * n for j in range(quotas[0]))
        # a family holds the sets the placed colours can colour (EMPTY unpruned)
        sets = ColourableSets(G)
        # per class, E(r - 1) by the owed counters and the later classes' colours less one
        cuts, total = [{} for _ in quotas], sum(quotas)
        later = [total - 1 - placed for placed in accumulate(quotas)]
        start = ()  # every class opens with this prefix; ``img is cls`` tests for it

        def grow(ci, done, cls, owed, family, gens, images, bound):
            if not tick():
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
                # already sorted, so the identity's encoding: a maximum iff it is
                if _canonical_blocks(part_sizes, blocks) == blocks:
                    self.orbits_seen += 1
                    if not family >> full & 1:
                        yield self._build(done)
                return
            pos = len(cls)
            ceiling = cls[-1] if cls else full
            if bound is not None:
                # cls is bound[:pos]; all of bound would have paid every
                # owed colour, as bound did, and finished above
                ceiling = min(ceiling, bound[pos])
            # the peak cut (see the class note); a lead of ``full`` cuts nothing
            lead = full if quotas[ci] < quotas[0] else (done[0] if done else cls or (full,))[0]
            # s runs down rem's submasks while it holds rem's top vertex T:
            # a type without T leaves T owed, and every later type of the
            # class, capped by s < 2**T, lacks T too
            s, top = rem + 1, 1 << rem.bit_length() - 1
            shares = sets.shares(family, rem) if prune else ()  # one OR per part gives a child's family
            memo, last = cuts[ci], ci + 1 == len(quotas)
            while (s := (s - 1) & rem) >= top:
                if s > ceiling or peaks[s] > lead:
                    continue
                spread = s * layers
                nxt = owed & ~spread | owed >> n & spread
                left = nxt & full
                fam = family
                for part, table in shares:
                    fam |= table[s & part]
                # a child that finishes the last class is always entered (its
                # leaf counts an orbit); any other is cut once every
                # leaf-parent below it is colourable; this cut runs before the
                # lex-leader one, which cuts fewer children at more cost each
                if prune and (left or not last):
                    if (cut := memo.get(nxt)) is None:
                        cut = memo[nxt] = sets.complements(
                            [(nxt >> v & layers).bit_count() + later[ci] for v in range(n)])
                    if fam & cut:
                        continue
                # lex-leader cut: no orbit maximum lies below a prefix that
                # some generator maps to a larger one
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
                    b = img + (t,) if t <= img[-1] else tuple(sorted(img + (t,), reverse=True))
                    if b > p:
                        break
                    lifted.append(b)
                else:
                    yield from grow(ci, done, p, nxt, fam, gens, lifted,
                                    bound if bound is not None and s == bound[pos] else None)

        gens = _generators(part_sizes)
        yield from grow(0, (), start, (1 << quotas[0] * n) - 1, ColourableSets.EMPTY,
                        gens, [start] * len(gens), None)


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
    (universe,) = integers((data["universe"],), "universe")
    if not isinstance(data["lists"], list):
        raise ValueError("lists must be an array of arrays")
    lists = [integers(lst, "lists") for lst in data["lists"]]
    # before any bitmask is built: a huge colour or universe asks for a huge int
    if not 1 <= universe <= sum(map(len, lists)):
        raise ValueError("universe must be between 1 and the number of list entries")
    if any(not 0 <= c < universe for lst in lists for c in lst):
        raise ValueError(f"a colour lies outside the universe 0..{universe - 1}")
    assignment = ListAssignment.from_lists(universe, lists)
    lam = None if data.get("lambda") is None else Lambda(integers(data["lambda"], "lambda"))
    partition = None
    if data.get("partition") is not None:
        classes = integers(data["partition"], "partition")
        if len(classes) != universe:
            raise ValueError("partition must list one class per universe colour")
        if lam is None:
            raise ValueError("partition requires the lambda field")
        partition = ColourPartition(lam, classes)
    return assignment, partition, lam
