"""Proper list colouring of complete multipartite graphs, and the verdict
machinery built on top of it.

Vertices in different parts must receive different colours, so a proper
colouring assigns each part a set of colours disjoint from every other
part's set, with each vertex picking from its own list: each part in turn
takes an inclusion-minimal cover of its lists.  A part with lists inside a
colour set X needs one colour of X, or two if those lists share none
(Hall's condition, deficiency form).  One pass per part keeps the colours
its lists share for two steps: parts needing more than all the colours are
refused at once, and a greedy pass gives each part its lowest shared free
colour (the shared colours are its one-colour covers, and no cover is
smaller), else its first minimal cover inside the free colours, built once
per call.  If all get one, each left the later parts colourable.  A part
with none hands those covers to one of two exact fallbacks.  Up to
``_TABLE_COLOURS`` colours, tables: the subset DP of ``ColourableSets`` run
over the 2**u colour sets (Bjorklund, Husfeldt & Koivisto, SIAM J. Comput.
2009), each family one 2**u-bit integer.  ``ok[i]``, the free sets from
which parts i.. can be coloured, is the OR over part i's minimal covers x
of ``(ok[i+1] & sets_disjoint_from(x)) << x``, the last part's ``ok`` being
its covering family, and a forward pass takes each part's first cover with
the rest of its free colours in ``ok[i+1]``.  Above that the 2**u-bit
tables cost more than a depth-first search over minimal covers.  Each node
keeps the covers inside its free colours, which are exactly the covers of
the lists cut to them; a node whose parts need more colours of some X than
X holds fails unbranched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .assignment import (
    AssignmentEnumerator, ColourPartition, ListAssignment, _transpose, assignment_to_dict,
)
from .budget import Budget
from .graphs import ColourableSets, MultipartiteGraph, subsets_without
from .lam import Lambda

CHOOSABLE = "CHOOSABLE"
NOT_CHOOSABLE = "NOT_CHOOSABLE"
INCONCLUSIVE = "INCONCLUSIVE"

# covers and fallback from tables up to this many colours, from the cover
# search above: at 20 colours the k42 family takes 70-90 ms with tables and
# 2-5 ms without
_TABLE_COLOURS = 16


@dataclass(frozen=True)
class Colouring:
    """Proper colouring as colour index per vertex."""

    colour_of: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a choosability check.

    A walk cut short by its budget, or never started, is INCONCLUSIVE;
    CHOOSABLE means every assignment orbit was examined.  NOT_CHOOSABLE is
    witnessed by ``counterexample`` and is always final.
    """

    status: str
    orbits_checked: int
    universe_bound: int
    counterexample: tuple[ListAssignment, ColourPartition] | None = None
    reason: str | None = None  # why an INCONCLUSIVE run stopped, or a walk-free CHOOSABLE's bound

    @property
    def exhaustive(self) -> bool:
        """False exactly for INCONCLUSIVE, the only status that is not final."""
        return self.status != INCONCLUSIVE

    def to_dict(self) -> dict:
        ce = self.counterexample
        return {
            "status": self.status,
            "exhaustive": self.exhaustive,
            "orbits_checked": self.orbits_checked,
            "universe_bound": self.universe_bound,
            "counterexample": assignment_to_dict(*ce) if ce is not None else None,
            "reason": self.reason,
        }


def _minimal_covers(masks: tuple[int, ...]) -> list[int]:
    """Inclusion-minimal colour sets covering every mask in ``masks``.

    A cover is minimal iff each of its colours is the only hit of some mask.
    So for any colour set A, those inside A are the minimal covers of the
    masks cut to A (none if a cut mask is empty), in the same order: bitmasks
    sorted by (popcount, value), so cheaper covers are tried first.
    """
    found: set[int] = set()
    stack = [(0, 0)]  # (index of the next mask to hit, cover so far)
    while stack:
        idx, cover = stack.pop()
        while idx < len(masks) and masks[idx] & cover:
            idx += 1
        if idx < len(masks):
            m = masks[idx]
            while m:
                low = m & -m
                stack.append((idx + 1, cover | low))
                m ^= low
        # minimal iff each colour is some mask's only hit: sum the one-colour hits
        elif cover == sum({hit for m in masks if not (hit := m & cover) & (hit - 1)}):
            found.add(cover)
    return sorted(found, key=lambda c: (c.bit_count(), c))


def _colours_needed(lists, x: int) -> int:
    """Colours of X the parts need: one per part with lists inside X if
    those lists share one, else two (see the module docstring)."""
    need, out = 0, ~x
    for part in lists:
        common, hit = -1, False
        for m in part:
            if not m & out:
                common &= m
                hit = True
        if hit:
            need += 1 if common else 2
    return need


def _short_of_colours(lists: list[tuple[int, ...]], avail: int) -> bool:
    """Do these parts need more colours of some X than X holds?  X ranges
    over ``avail`` and the lists cut to it."""
    rest = [[m & avail for m in part] for part in lists]
    if not all(map(all, rest)):
        return True
    return any(_colours_needed(rest, x) > x.bit_count() for x in {avail}.union(*rest))


def find_colouring(graph: MultipartiteGraph, assignment: ListAssignment) -> Colouring | None:
    """First proper colouring from the lists, or None.

    Deterministic: parts are taken largest first, as the graph sorts them,
    and each takes its first minimal cover in (size, value) order that leaves
    the later parts colourable; each vertex takes its least colour in the
    cover.  One pass per part keeps its lists' shared colours for the
    refusal and the greedy pass, which gives each part its first minimal
    cover inside the free colours; if all get one, each left the later parts
    colourable.  A part with none hands the covers built so far to one of
    two fallbacks, by universe size; both find the colouring: the search's
    colour count cuts only failing subtrees, and a search subtree succeeds
    exactly when its free colours lie in the table of the parts after it.
    """
    if assignment.n != graph.parts[-1].stop:
        raise ValueError("assignment and graph disagree on the vertex count")
    u = assignment.universe_size
    lists, commons = [], []  # per part: its lists, and the colours they share
    for part in graph.parts:
        lists.append(masks := assignment.masks[part.start:part.stop])
        common = -1
        for m in masks:
            common &= m
        commons.append(common)
    if _root_need(commons) > u:
        return None
    tables = u <= _TABLE_COLOURS
    covers: dict[tuple[int, ...], list[int]] = {}  # per part's lists, uncut
    free, chosen = (1 << u) - 1, []
    for masks, common in zip(lists, commons):
        if shared := common & free:  # the one-colour covers are the shared colours, and come first
            x = shared & -shared
        else:
            if masks not in covers:
                covers[masks] = _table_covers(masks, u) if tables else _minimal_covers(masks)
            if (x := next((c for c in covers[masks] if not c & ~free), None)) is None:
                return (_ok_search if tables else _cover_search)(lists, covers, u)
        chosen.append(x)
        free &= ~x
    return _paint(lists, chosen)


def _root_need(commons: list[int]) -> int:
    """``_colours_needed`` over all colours, from each part's shared colours."""
    return len(commons) + commons.count(0)


def _paint(lists: list[tuple[int, ...]], chosen: list[int]) -> Colouring:
    """Each vertex takes its least colour in its part's cover; parts hold
    consecutive vertices, so the one pass's part lists join in vertex order."""
    colour_of = []
    for masks, cover in zip(lists, chosen):
        for m in masks:
            colour_of.append(((pick := m & cover) & -pick).bit_length() - 1)
    return Colouring(tuple(colour_of))


def _cover_search(lists: list[tuple[int, ...]], covers: dict, u: int) -> Colouring | None:
    """The depth-first cover search.  While two or more parts remain, a node
    fails if some X (its free colours, or one list cut to them) is short of
    colours.  Sound: parts take disjoint colour sets, and a part with one
    colour c in X gives c to each vertex whose list lies in X."""
    chosen = [0] * len(lists)
    memo_fail: set[tuple[int, int]] = set()
    path = []  # per part on the path: its free colours and covers left (no frame per part)
    avail = (1 << u) - 1
    while (pi := len(path)) < len(lists):
        if (pi, avail) in memo_fail or pi + 1 < len(lists) and _short_of_colours(lists[pi:], avail):
            memo_fail.add((pi, avail))
        else:
            if (masks := lists[pi]) not in covers:
                covers[masks] = _minimal_covers(masks)
            path.append((avail, iter(covers[masks])))
        # the deepest part takes its next cover inside its free colours; a
        # part with none left fails, and its parent takes its next one
        while path:
            free, rest = path[-1]
            if (cover := next((x for x in rest if not x & ~free), None)) is not None:
                break
            memo_fail.add((len(path) - 1, free))
            path.pop()
        else:
            return None
        chosen[len(path) - 1] = cover
        avail = free & ~cover
    return _paint(lists, chosen)


def _missing(sets: int, x: int, without: tuple[int, ...]) -> int:
    """The members of the family ``sets`` that miss every colour of x."""
    while x:
        sets &= without[(x & -x).bit_length() - 1]
        x &= x - 1
    return sets


def _covering_family(masks: tuple[int, ...], without: tuple[int, ...]) -> int:
    """The colour sets meeting every mask in ``masks``, a 2**u-bit table."""
    family = (1 << (1 << len(without))) - 1
    for m in masks:
        family &= ~_missing(-1, m, without)
    return family


def _table_covers(masks: tuple[int, ...], u: int) -> list[int]:
    """``_minimal_covers(masks)`` off the tables: the members of the covering
    family none one colour smaller, in (popcount, value) order."""
    without = subsets_without(u)
    family = _covering_family(masks, without)
    above = 0
    for c, sets in enumerate(without):
        above |= (family & sets) << (1 << c)
    bits, minimal = bin(family & ~above)[:1:-1], []
    i = bits.find("1")
    while i >= 0:
        minimal.append(i)
        i = bits.find("1", i + 1)
    return sorted(minimal, key=int.bit_count)


def _ok_search(lists: list[tuple[int, ...]], covers: dict, u: int) -> Colouring | None:
    """The exact tables: no backtracking, since a part's cover is kept only
    when the rest of its free colours lie in ``ok`` of the parts after it."""
    without = subsets_without(u)
    for masks in set(lists) - covers.keys():
        covers[masks] = _table_covers(masks, u)
    ok = [0] * (len(lists) - 1) + [_covering_family(lists[-1], without), (1 << (1 << u)) - 1]
    for i in reversed(range(len(lists) - 1)):
        later = ok[i + 1]
        for x in covers[lists[i]]:
            ok[i] |= _missing(later, x, without) << x
    free = (1 << u) - 1
    if not ok[0] >> free & 1:
        return None
    chosen = []
    for masks, later in zip(lists, ok[1:]):
        for x in covers[masks]:
            if not x & ~free and later >> (free & ~x) & 1:
                break
        chosen.append(x)
        free &= ~x
    return _paint(lists, chosen)


def make_colourability_oracle(graph: MultipartiteGraph) -> Callable[[tuple[int, ...]], bool]:
    """Uncached predicate: do these list masks admit a proper colouring?

    Folds each colour's type through ``ColourableSets.add`` (the walk reads
    the same per-part share tables, once per node) and reads the whole
    vertex set's bit.
    The work is 2**n bits per colour, so this is for desk-scale graphs.
    """
    sets = ColourableSets(graph)

    def oracle(masks: tuple[int, ...]) -> bool:
        if len(masks) != graph.n:
            raise ValueError("masks and graph disagree on the vertex count")
        family = ColourableSets.EMPTY
        for s in _transpose(masks, max(m.bit_length() for m in masks)):
            family = sets.add(family, s)
        return bool(family >> sets.full & 1)

    return oracle


def is_choosable(
    graph: MultipartiteGraph, lam: Lambda, budget: Budget | None = None
) -> Verdict:
    """Decide whether every exact assignment of the graph is colourable.

    Exact assignments are enough: any assignment meeting the quotas can be
    trimmed to an exact one, and trimming cannot create colourings.  The
    enumerator prunes colourable partial states without a solver call, so
    any assignment it yields is a genuine counterexample; ``find_colouring``
    re-checks it here regardless.  Shapes whose vertex group is too large
    for the walk's canonical forms are INCONCLUSIVE before it starts, unless
    every part peels, largest first, while ``lam.total`` exceeds the vertices
    outside it: lists that long then colour greedily (Erdos, Rubin & Taylor).
    """
    universe_bound = graph.n * lam.total
    try:
        enum = AssignmentEnumerator(graph, lam, budget, prune_colourable=True)
    except ValueError as exc:  # the only refusal: the group size
        left = graph.n
        for size in graph.part_sizes:  # descending: once a part stays, all later ones do
            if lam.total > left - size:
                left -= size
        if left == 0:
            return Verdict(CHOOSABLE, 0, universe_bound,
                           reason="greedy bound of Erdos, Rubin and Taylor: every part peels")
        return Verdict(INCONCLUSIVE, 0, universe_bound, reason=str(exc))
    for la, partition in enum:
        if find_colouring(graph, la) is not None:
            raise RuntimeError("enumerator yielded a colourable assignment")
        return Verdict(NOT_CHOOSABLE, enum.orbits_seen, universe_bound, (la, partition))
    if enum.truncated:
        return Verdict(INCONCLUSIVE, enum.orbits_seen, universe_bound, reason="budget exhausted")
    return Verdict(CHOOSABLE, enum.orbits_seen, universe_bound)
