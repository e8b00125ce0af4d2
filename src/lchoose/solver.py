"""Proper list colouring of complete multipartite graphs, and the verdict
machinery built on top of it.

Vertices in different parts must receive different colours, so a proper
colouring assigns each part a set of colours disjoint from every other
part's set, with each vertex picking from its own list.  The one-shot search
below branches over inclusion-minimal colour covers of one part at a time,
and scales past the 2**n-bit families the orbit walk decides with.  A part's
covers are enumerated once per call and each node keeps those inside its
free colours, which are exactly the covers of the lists cut to them.  Each
node first counts colours: a part with lists inside a colour set X needs one
colour of X, or two if those lists share none (Hall's condition, deficiency
form), and a node whose parts need more than X holds fails unbranched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .assignment import AssignmentEnumerator, ColourPartition, ListAssignment, assignment_to_dict
from .budget import Budget
from .graphs import ColourableSets, MultipartiteGraph
from .lam import Lambda

CHOOSABLE = "CHOOSABLE"
NOT_CHOOSABLE = "NOT_CHOOSABLE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Colouring:
    """Proper colouring as colour index per vertex."""

    colour_of: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a choosability check.

    ``exhaustive`` is True only when every assignment orbit was examined, so
    a CHOOSABLE verdict with exhaustive=False would be unsound and is never
    produced; such runs report INCONCLUSIVE instead.  NOT_CHOOSABLE is
    witnessed by ``counterexample`` and is always final.
    """

    status: str
    exhaustive: bool
    orbits_checked: int
    universe_bound: int
    counterexample: tuple[ListAssignment, ColourPartition] | None = None
    reason: str | None = None  # why an INCONCLUSIVE run stopped

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

    def rec(idx: int, cover: int) -> None:
        while idx < len(masks) and masks[idx] & cover:
            idx += 1
        if idx == len(masks):
            # drop covers with a redundant colour
            c = cover
            while c:
                low = c & -c
                if not any(m & cover == low for m in masks):
                    return
                c ^= low
            found.add(cover)
            return
        m = masks[idx]
        while m:
            low = m & -m
            rec(idx + 1, cover | low)
            m ^= low

    rec(0, 0)
    return sorted(found, key=lambda c: (c.bit_count(), c))


def _short_of_colours(lists: list[tuple[int, ...]], avail: int) -> bool:
    """Do these parts need more colours of some X than X holds?  X ranges
    over ``avail`` and the lists cut to it (see the module docstring)."""
    rest = [[m & avail for m in part] for part in lists]
    if not all(map(all, rest)):
        return True
    for x in {avail}.union(*rest):
        need, out = 0, ~x
        for part in rest:
            common, hit = -1, False
            for m in part:
                if not m & out:
                    common &= m
                    hit = True
            if hit:
                need += 1 if common else 2
        if need > x.bit_count():
            return True
    return False


def find_colouring(graph: MultipartiteGraph, assignment: ListAssignment) -> Colouring | None:
    """First proper colouring from the lists, or None.

    Deterministic: parts are processed largest first (ties by vertex order)
    and candidate covers in (size, value) order.  While two or more parts
    remain, a node fails if some X (its free colours, or one list cut to
    them) is short of colours.  Sound: parts take disjoint colour sets, and a
    part with one colour c in X gives c to each vertex whose list lies in X,
    so c is in all those lists.  Each part's covers come from one enumeration
    per call, filtered per node.  The first colouring found is thus unchanged.
    """
    if assignment.n != graph.n:
        raise ValueError("assignment and graph disagree on the vertex count")
    parts = graph.parts
    order = sorted(range(graph.k), key=lambda i: (-graph.part_sizes[i], i))
    colour_of = [0] * graph.n
    memo_fail: set[tuple[int, int]] = set()
    full = 0
    for m in assignment.masks:
        full |= m
    lists = [tuple(assignment.masks[v] for v in parts[i]) for i in order]
    covers: dict[tuple[int, ...], list[int]] = {}  # per part's lists, uncut

    def solve(pi: int, avail: int) -> bool:
        if pi == len(order):
            return True
        key = (pi, avail)
        if key in memo_fail:
            return False
        if pi + 1 < len(order) and _short_of_colours(lists[pi:], avail):
            memo_fail.add(key)
            return False
        masks = lists[pi]
        if masks not in covers:
            covers[masks] = _minimal_covers(masks)
        for cover in covers[masks]:
            if not cover & ~avail and solve(pi + 1, avail & ~cover):
                for v, m in zip(parts[order[pi]], masks):
                    pick = m & cover
                    colour_of[v] = (pick & -pick).bit_length() - 1
                return True
        memo_fail.add(key)
        return False

    if solve(0, full):
        return Colouring(tuple(colour_of))
    return None


def make_colourability_oracle(graph: MultipartiteGraph) -> Callable[[tuple[int, ...]], bool]:
    """Uncached predicate: do these list masks admit a proper colouring?

    Folds each colour's type through ``ColourableSets.add``, the update the
    orbit walk makes per placed colour, and reads the whole vertex set's bit.
    The work is 2**n bits per colour, so this is for desk-scale graphs.
    """
    sets = ColourableSets(graph)

    def oracle(masks: tuple[int, ...]) -> bool:
        if len(masks) != graph.n:
            raise ValueError("masks and graph disagree on the vertex count")
        family = ColourableSets.EMPTY
        for c in range(max(m.bit_length() for m in masks)):
            family = sets.add(family, sum(1 << v for v, m in enumerate(masks) if m >> c & 1))
        return bool(family >> sets.full & 1)

    return oracle


def is_choosable(
    graph: MultipartiteGraph, lam: Lambda, budget: Budget | None = None
) -> Verdict:
    """Decide whether every exact assignment of the graph is colourable.

    Exact assignments are enough: any assignment meeting the quotas can be
    trimmed to an exact one, and trimming cannot create colourings.  The
    enumerator prunes colourable partial states without a solver call, so
    any assignment it yields is a genuine counterexample; the cover search
    re-checks it here regardless.  Shapes whose vertex group is too large
    for the walk's canonical forms are INCONCLUSIVE before it starts.
    """
    universe_bound = graph.n * lam.total
    try:
        enum = AssignmentEnumerator(graph, lam, budget, prune_colourable=True)
    except ValueError as exc:  # the only refusal: the group size
        return Verdict(INCONCLUSIVE, False, 0, universe_bound, reason=str(exc))
    for la, partition in enum:
        if find_colouring(graph, la) is not None:
            raise RuntimeError("enumerator yielded a colourable assignment")
        return Verdict(NOT_CHOOSABLE, True, enum.orbits_seen, universe_bound, (la, partition))
    if enum.truncated:
        return Verdict(INCONCLUSIVE, False, enum.orbits_seen, universe_bound, reason="budget exhausted")
    return Verdict(CHOOSABLE, True, enum.orbits_seen, universe_bound)
