"""Peeling small-part subgraphs out of a host graph.

A peel step removes an induced complete multipartite subgraph whose parts
all have size at most 4, with exactly ``target`` parts, and whose vertex
count lands in the two-wide window [2*target+1, 2*target+2].  ``FourTuple``
records how many parts of each size 1..4 the step takes; ``peel_recipes``
produces valid tuples in closed form, ``find_reducible_4tuple`` searches
for one under explicit availability caps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MultipartiteGraph
from .lam import integers


@dataclass(frozen=True)
class FourTuple:
    """Counts (a1, a2, a3, a4) of parts of sizes 1..4, aimed at quota ``target``."""

    entries: tuple[int, int, int, int]
    target: int

    def __post_init__(self) -> None:
        entries = integers(self.entries, "tuple entries")
        if len(entries) != 4 or any(a < 0 for a in entries):
            raise ValueError("entries must be four nonnegative counts")
        (target,) = integers((self.target,), "target quota")
        if target < 1:
            raise ValueError("target quota must be positive")
        object.__setattr__(self, "entries", entries)

    @property
    def part_count(self) -> int:
        return sum(self.entries)

    @property
    def vertex_count(self) -> int:
        return sum((i + 1) * a for i, a in enumerate(self.entries))

    def in_window(self) -> bool:
        """Part count equals the target, vertex count in [2t+1, 2t+2]."""
        if self.part_count != self.target:
            return False
        return 2 * self.target + 1 <= self.vertex_count <= 2 * self.target + 2

    def part_vector(self) -> tuple[int, ...]:
        out: list[int] = []
        for size in (4, 3, 2, 1):
            out.extend([size] * self.entries[size - 1])
        return tuple(out)


def find_reducible_4tuple(caps: tuple[int, int, int, int], target: int) -> FourTuple | None:
    """Lexicographically least valid tuple under per-size availability caps.

    Valid means in_window() with each entry at most its cap.  Returns None
    when the caps admit no valid tuple.
    """
    if target < 1:
        raise ValueError("target quota must be positive")
    lo = 2 * target + 1
    c1, c2, c3, c4 = caps
    for a1 in range(min(c1, target) + 1):
        if 4 * target - 3 * a1 < lo:
            break  # even all-quads cannot reach the window any more
        for a2 in range(min(c2, target - a1) + 1):
            for a3 in range(min(c3, target - a1 - a2) + 1):
                a4 = target - a1 - a2 - a3
                if a4 > c4:
                    continue
                t = FourTuple((a1, a2, a3, a4), target)
                if t.in_window():
                    return t
    return None


def subgraph_from_tuple(
    graph: MultipartiteGraph, tup: FourTuple
) -> tuple[MultipartiteGraph, MultipartiteGraph | None]:
    """Split the graph into the peeled subgraph and the remainder.

    Takes the first ``a_s`` parts of each size s in the graph's own part
    order.  Raises ValueError when the graph lacks the parts or the tuple
    misses the window.  The remainder is None when nothing is left.
    """
    if not tup.in_window():
        raise ValueError("tuple does not satisfy the peel window")
    hist = graph.size_histogram()
    for size in (1, 2, 3, 4):
        if tup.entries[size - 1] > hist.get(size, 0):
            raise ValueError(f"graph has too few parts of size {size}")
    want = list(tup.entries)
    taken: list[int] = []
    left: list[int] = []
    for s in graph.part_sizes:
        if 1 <= s <= 4 and want[s - 1] > 0:
            want[s - 1] -= 1
            taken.append(s)
        else:
            left.append(s)
    peeled = MultipartiteGraph(tuple(taken))
    rest = MultipartiteGraph(tuple(left)) if left else None
    return peeled, rest


@dataclass(frozen=True)
class Recipe:
    four_tuple: FourTuple
    variant: str


def _window_recipe(entries: tuple[int, int, int, int], target: int, variant: str) -> Recipe | None:
    tup = FourTuple(entries, target)
    return Recipe(tup, variant) if tup.in_window() else None


def peel_recipes(
    target: int,
    n2: int,
    n3: int,
    n4: int | None = None,
    largest_part: int = 4,
) -> list[Recipe]:
    """Closed-form valid tuples for hosts with parts of size at most
    ``largest_part``, singletons assumed plentiful.

    ``target`` is the quota to retire (odd, at least 3); n2 and n3 bound the
    spare size-2 and size-3 parts, n4 the quads (None means unbounded).
    Every returned tuple satisfies in_window().

    Three recipe shapes when quads are allowed: a single quad balanced by
    singletons and triples; a fill that consumes all n2 pairs and n3
    triples, classified by the residue of t-n2-2n3-1 mod 3; and lean
    shapes carrying at most two pairs or two triples.  With n4 unbounded
    the lean shapes alone are complete: trading three pairs, a pair plus a
    triple, or three triples for quads turns any valid tuple into a lean
    one.  Without quads the single complete shape packs as many triples as
    the bound allows.  An empty result therefore proves (for unbounded n4,
    or largest_part 3) that no valid tuple exists at all.
    """
    if target < 3 or target % 2 == 0:
        raise ValueError("recipes cover odd targets of at least 3")
    if n2 < 0 or n3 < 0 or (n4 is not None and n4 < 0):
        raise ValueError("part bounds must be nonnegative")
    if largest_part not in (3, 4):
        raise ValueError("hosts are 3- or 4-bounded")
    t = target
    out: list[Recipe] = []
    seen: set[tuple[int, int, int, int]] = set()

    def push(rec: Recipe | None) -> None:
        if rec is not None and rec.four_tuple.entries not in seen:
            seen.add(rec.four_tuple.entries)
            out.append(rec)

    if largest_part == 3:
        # excess over one vertex per part comes from pairs and triples only
        for excess in (t + 1, t + 2):
            a3 = min(n3, excess // 2)
            a2 = excess - 2 * a3
            if a2 <= n2 and excess - a3 <= t:
                push(_window_recipe((t - a2 - a3, a2, a3, 0), t, "triple-anchor"))
        return out

    room = t - n2 - 1
    if room >= 0 and (n4 is None or n4 >= 1):
        half, odd = divmod(room, 2)
        if half <= n3:
            push(_window_recipe((half + odd, n2, half, 1), t, "quad-anchor"))

    fill = t - n2 - 2 * n3 - 1
    if fill >= 0:
        m, r = divmod(fill, 3)
        cand: tuple[tuple[int, int, int, int], str] | None
        if r == 0:
            cand = ((2 * m + n3, n2, n3, m + 1), "triple-fill-r0")
        elif r == 1:
            cand = ((2 * m + 1 + n3, n2, n3, m + 1), "triple-fill-r1")
        elif n2 >= 1:
            cand = ((2 * m + 2 + n3, n2 - 1, n3, m + 2), "triple-fill-r2")
        else:
            cand = None
        if cand is not None and (n4 is None or cand[0][3] <= n4):
            push(_window_recipe(cand[0], t, cand[1]))

    for excess in (t + 1, t + 2):
        for d2, d3 in ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2)):
            if d2 > n2 or d3 > n3:
                continue
            rest = excess - d2 - 2 * d3
            if rest < 0 or rest % 3:
                continue
            a4 = rest // 3
            if n4 is not None and a4 > n4:
                continue
            if d2 + d3 + a4 > t:
                continue
            push(_window_recipe((t - d2 - d3 - a4, d2, d3, a4), t, "lean"))
    return out
