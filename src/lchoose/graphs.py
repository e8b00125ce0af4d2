"""Complete multipartite graphs given by their part-size vector.

Vertices are numbered part by part: part 0 holds vertices ``0..s0-1``, part 1
the next ``s1``, and so on.  Two vertices are adjacent iff they lie in
different parts, so the part vector is the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import accumulate
from operator import or_
from typing import Iterator, Sequence

from .lam import integers


@dataclass(frozen=True)
class MultipartiteGraph:
    """Complete multipartite graph; part sizes normalised to descending order."""

    part_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(sorted(integers(self.part_sizes, "part sizes"), reverse=True))
        if not sizes:
            raise ValueError("graph needs at least one part")
        if sizes[-1] < 1:
            raise ValueError(f"part sizes must be >= 1, got {sizes[-1]}")
        object.__setattr__(self, "part_sizes", sizes)

    @classmethod
    def from_text(cls, text: str) -> "MultipartiteGraph":
        """Parse the comma-separated part-size form, e.g. ``"5,5,2,2"``."""
        try:
            sizes = tuple(int(tok.strip()) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad graph text {text!r}") from None
        return cls(sizes)

    @property
    def n(self) -> int:
        return sum(self.part_sizes)

    @property
    def k(self) -> int:
        """Number of parts (= chromatic number when every part is nonempty)."""
        return len(self.part_sizes)

    @cached_property
    def parts(self) -> tuple[range, ...]:
        out = []
        start = 0
        for s in self.part_sizes:
            out.append(range(start, start + s))
            start += s
        return tuple(out)

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        table = []
        for i, s in enumerate(self.part_sizes):
            table.extend([i] * s)
        return tuple(table)

    def adjacent(self, u: int, v: int) -> bool:
        return self.part_of[u] != self.part_of[v]

    def size_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for s in self.part_sizes:
            hist[s] = hist.get(s, 0) + 1
        return hist

    def text(self) -> str:
        return ",".join(str(s) for s in self.part_sizes)

    def __str__(self) -> str:
        return self.text()


class ColourableSets:
    """The vertex sets of ``graph`` that a growing pool of colours can colour.

    A family is a 2**n-bit integer: bit W is set iff the vertex set W can be
    properly coloured from the colours so far.  A colour serves one part
    only, so joining it is exact as a zeta transform over each part's share
    of its type (Bjorklund, Husfeldt & Koivisto, SIAM J. Comput. 2009), which
    ``shares`` tables for every type inside a mask at once.
    """

    EMPTY = 1  # just the empty set

    def __init__(self, graph: MultipartiteGraph):
        n = graph.n
        self.full = (1 << n) - 1
        self._part_masks = tuple(((1 << len(p)) - 1) << p.start for p in graph.parts)
        self._without = without = subsets_without(n)
        every = (1 << (1 << n)) - 1
        holding = [every ^ w for w in without]  # per vertex, the sets holding it
        self._steps = []  # _steps[v][d]: v's peel step under demand d <= n, built once
        for part in graph.parts:  # one table per part: its vertices share their neighbours
            slices = [every]  # slices[j]: the sets that leave its vertices j neighbours outside
            for u in filter(partial(graph.adjacent, part.start), range(n)):
                slices = [a & ~without[u] | b & without[u] for a, b in zip(slices + [0], [0] + slices)]
            # peels[d]: the sets that leave its vertices fewer than d neighbours outside
            peels = [0, *accumulate(slices + [0] * (n - len(slices)), or_)]
            self._steps += [[(holding[v], 1 << v, ok) for ok in peels] for v in part]

    def shares(self, family: int, rem: int) -> list[tuple[int, dict[int, int]]]:
        """Per part P meeting ``rem``, P's mask and its share table: per
        submask t of ``rem & P``, the family once a colour on t joins.  Each
        entry is one shift-and from the entry without t's lowest vertex."""
        out = []
        for part in self._part_masks:
            if r := rem & part:
                table, t = {0: family}, 0
                while t := (t - r) & r:  # the submasks of r, ascending
                    low = t & -t
                    g = table[t ^ low]
                    table[t] = g | (g & self._without[low.bit_length() - 1]) << low
                out.append((part, table))
        return out

    def add(self, family: int, type_mask: int) -> int:
        """The family once a colour on the vertices of ``type_mask`` joins."""
        shares = self.shares(family, type_mask)
        return reduce(or_, (table[type_mask & part] for part, table in shares), family)

    def complements(self, f: Sequence[int]) -> int:
        """E(f): per demand vector f, the family of the vertex sets W whose
        complement peels to nothing, removing while it can a vertex v of the
        remainder U with ``f[v] > |U \\ P(v)|``.  Lists of ``f[v]`` colours
        then colour V \\ W greedily in reverse order (Erdos, Rubin & Taylor
        1979).  Peeling only lowers degrees, so its order is free: E(f) grows
        from {V} by shift-and rounds, W joining once W + v has and v may peel
        from V \\ W."""
        n = len(self._steps)
        steps = [self._steps[v][min(d, n)] for v, d in enumerate(f) if d > 0]
        family, grown = 0, 1 << self.full
        while grown != family:
            family = grown
            for has, shift, peels in steps:
                grown |= (grown & has) >> shift & peels
        return family


@cache
def subsets_without(n: int) -> tuple[int, ...]:
    """Per element e < n, the 2**n-bit family of the subsets of range(n) that
    miss e, built by the 0x00FF -> 0x0F0F ladder."""
    without = [(1 << (1 << (n - 1))) - 1]
    for e in range(n - 1, 0, -1):
        without.append(without[-1] ^ without[-1] << (1 << e >> 1))
    return tuple(reversed(without))


def part_vectors(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All descending k-part vectors summing to n, in decreasing lex order.

    Empty iterator when k > n or either argument is nonpositive.
    """
    if n < 1 or k < 1 or k > n:
        return

    def rec(remaining: int, slots: int, cap: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if 1 <= remaining <= cap:
                yield (remaining,)
            return
        hi = min(cap, remaining - (slots - 1))
        lo = -(-remaining // slots)  # ceil: keep the vector descending
        for first in range(hi, lo - 1, -1):
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(n, k, n)
