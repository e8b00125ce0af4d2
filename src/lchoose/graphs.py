"""Complete multipartite graphs given by their part-size vector.

Vertices are numbered part by part: part 0 holds vertices ``0..s0-1``, part 1
the next ``s1``, and so on.  Two vertices are adjacent iff they lie in
different parts, so the part vector is the whole graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


@dataclass(frozen=True)
class MultipartiteGraph:
    """Complete multipartite graph; part sizes normalised to descending order."""

    part_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            sizes = tuple(sorted((int(s) for s in self.part_sizes), reverse=True))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"part sizes must be integers: {self.part_sizes!r}") from exc
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
    only, so ``add`` is exact as a zeta transform over each part's share of
    the colour's type (Bjorklund, Husfeldt & Koivisto, SIAM J. Comput. 2009).
    """

    EMPTY = 1  # just the empty set

    def __init__(self, graph: MultipartiteGraph):
        n = graph.n
        self.full = (1 << n) - 1
        self._part_masks = tuple(((1 << len(p)) - 1) << p.start for p in graph.parts)
        # without[v], the subsets missing v, by the 0x00FF -> 0x0F0F ladder
        without = [(1 << (1 << (n - 1))) - 1]
        for v in range(n - 1, 0, -1):
            without.append(without[-1] ^ without[-1] << (1 << v >> 1))
        self._without = tuple(reversed(without))

    def add(self, family: int, type_mask: int) -> int:
        """The family once a colour on the vertices of ``type_mask`` joins."""
        out = family
        for part in self._part_masks:
            t = type_mask & part
            g = family
            while t:
                low = t & -t
                g |= (g & self._without[low.bit_length() - 1]) << low
                t ^= low
            out |= g
        return out


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
