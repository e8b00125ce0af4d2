"""Quota multisets and the closed-form minimum orders.

A quota multiset assigns a positive integer quota to each colour class of a
list assignment.  ``Lambda`` stores the multiset sorted ascending; the module
also provides the refinement order, the monotonicity order ``precedes``, and
the exact/bounding formulas for the minimum number of vertices of a graph of
matching chromatic number that fails to be choosable for the multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITE = math.inf


def integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of plain ints; anything else raises ValueError.

    bool is an int subclass, and ``int()`` would floor a float or parse a
    string, so each of those is refused rather than converted.
    """
    try:
        out = tuple(values)
        if all(type(x) is int for x in out):
            return out
    except TypeError:
        pass
    raise ValueError(f"{what} must be integers: {values!r}")


@dataclass(frozen=True)
class Lambda:
    """Multiset of positive integer quotas, normalised to ascending order."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        ps = tuple(sorted(integers(self.parts, "quota parts")))
        if not ps:
            raise ValueError("quota multiset must be nonempty")
        if ps[0] < 1:
            raise ValueError(f"quota parts must be >= 1, got {ps[0]}")
        object.__setattr__(self, "parts", ps)

    @classmethod
    def parse(cls, text: str) -> "Lambda":
        """Parse ``entry("," entry)*`` where ``entry := INT | INT "*" INT``.

        ``v*m`` abbreviates m copies of v, so ``"2*3"`` parses to [2, 2, 2].
        Raises ValueError on malformed tokens, values < 1 or repeats < 1.
        """
        parts: list[int] = []
        for token in text.split(","):
            tok = token.strip()
            value_s, star, count_s = tok.partition("*")
            try:
                value = int(value_s)
                count = int(count_s) if star else 1
            except ValueError:
                raise ValueError(f"bad quota token {tok!r}") from None
            if count < 1:
                raise ValueError(f"bad repeat count in {tok!r}")
            parts.extend([value] * count)
        return cls(tuple(parts))

    @property
    def total(self) -> int:
        """Sum of all quotas; the list size the multiset budgets for."""
        return sum(self.parts)

    @property
    def size(self) -> int:
        return len(self.parts)

    @property
    def m_one(self) -> int:
        return self.multiplicity(1)

    @property
    def m_odd(self) -> int:
        return sum(1 for p in self.parts if p % 2)

    def multiplicity(self, value: int) -> int:
        return self.parts.count(value)

    @property
    def is_trivial(self) -> bool:
        """All quotas equal 1; choosability then degenerates to colourability."""
        return self.parts[-1] == 1

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def refines(fine: Lambda, coarse: Lambda) -> bool:
    """True iff fine's parts group into coarse.size blocks summing to coarse's parts."""
    if fine.total != coarse.total or fine.size < coarse.size:
        return False
    return _blocks_exist(fine.parts, coarse.parts, exact=True)


def precedes(lam: Lambda, other: Lambda) -> bool:
    """The order on quota multisets along which choosability is monotone.

    ``lam`` precedes ``other`` iff ``other`` refines some multiset obtained
    from ``lam`` by increasing parts.  Equivalently: ``other``'s parts contain
    ``lam.size`` disjoint groups whose sums dominate ``lam``'s parts under
    some matching (leftover parts can always be absorbed into a group, which
    only raises its sum).
    """
    if other.size < lam.size or other.total < lam.total:
        return False
    return _blocks_exist(other.parts, lam.parts, exact=False)


def _blocks_exist(items: tuple[int, ...], targets: tuple[int, ...], exact: bool) -> bool:
    # Bitmask DFS: one disjoint group of `items` per target, largest target
    # first.  `exact` demands equal sums (refinement); otherwise a group just
    # has to reach its target.
    p = len(items)
    if p > 16:
        raise ValueError("multiset too large for the exhaustive order check")
    order = sorted(targets, reverse=True)
    full = (1 << p) - 1
    subset_sum = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        subset_sum[mask] = subset_sum[mask ^ low] + items[low.bit_length() - 1]
    dead: set[tuple[int, int]] = set()

    def rec(ti: int, used: int) -> bool:
        if ti == len(order):
            return (not exact) or used == full
        if (ti, used) in dead:
            return False
        free = full & ~used
        want = order[ti]
        sub = free
        while sub:
            s = subset_sum[sub]
            if (s == want if exact else s >= want) and rec(ti + 1, used | sub):
                return True
            sub = (sub - 1) & free
        dead.add((ti, used))
        return False

    return rec(0, 0)


def phi_exact(lam: Lambda) -> int | float:
    """Minimum order of a non-choosable graph whose chromatic number is lam.total.

    INFINITE for trivial multisets (every graph of chromatic number k is
    k-colourable from any such lists); otherwise
    ``min(2k + m_odd + 2, 2k + 3*m_one + 3)`` with ``k = lam.total``.
    """
    if lam.is_trivial:
        return INFINITE
    k = lam.total
    return min(2 * k + lam.m_odd + 2, 2 * k + 3 * lam.m_one + 3)


def phi_bounds(lam: Lambda) -> tuple[int, int]:
    """Coarser (lower, upper) sandwich that phi_exact always respects.

    lower = 2k + m_one + 2, upper = min(2k + m_odd + 2, 2k + 5*m_one + 3).
    Raises ValueError for trivial multisets, where no finite value exists.
    """
    if lam.is_trivial:
        raise ValueError("bounds are undefined for trivial multisets")
    k = lam.total
    lower = 2 * k + lam.m_one + 2
    upper = min(2 * k + lam.m_odd + 2, 2 * k + 5 * lam.m_one + 3)
    return lower, upper
