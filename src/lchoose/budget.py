"""Search budgets: node counts are the reproducible primary limit, wall clock
is advisory (checked coarsely so reruns with the same node budget agree)."""

from __future__ import annotations

import sys
import time

from .lam import integers


class Budget:
    __slots__ = ("max_nodes", "max_seconds", "nodes", "_deadline", "exhausted")

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        # a bool would count as one, a float node limit would floor, nan never expires
        if max_nodes is not None and integers((max_nodes,), "max_nodes")[0] < 0:
            raise ValueError("max_nodes must be nonnegative")
        if max_seconds is not None and not (type(max_seconds) in (int, float) and max_seconds >= 0):
            raise ValueError(f"max_seconds must be a nonnegative number: {max_seconds!r}")
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        # inf, and an int limit past the float range, set no deadline
        finite = max_seconds is not None and max_seconds < sys.float_info.max
        self._deadline = time.monotonic() + max_seconds if finite else None
        self.exhausted = False

    def tick(self) -> bool:
        """Account one search node: a state the orbit walk enters (a child its
        parent rules out costs none) or a row tuple the miss-vector enumerator
        tries.  False once the budget is spent."""
        if self.exhausted:
            return False
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self.exhausted = True
        elif (
            self._deadline is not None
            and self.nodes % 1024 == 0
            and time.monotonic() > self._deadline
        ):
            self.exhausted = True
        return not self.exhausted

    def __repr__(self) -> str:
        return f"Budget(max_nodes={self.max_nodes}, max_seconds={self.max_seconds}, nodes={self.nodes})"
