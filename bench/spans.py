"""In-memory spans around the public functions of ``lchoose``.

The spans are recorded from outside the package: ``patched`` swaps module
attributes for timing wrappers and puts the originals back on exit.  Each
span keeps its name, start, end, parent span and one outcome flag; a layer's
self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

from lchoose import assignment, constructions, search, solver


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.counts: Counter = Counter()
        self.stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.flag.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(i)
        return i

    def close(self, i: int, flag: bool = False) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()
        self.flag[i] = flag

    def wrap(self, name: str, fn, flag=lambda result: False):
        """``fn`` recorded as span ``name``; ``flag(result)`` is kept per span."""

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(i)
                raise
            self.close(i, bool(flag(result)))
            return result

        return traced

    def inside(self, name: str) -> bool:
        top = self.stack[-1]
        return top >= 0 and self.names[self.name_of[top]] == name

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, flagged calls and
        calls that opened at least one child span."""
        n = len(self.start)
        child_s = [0.0] * n
        has_child = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
                has_child[p] = 1
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flagged": 0, "with_child": 0}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_s[i]
            row["flagged"] += self.flag[i]
            row["with_child"] += has_child[i]
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: id, name, parent, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


@contextmanager
def patched(spans: Spans):
    """Route the calls that the workloads and the library make into each
    layer through span wrappers, for the duration of the block."""
    find_colouring = solver.find_colouring
    make_oracle = solver.make_colourability_oracle
    vertex_group = assignment.vertex_group

    def traced_oracle_factory(graph):
        return spans.wrap("solver.oracle", make_oracle(graph), flag=bool)

    def counted_vertex_group(part_sizes):
        # the walk's leaf canonicalisation is private; each leaf check
        # fetches the group once, straight from the cell's frame
        if spans.inside("solver.is_choosable"):
            spans.counts["assignment.canonical.leaf_checks"] += 1
        return vertex_group(part_sizes)

    swaps = [
        (solver, "find_colouring",
         spans.wrap("solver.find_colouring", find_colouring, flag=lambda r: r is not None)),
        (solver, "make_colourability_oracle", traced_oracle_factory),
        (assignment, "vertex_group", counted_vertex_group),
        (constructions, "canonical_key",
         spans.wrap("assignment.canonical_key", constructions.canonical_key)),
        (constructions, "is_lambda_assignment",
         spans.wrap("assignment.is_lambda_assignment", constructions.is_lambda_assignment,
                    flag=lambda r: r is not None)),
        (constructions, "parity_obstruction_check",
         spans.wrap("constructions.parity_obstruction_check",
                    constructions.parity_obstruction_check)),
        (search, "is_choosable", spans.wrap("solver.is_choosable", search.is_choosable)),
        (search, "phi_search", spans.wrap("search.phi_search", search.phi_search)),
        (search, "verify_choosable_below",
         spans.wrap("search.verify_choosable_below", search.verify_choosable_below)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in swaps]
    try:
        for module, attr, wrapper in swaps:
            setattr(module, attr, wrapper)
        yield spans
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
