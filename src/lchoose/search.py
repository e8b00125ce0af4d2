"""Vertex-count search for the smallest non-choosable shape.

Among complete multipartite graphs, the chromatic number is the number of
parts, so the candidates for a given quota multiset are exactly the part
vectors with one part per unit of total quota.  The search sweeps vertex
counts upward, examines every candidate shape at each count, and stops at
the first count carrying a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget
from .graphs import MultipartiteGraph, part_vectors
from .lam import Lambda
from .solver import CHOOSABLE, NOT_CHOOSABLE, Verdict, is_choosable


@dataclass(frozen=True)
class CellResult:
    graph: MultipartiteGraph
    verdict: Verdict

    def to_dict(self) -> dict:
        return {"parts": list(self.graph.part_sizes), **self.verdict.to_dict()}


# a cell job: part sizes, quotas, and the cell's node and seconds budgets
Job = tuple[tuple[int, ...], tuple[int, ...], int | None, float | None]


def _sweep_jobs(lam: Lambda, levels, budget_nodes: int | None,
                budget_seconds: float | None) -> list[Job]:
    """Per vertex count in ``levels``, one job per shape with one part per unit of quota."""
    return [(sizes, lam.parts, budget_nodes, budget_seconds)
            for n in levels for sizes in part_vectors(n, lam.total)]


def _cell_worker(job: Job) -> CellResult:
    sizes, parts, budget_nodes, budget_seconds = job
    graph = MultipartiteGraph(sizes)
    lam = Lambda(parts)
    verdict = is_choosable(graph, lam, Budget(max_nodes=budget_nodes, max_seconds=budget_seconds))
    return CellResult(graph, verdict)


def _run_cells(jobs: list[Job], threads: int) -> list[CellResult]:
    if threads <= 1 or len(jobs) <= 1:
        return [_cell_worker(j) for j in jobs]
    from concurrent.futures import ProcessPoolExecutor  # so runs without a pool never load it
    # a forked pool starts every worker at once, wanted or not
    with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
        return list(pool.map(_cell_worker, jobs))


@dataclass(frozen=True)
class PhiSearchReport:
    """Outcome of a swept search.

    ``minimum`` is the first vertex count with a counterexample, or None.
    ``exact`` means the value is proved: every smaller count was swept
    exhaustively with all shapes choosable (or, with minimum None, every
    count up to n_max was).  ``infinite`` marks the all-singletons quota,
    for which no counterexample exists at any size.
    """

    lam: Lambda
    n_max: int
    cells: tuple[CellResult, ...]
    minimum: int | None
    exact: bool
    infinite: bool = False

    def witnesses(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.verdict.status == NOT_CHOOSABLE)

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "n_max": self.n_max,
            "minimum": "infinite" if self.infinite else self.minimum,
            "exact": self.exact,
            "cells": [c.to_dict() for c in self.cells],
        }


def phi_search(
    lam: Lambda,
    n_max: int,
    budget_nodes: int | None = None,
    threads: int = 1,
    budget_seconds: float | None = None,
) -> PhiSearchReport:
    """Sweep vertex counts from the quota total up to ``n_max``.

    Finishes the whole level where the first counterexample appears (so all
    witnesses at the minimum count are reported), then stops.  The
    all-singletons quota short-circuits: every shape is choosable for it.
    ``budget_nodes`` and ``budget_seconds`` bound each cell on its own.
    Raises ValueError when ``threads`` is below 1.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if lam.is_trivial:
        return PhiSearchReport(lam, n_max, (), None, True, infinite=True)
    cells: list[CellResult] = []
    clean = True  # no inconclusive cell seen so far
    for n in range(lam.total, n_max + 1):
        level = _run_cells(_sweep_jobs(lam, [n], budget_nodes, budget_seconds), threads)
        cells.extend(level)
        if any(c.verdict.status == NOT_CHOOSABLE for c in level):
            return PhiSearchReport(lam, n_max, tuple(cells), n, clean)
        clean = clean and all(c.verdict.exhaustive for c in level)
    return PhiSearchReport(lam, n_max, tuple(cells), None, clean)


@dataclass(frozen=True)
class BelowReport:
    """Proof attempt that every shape below a vertex count is choosable."""

    lam: Lambda
    n: int
    cells: tuple[CellResult, ...]
    ok: bool

    def __bool__(self) -> bool:
        return self.ok

    def blockers(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.verdict.status != CHOOSABLE)

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "below": self.n,
            "ok": self.ok,
            "cells": [c.to_dict() for c in self.cells],
        }


def verify_choosable_below(
    lam: Lambda,
    n: int,
    budget_nodes: int | None = None,
    threads: int = 1,
) -> BelowReport:
    """Check that all shapes with fewer than ``n`` vertices are choosable.

    True only when every such cell came back CHOOSABLE, which takes an
    exhaustive walk, so the result is a genuine lower-bound certificate.
    Raises ValueError when ``threads`` is below 1.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if lam.is_trivial:
        return BelowReport(lam, n, (), True)
    # every level in one pool
    cells = _run_cells(_sweep_jobs(lam, range(lam.total, n), budget_nodes, None), threads)
    ok = all(c.verdict.status == CHOOSABLE for c in cells)
    return BelowReport(lam, n, tuple(cells), ok)
