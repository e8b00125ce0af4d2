import math

import pytest

from lchoose.budget import Budget
from lchoose.lam import Lambda, phi_exact
from lchoose.search import phi_search, verify_choosable_below
from lchoose.solver import CHOOSABLE, INCONCLUSIVE, NOT_CHOOSABLE


def test_phi_search_single_two():
    report = phi_search(Lambda((2,)), 6)
    assert report.minimum == 6
    assert report.exact
    assert not report.infinite
    hits = {cell.graph.part_sizes for cell in report.witnesses()}
    assert hits == {(4, 2), (3, 3)}
    for cell in report.cells:
        assert cell.verdict.exhaustive


def test_phi_search_trivial_lambda():
    report = phi_search(Lambda((1, 1)), 8)
    assert report.infinite
    assert report.exact
    assert report.minimum is None
    assert report.cells == ()
    assert report.to_dict()["minimum"] == "infinite"
    assert phi_exact(Lambda((1, 1))) == math.inf


def test_phi_search_no_hit_below_threshold():
    report = phi_search(Lambda((2,)), 5)
    assert report.minimum is None
    assert report.exact  # nothing truncated, so the absence is conclusive
    assert all(c.verdict.status == CHOOSABLE for c in report.cells)


def test_phi_search_budget_starved():
    report = phi_search(Lambda((2,)), 6, budget_nodes=20)
    assert not report.exact
    assert any(c.verdict.status == INCONCLUSIVE for c in report.cells)


def test_verify_below_clean():
    report = verify_choosable_below(Lambda((2,)), 6)
    assert report.ok
    assert bool(report)
    assert report.blockers() == ()
    # every 2-part shape on fewer than 6 vertices shows up
    shapes = {c.graph.part_sizes for c in report.cells}
    assert (3, 2) in shapes and (2, 2) in shapes and (4, 1) in shapes


def test_verify_below_finds_blockers():
    report = verify_choosable_below(Lambda((2,)), 7)
    assert not report.ok
    bad = {c.graph.part_sizes for c in report.blockers()}
    assert bad == {(4, 2), (3, 3)}
    for c in report.blockers():
        assert c.verdict.status == NOT_CHOOSABLE


def test_verify_below_trivial_lambda():
    # every graph is colourable from lists of the all-singletons quota
    report = verify_choosable_below(Lambda((1, 1)), 8)
    assert report.ok and bool(report)
    assert report.cells == () and report.blockers() == ()
    assert report.to_dict() == {"lambda": [1, 1], "below": 8, "ok": True, "cells": []}


def test_verify_below_budget_starved():
    report = verify_choosable_below(Lambda((2,)), 6, budget_nodes=20)
    assert not report.ok
    assert any(c.verdict.status == INCONCLUSIVE for c in report.cells)


@pytest.mark.parametrize("threads", [1, 2])
def test_phi_search_seconds_budget_reaches_every_cell(threads):
    # a zero clock stops each cell at its first clock reading, node 1,024,
    # in the pool's workers as well: the cells a 1,023-node budget starves
    # the 7- and 8-vertex cells of the single quota 3 walk past that node
    report = phi_search(Lambda((3,)), 8, budget_seconds=0, threads=threads)
    nodes = phi_search(Lambda((3,)), 8, budget_nodes=1023)
    assert not report.exact and report.minimum is None
    starved = [c.graph.part_sizes for c in report.cells if not c.verdict.exhaustive]
    assert starved == [c.graph.part_sizes for c in nodes.cells if not c.verdict.exhaustive]
    assert len(starved) >= 3
    for c in report.cells:
        assert c.verdict.exhaustive or c.verdict.reason == "budget exhausted"


def test_threads_match_sequential():
    seq = phi_search(Lambda((2,)), 6, threads=1)
    par = phi_search(Lambda((2,)), 6, threads=2)
    assert seq.minimum == par.minimum
    assert [(c.graph.part_sizes, c.verdict.status) for c in seq.cells] == [
        (c.graph.part_sizes, c.verdict.status) for c in par.cells
    ]


def test_pool_never_outnumbers_its_cells(monkeypatch):
    sizes = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor: records the size, runs in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    report = verify_choosable_below(Lambda((2,)), 5, threads=10**6)
    assert report.ok and len(report.cells) == 4
    assert sizes == [4]
    phi_search(Lambda((2,)), 4, threads=10**6)
    assert sizes == [4, 2]  # levels n=2 and n=3 hold one cell each and run in-process


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(threads):
    with pytest.raises(ValueError):
        phi_search(Lambda((2,)), 4, threads=threads)
    with pytest.raises(ValueError):
        verify_choosable_below(Lambda((2,)), 4, threads=threads)
    with pytest.raises(ValueError):
        verify_choosable_below(Lambda((1, 1)), 4, threads=threads)  # trivial quota


def test_report_dict_shapes():
    d = phi_search(Lambda((2,)), 6).to_dict()
    assert d["lambda"] == [2]
    assert d["minimum"] == 6
    assert d["exact"] is True
    assert all({"parts", "status", "exhaustive"} <= set(c) for c in d["cells"])
    b = verify_choosable_below(Lambda((2,)), 6).to_dict()
    assert b["ok"] is True
    assert b["below"] == 6


def test_budget_object_counts():
    b = Budget(max_nodes=5)
    assert all(b.tick() for _ in range(5))
    assert not b.tick()
    assert b.exhausted


@pytest.mark.parametrize("limits", [
    {"max_nodes": True}, {"max_nodes": 2.5}, {"max_nodes": "3"}, {"max_nodes": -1},
    {"max_seconds": True}, {"max_seconds": "1"}, {"max_seconds": float("nan")},
    {"max_seconds": -0.5},
])
def test_budget_refuses_limits_that_are_not_numbers(limits):
    # a bool would count as 1, a float node limit would floor, and nan
    # would never expire
    with pytest.raises(ValueError):
        Budget(**limits)


@pytest.mark.parametrize("seconds", [10**400, math.inf])
def test_budget_past_the_float_range_sets_no_deadline(seconds):
    # the CLI parses --budget-seconds 1e400 to inf, and an int limit that
    # overflows a float means the same: run to completion
    b = Budget(max_seconds=seconds)
    assert all(b.tick() for _ in range(2048))
    assert not b.exhausted


def test_budget_zero_seconds_expires():
    b = Budget(max_seconds=0)
    # the clock is read every 1024 ticks
    assert not all(b.tick() for _ in range(1024))
    assert b.exhausted
    with pytest.raises(ValueError):
        Budget(max_seconds=-1)
