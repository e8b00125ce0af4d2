"""Named verification bundles: self-contained evidence runs for the small
facts the rest of the package leans on.

Each bundle returns a JSON-ready payload with at least ``bundle``, ``ok``
and ``inconclusive``.  ``ok`` asserts every checked fact held; setting
``inconclusive`` instead of failing marks runs cut short by a budget.
"""

from __future__ import annotations

from itertools import product

from .budget import Budget
from .constructions import (
    StructureError,
    ThreesFamilyEnumerator,
    build_bad_k42,
    build_gadget,
    exception_graphs,
    parity_obstruction_check,
    verify_gadget,
)
from .assignment import is_lambda_assignment
from .lam import Lambda
from .reduction import FourTuple, find_reducible_4tuple, peel_recipes
from .search import verify_choosable_below
from .solver import CHOOSABLE, INCONCLUSIVE, NOT_CHOOSABLE, find_colouring, is_choosable


def k42_block_sizes(k: int) -> list[tuple[int, int, int]]:
    """All block-size triples accepted by build_bad_k42 at list size k."""
    if k < 2 or k % 2:
        raise ValueError("total quota must be even and at least 2")
    half = k // 2
    return [(s1, half - s1, half) for s1 in range(half + 1)]


def bundle_phi2(threads: int = 1, budget_nodes: int | None = None) -> dict:
    """Pin the smallest non-choosable shape for the single quota 2 at six
    vertices: both six-vertex exception shapes fail, everything smaller
    passes exhaustively."""
    lam = Lambda((2,))
    below = verify_choosable_below(lam, 6, budget_nodes=budget_nodes, threads=threads)
    g1, g2 = exception_graphs(2)
    verdicts = {g.text(): is_choosable(g, lam, Budget(max_nodes=budget_nodes)) for g in (g1, g2)}
    witnesses_ok = all(v.status == NOT_CHOOSABLE for v in verdicts.values())
    ok = below.ok and witnesses_ok
    # a refuted fact is a hard failure; a budget-starved run is merely open
    hard_fail = any(c.verdict.status == NOT_CHOOSABLE for c in below.cells) or any(
        v.status == CHOOSABLE for v in verdicts.values()
    )
    truncated = any(not c.verdict.exhaustive for c in below.cells) or any(
        v.status == INCONCLUSIVE for v in verdicts.values()
    )
    return {
        "bundle": "phi2-exhaustive",
        "ok": ok,
        "inconclusive": bool(not ok and not hard_fail and truncated),
        "phi": 6 if ok else None,
        "below": below.to_dict(),
        "witnesses": {name: v.to_dict() for name, v in verdicts.items()},
    }


_GRID = ((1, 0, 1), (1, 1, 1), (2, 0, 1))


def bundle_lemma1_grid(threads: int = 1, budget_nodes: int | None = None) -> dict:
    """Build and fully re-verify the upper-bound gadget on a small grid of
    quota shapes (ones, twos, threes)."""
    rows = []
    ok = True
    for ones, twos, threes in _GRID:
        inst = build_gadget(ones, twos, threes)
        row = {"ones": ones, "twos": twos, "threes": threes, "lambda": list(inst.lam.parts)}
        try:
            report = verify_gadget(inst)
            row.update(report)
            row["ok"] = not report["colourable"]
        except StructureError as exc:
            row["ok"] = False
            row["error"] = str(exc)
        ok = ok and row["ok"]
        rows.append(row)
    return {
        "bundle": "lemma1-grid",
        "ok": ok,
        "inconclusive": False,
        "instances": rows,
    }


def _parity_instances(k: int, threes_budget: int):
    """Bad instances at list size k: every four-blocks triple plus a
    budgeted slice of the miss-vector family."""
    out = []
    for sizes in k42_block_sizes(k):
        graph, assignment = build_bad_k42(k, sizes)
        out.append((f"k42{sizes}", graph, assignment))
    enum = ThreesFamilyEnumerator(k, Budget(max_nodes=threes_budget))
    for i, cand in enumerate(enum):
        out.append((f"threes[{i}]", cand.graph, cand.assignment))
    return out, enum.truncated


def bundle_parity_k4(threads: int = 1, budget_nodes: int | None = None) -> dict:
    """Parity obstruction at total quota 4.

    Every instance of both families must be non-colourable, must admit no
    quota partition for any multiset of total 4 with an odd entry (fast
    structural answer cross-checked by full search), and must admit one for
    the all-even multisets.
    """
    k = 4
    threes_budget = budget_nodes if budget_nodes is not None else 1200
    instances, truncated = _parity_instances(k, threes_budget)
    odd_lams = [Lambda(p) for p in ((1, 3), (1, 1, 2), (1, 1, 1, 1))]
    even_lams = [Lambda(p) for p in ((4,), (2, 2))]
    rows = []
    ok = True
    for name, graph, assignment in instances:
        row = {"instance": name, "n": graph.n, "universe": assignment.universe_size}
        row["colourable"] = find_colouring(graph, assignment) is not None
        good = not row["colourable"]
        obstructed = {}
        for lam in odd_lams:
            fast = parity_obstruction_check(graph, assignment, lam)
            slow = parity_obstruction_check(graph, assignment, lam, force_search=True)
            obstructed[str(lam)] = {"fast": fast, "search": slow}
            good = good and fast and slow
        witnessed = {}
        for lam in even_lams:
            found = is_lambda_assignment(assignment, lam) is not None
            witnessed[str(lam)] = found
            if name.startswith("k42"):
                good = good and found
        row["odd_obstructed"] = obstructed
        row["even_witnessed"] = witnessed
        row["ok"] = good
        rows.append(row)
        ok = ok and good
    return {
        "bundle": "parity-k4",
        "ok": ok,
        "inconclusive": False,
        "threes_truncated": truncated,
        "instances": rows,
    }


def _oracle_tuples(target: int) -> list[FourTuple]:
    """Every valid tuple for the target, lexicographically ascending."""
    out = []
    for a1, a2, a3, a4 in product(range(target + 1), repeat=4):
        t = FourTuple((a1, a2, a3, a4), target)
        if t.in_window():
            out.append(t)
    return out


def bundle_tuple_audit(threads: int = 1, budget_nodes: int | None = None) -> dict:
    """Audit the peel machinery against brute force.

    Phase one: the cap-bounded tuple finder agrees with a from-scratch
    enumeration on all 7^4 cap vectors for two targets.  Phase two: every
    closed-form recipe lands in the window, respects its bounds, and the
    recipe list is empty exactly when no valid tuple exists.
    """
    mismatches = []
    cases = 0
    for target in (3, 5):
        valid = _oracle_tuples(target)
        for caps in product(range(7), repeat=4):
            cases += 1
            got = find_reducible_4tuple(caps, target)
            want = None
            for t in valid:
                if all(a <= c for a, c in zip(t.entries, caps)):
                    want = t
                    break
            if got != want:
                mismatches.append({"target": target, "caps": list(caps)})
    recipe_rows = []
    recipes_ok = True
    for target in (3, 5, 7):
        for n2 in range(target - 1):
            for n3 in range(5):
                for largest in (4, 3):
                    recs = peel_recipes(target, n2, n3, largest_part=largest)
                    caps = (
                        2 * target + 2,
                        n2,
                        n3,
                        (2 * target + 2) if largest == 4 else 0,
                    )
                    exists = find_reducible_4tuple(caps, target) is not None
                    cell_ok = (len(recs) > 0) == exists and all(
                        r.four_tuple.in_window()
                        and r.four_tuple.entries[1] <= n2
                        and r.four_tuple.entries[2] <= n3
                        and (largest == 4 or r.four_tuple.entries[3] == 0)
                        for r in recs
                    )
                    recipes_ok = recipes_ok and cell_ok
                    recipe_rows.append(
                        {
                            "target": target,
                            "n2": n2,
                            "n3": n3,
                            "largest_part": largest,
                            "recipes": [
                                {"entries": list(r.four_tuple.entries), "variant": r.variant}
                                for r in recs
                            ],
                            "ok": cell_ok,
                        }
                    )
    ok = not mismatches and recipes_ok
    return {
        "bundle": "tuple-audit",
        "ok": ok,
        "inconclusive": False,
        "finder_cases": cases,
        "finder_mismatches": mismatches,
        "recipe_cells": recipe_rows,
    }


BUNDLES = {
    "phi2-exhaustive": bundle_phi2,
    "lemma1-grid": bundle_lemma1_grid,
    "parity-k4": bundle_parity_k4,
    "tuple-audit": bundle_tuple_audit,
}


def run_bundle(name: str, threads: int = 1, budget_nodes: int | None = None) -> dict:
    if name not in BUNDLES:
        raise KeyError(name)
    return BUNDLES[name](threads=threads, budget_nodes=budget_nodes)
