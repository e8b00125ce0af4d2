"""Acceptance gate.

One test per headline behaviour, each with a wall-clock tolerance.  These
run the real machinery end to end; the per-module suites cover the parts.
"""

import random
import time
from itertools import product

from helpers import colouring_micro_grid, colouring_random_corpus, naive_colouring_exists

from lchoose.budget import Budget
from lchoose.bundles import bundle_lemma1_grid, bundle_phi2, bundle_tuple_audit, k42_block_sizes
from lchoose.constructions import (
    ThreesFamilyEnumerator,
    build_bad_k42,
    parity_obstruction_check,
    random_threes_candidate,
)
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda, phi_bounds, phi_exact, precedes
from lchoose.reduction import FourTuple, peel_recipes
from lchoose.solver import CHOOSABLE, find_colouring, is_choosable


class Clock:
    def __init__(self, criterion: str, limit: float):
        self.criterion = criterion
        self.limit = limit
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"[acceptance] {self.criterion}: PASS in {elapsed:.1f}s (limit {self.limit:.0f}s)")
        assert elapsed <= self.limit, f"{self.criterion} exceeded {self.limit}s"


def test_criterion_1_smallest_refuted_size_for_quota_two():
    clock = Clock("criterion 1 (phi of quota 2 is 6, both witnesses refuted)", 300)
    payload = bundle_phi2()
    assert payload["ok"] is True
    assert payload["phi"] == 6
    assert payload["below"]["ok"] is True
    assert set(payload["witnesses"]) == {"4,2", "3,3"}
    for verdict in payload["witnesses"].values():
        assert verdict["status"] == "NOT_CHOOSABLE"
        assert verdict["exhaustive"] is True
        assert verdict["counterexample"] is not None
    clock.done()


def test_criterion_2_gadget_grid_refuted():
    clock = Clock("criterion 2 (upper-bound gadget refutes its quota on the grid)", 600)
    payload = bundle_lemma1_grid()
    assert payload["ok"] is True
    rows = payload["instances"]
    assert [tuple(r["lambda"]) for r in rows] == [(1, 3), (1, 2, 3), (1, 1, 3)]
    for row in rows:
        assert row["colourable"] is False
    clock.done()


def test_criterion_3_parity_obstruction_families():
    clock = Clock("criterion 3 (odd quotas admit no partition on either family)", 600)

    def family(k: int, threes_budget: int | None, rng=None, random_count: int = 0):
        out = []
        for sizes in k42_block_sizes(k):
            out.append(build_bad_k42(k, sizes))
        if rng is None:
            enum = ThreesFamilyEnumerator(
                k, Budget(max_nodes=threes_budget) if threes_budget else None
            )
            out.extend((c.graph, c.assignment) for c in enum)
        else:
            for _ in range(random_count):
                c = random_threes_candidate(k, rng)
                out.append((c.graph, c.assignment))
        return out

    # total quota 2: both families in full, the lone odd multiset is (1,1)
    for graph, assignment in family(2, threes_budget=None):
        assert find_colouring(graph, assignment) is None
        assert parity_obstruction_check(graph, assignment, Lambda((1, 1)))
        assert parity_obstruction_check(graph, assignment, Lambda((1, 1)), force_search=True)

    # total quota 4: the full search must come up empty for 1+3 on every
    # instance, and the fast answer must agree; the other odd multisets get
    # the structural answer
    instances4 = family(4, threes_budget=1200)
    assert len(instances4) >= 3 + 18
    for graph, assignment in instances4:
        assert find_colouring(graph, assignment) is None
        assert parity_obstruction_check(graph, assignment, Lambda((1, 3)))
        assert parity_obstruction_check(graph, assignment, Lambda((1, 3)), force_search=True)
        for parts in ((1, 1, 2), (1, 1, 1, 1)):
            assert parity_obstruction_check(graph, assignment, Lambda(parts))

    # total quota 6: four block triples plus sixteen seeded random
    # miss-vector candidates, all blocked for 3+3
    rng = random.Random(2026)
    instances6 = family(6, threes_budget=None, rng=rng, random_count=16)
    assert len(instances6) == 20
    searched = 0
    for i, (graph, assignment) in enumerate(instances6):
        assert find_colouring(graph, assignment) is None
        assert parity_obstruction_check(graph, assignment, Lambda((3, 3)))
        if i in (0, 4):  # first of each family gets the full search too
            assert parity_obstruction_check(
                graph, assignment, Lambda((3, 3)), force_search=True
            )
            searched += 1
    assert searched == 2
    clock.done()


def test_criterion_4_tuple_finder_matches_brute_force():
    clock = Clock("criterion 4 (peel-tuple finder equals brute force on 4802 cap cells)", 60)
    payload = bundle_tuple_audit()
    assert payload["finder_cases"] == 4802
    assert payload["finder_mismatches"] == []
    assert payload["ok"] is True
    clock.done()


def test_criterion_5_recipe_formulas_complete():
    clock = Clock("criterion 5 (closed-form peel recipes valid and complete)", 60)
    for target in (3, 5, 7):
        valid = [
            t
            for entries in product(range(target + 1), repeat=4)
            if (t := FourTuple(entries, target)).in_window()
        ]
        for n2 in range(target - 1):
            for n3 in range(5):
                for largest in (4, 3):
                    recs = peel_recipes(target, n2, n3, largest_part=largest)
                    for r in recs:
                        t = r.four_tuple
                        assert t.in_window()
                        assert t.entries[1] <= n2 and t.entries[2] <= n3
                        assert largest == 4 or t.entries[3] == 0
                    exists = any(
                        t.entries[1] <= n2
                        and t.entries[2] <= n3
                        and (largest == 4 or t.entries[3] == 0)
                        for t in valid
                    )
                    assert bool(recs) == exists, (target, n2, n3, largest)
    clock.done()


def _partitions(total: int):
    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(total, total, [])


def test_criterion_6_size_formula_coherence():
    clock = Clock("criterion 6 (size formulas agree on all nontrivial quotas up to 12)", 1)
    checked = 0
    for total in range(1, 13):
        for parts in _partitions(total):
            lam = Lambda(parts)
            if lam.is_trivial:
                continue
            checked += 1
            k, ones, odd = lam.total, lam.m_one, lam.m_odd
            exact = phi_exact(lam)
            assert exact == min(2 * k + odd + 2, 2 * k + 3 * ones + 3)
            lo, hi = phi_bounds(lam)
            assert lo == 2 * k + ones + 2
            assert hi == min(2 * k + odd + 2, 2 * k + 5 * ones + 3)
            assert lo <= exact <= hi
    assert checked == 259
    clock.done()


def test_criterion_7_list_colouring_solver_vs_brute_force():
    clock = Clock("criterion 7 (solver equals brute force, random and exhaustive)", 300)
    for graph, assignment in colouring_random_corpus(seed=777):
        n = graph.n
        got = find_colouring(graph, assignment)
        want = naive_colouring_exists(graph, assignment)
        assert (got is not None) == want
        if got is not None:
            pick = got.colour_of
            for u in range(n):
                assert assignment.masks[u] >> pick[u] & 1
                for v in range(u + 1, n):
                    assert not (graph.adjacent(u, v) and pick[u] == pick[v])

    # exhaustive micro grid: every shape on up to 4 vertices, every list
    # tuple over a universe of up to 3 colours whose union is the full set
    cases = 0
    for graph, assignment in colouring_micro_grid():
        got = find_colouring(graph, assignment)
        want = naive_colouring_exists(graph, assignment)
        assert (got is not None) == want, (graph.part_sizes, assignment)
        cases += 1
    assert cases > 10_000
    clock.done()


def test_criterion_8_quota_order_monotonicity():
    clock = Clock("criterion 8 (finer quotas never lose choosability)", 900)
    suites = {
        2: [Lambda((2,)), Lambda((1, 1))],
        3: [Lambda((3,)), Lambda((1, 2)), Lambda((1, 1, 1))],
    }
    for q, lams in suites.items():
        verdicts: dict[tuple[tuple[int, ...], Lambda], str] = {}
        for n in range(q, 7):
            for sizes in part_vectors(n, q):
                graph = MultipartiteGraph(sizes)
                for lam in lams:
                    v = is_choosable(graph, lam)
                    assert v.exhaustive, (sizes, lam)
                    verdicts[sizes, lam] = v.status
        for lam, finer in product(lams, lams):
            if lam == finer or not precedes(lam, finer):
                continue
            for n in range(q, 7):
                for sizes in part_vectors(n, q):
                    if verdicts[sizes, lam] == CHOOSABLE:
                        assert verdicts[sizes, finer] == CHOOSABLE, (sizes, lam, finer)
    clock.done()
