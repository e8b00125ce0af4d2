"""The three workloads: seeded inputs, one closed-loop pass over them, and
the checks on every output.

A workload object builds its inputs once from the seed.  ``run`` makes one
pass over the inputs, one item after another, times each item on the
``Clock`` it is given, and returns one output per checked item.  ``check``
takes the outputs of a pass and returns one verdict per output.  The checks call the library
functions bound here at import, so they are never traced, and they lean on
frozen answers or on certificates that share no code with the program.
"""

from __future__ import annotations

import math
import random
import traceback
from itertools import combinations
from time import perf_counter

from lchoose import constructions, search, solver
from lchoose.assignment import (
    ColourPartition,
    ListAssignment,
    canonical_key,
    is_lambda_assignment,
    quota_counts,
)
from lchoose.budget import Budget
from lchoose.bundles import k42_block_sizes
from lchoose.graphs import MultipartiteGraph, part_vectors
from lchoose.lam import Lambda
from lchoose.solver import NOT_CHOOSABLE, find_colouring

# Sweep calls: (how, lambda, n).  phi_search sweeps up to n vertices and
# verify_choosable_below covers every shape below n.  Both return at once
# for an all-singletons lambda, which no shape fails, so those cells are
# decided one by one with is_choosable up to n vertices, as criterion 8 and
# ``lchoose check`` do.  The 6-vertex 3-part cells are left out: at lambda
# (1,2), (1,1,1) and (3) they take over 50 s, more than one run measures.
SWEEP = (
    ("phi_search", (2,), 6),
    ("is_choosable", (1, 1), 6),
    ("verify_choosable_below", (3,), 6),
    ("verify_choosable_below", (1, 2), 6),
    ("is_choosable", (1, 1, 1), 5),
)


def sweep_plan() -> list[tuple[str, Lambda, int, list]]:
    """Each sweep call with the (lambda, part sizes) cells it decides."""
    plan = []
    for how, parts, n in SWEEP:
        k = sum(parts)
        top = n - 1 if how == "verify_choosable_below" else n
        cells = [(parts, sizes) for m in range(k, top + 1) for sizes in part_vectors(m, k)]
        plan.append((how, Lambda(parts), n, cells))
    return plan


# Solve inputs.  Gadgets (ones, twos, threes) with at most 27 vertices and a
# universe of at most 17 colours, less (1,1,2) at 8 s; k42 block sizes at
# k=6 in full and one at k=8; seeded miss-vector
# candidates at k=6 and 8; and the criterion-7 random corpus.
GADGETS = ((1, 0, 1), (1, 0, 2), (1, 1, 1), (1, 2, 1), (2, 0, 1), (2, 0, 2),
           (2, 1, 1), (2, 2, 1), (3, 0, 1))
SOLVE_K42 = ((6, None), (8, (4,)))
SOLVE_THREES = ((6, 4), (8, 4))
CORPUS_SIZE = 10_000
CORPUS_MAX_N = 7
CORPUS_MAX_UNIVERSE = 5

# Families inputs.  Per total k: the k42 block sizes used (None = all),
# the number of seeded miss-vector candidates, the odd quotas (an
# obstruction on both families) and the even quotas (asked of the k42
# family only, where a witness always exists).  (1,2,3,4) at k=10 is left
# out at 29 s.
ENUM_K = 4
ENUM_ROWS = 200
FAMILIES = (
    (4, None, 4, ((1, 3), (1, 1, 2), (1, 1, 1, 1)), ((2, 2),)),
    (6, None, 4, ((3, 3), (1, 2, 3), (1, 1, 1, 3)), ((2, 4), (2, 2, 2))),
    (8, None, 4, ((3, 5), (1, 2, 5), (1, 1, 3, 3)), ((2, 6), (2, 2, 4))),
    (10, (0, 2, 4), 2, ((3, 7), (1, 3, 6), (1, 1, 3, 5)), ((4, 6), (2, 2, 2, 4))),
)


def _error(exc: BaseException) -> str:
    traceback.print_exception(exc)
    return f"error: {exc!r}"


def _k42(k: int, s1s) -> list[tuple[str, MultipartiteGraph, ListAssignment]]:
    out = []
    for sizes in k42_block_sizes(k):
        if s1s is None or sizes[0] in s1s:
            graph, la = constructions.build_bad_k42(k, sizes)
            out.append((f"k42 k={k} {sizes}", graph, la))
    return out


def _threes(k: int, count: int, rng: random.Random) -> list[tuple[str, MultipartiteGraph, ListAssignment]]:
    out = []
    for i in range(count):
        cand = constructions.random_threes_candidate(k, rng)
        out.append((f"threes k={k} #{i}", cand.graph, cand.assignment))
    return out


def _threes_certificate(graph: MultipartiteGraph, la: ListAssignment) -> bool:
    """Counting proof that the lists admit no proper colouring: a part of
    three vertices whose lists share no colour needs two colours, every
    other part one, parts need disjoint colours, and the universe is too
    small for that."""
    need = 0
    for part in graph.parts:
        if len(part) == 3:
            a, b, c = (la.masks[v] for v in part)
            if a & b & c:
                return False
            need += 2
        else:
            need += 1
    return la.universe_size < need


def _colourable(graph: MultipartiteGraph, masks: tuple[int, ...]) -> bool:
    """Plain backtracking over vertices; a colour belongs to one part."""
    part_of = graph.part_of
    order = sorted(range(graph.n), key=lambda v: masks[v].bit_count())
    owner: dict[int, list[int]] = {}

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        m = masks[v]
        while m:
            low = m & -m
            m ^= low
            held = owner.get(low)
            if held is None:
                owner[low] = [part_of[v], 1]
                found = rec(i + 1)
                del owner[low]
            elif held[0] == part_of[v]:
                held[1] += 1
                found = rec(i + 1)
                held[1] -= 1
            else:
                continue
            if found:
                return True
        return False

    return rec(0)


class Clock:
    """Item timer that samples the interpreter's speed between items.

    On a shared host the interpreter's speed drifts by a quarter over
    minutes, and a raw time moves with it.  Before an item starts, once
    ``every`` seconds have passed since the last sample, and once more at
    the end of the pass, the clock times one slice of a fixed reference
    computation: the plain backtracking colourer above on fixed random
    lists, which shares no code with lchoose.  ``in_slices`` then expresses
    each item's time in slices, against the mean of the slices taken just
    before and just after it.  Slices never fall inside an item's time.
    ``every=None`` takes no samples.
    """

    def __init__(self, every: float | None):
        self.every = every
        self.items: list[float] = []
        self.slices: list[float] = []
        self._slice_before: list[int] = []
        self._last = -math.inf

    def _sample(self) -> None:
        t = perf_counter()
        for graph, masks in _REFERENCE:
            _colourable(graph, masks)
        self._last = perf_counter()
        self.slices.append(self._last - t)

    def start(self) -> float:
        if self.every is not None and perf_counter() - self._last >= self.every:
            self._sample()
        return perf_counter()

    def stop(self, t: float) -> None:
        self.items.append(perf_counter() - t)
        self._slice_before.append(len(self.slices) - 1)

    def finish(self) -> None:
        if self.every is not None:
            self._sample()

    def in_slices(self) -> list[float]:
        out = []
        for t, k in zip(self.items, self._slice_before):
            out.append(2 * t / (self.slices[k] + self.slices[min(k + 1, len(self.slices) - 1)]))
        return out


def _proper(graph: MultipartiteGraph, la: ListAssignment, colour_of) -> bool:
    if len(colour_of) != graph.n:
        return False
    if any(not la.masks[v] >> c & 1 for v, c in enumerate(colour_of)):
        return False
    part_of = graph.part_of
    return all(
        colour_of[u] != colour_of[v]
        for u, v in combinations(range(graph.n), 2)
        if part_of[u] != part_of[v]
    )


def _witnesses(la: ListAssignment, lam: Lambda, partition) -> bool:
    if partition is None:
        return False
    counts = quota_counts(la, partition)
    return all(row[i] >= q for row in counts for i, q in enumerate(lam.parts))


def _summary(how: str, report):
    return [report.minimum, report.exact] if how == "phi_search" else report.ok


class Sweep:
    """Exhaustive cell decisions through phi_search, verify_choosable_below
    and is_choosable."""

    name = "sweep"

    def __init__(self, seed: int, expected: dict):
        # every cell is decided exhaustively, so the seed has nothing to draw
        self.calls = sweep_plan()
        self.cells = [cell for *_, cells in self.calls for cell in cells]
        frozen = {(tuple(c["lambda"]), tuple(c["parts"])): c for c in expected["cells"]}
        self.expected = [frozen[c] for c in self.cells]
        self.expected_calls = expected["calls"]

    def run(self, clock: Clock, spans=None):
        outputs: list = []
        decided: dict = {}
        decide = search.is_choosable

        def cell(graph, lam, budget=None):
            budget = Budget() if budget is None else budget
            t = clock.start()
            verdict = decide(graph, lam, budget)
            clock.stop(t)
            decided[graph.part_sizes] = (verdict, budget.nodes)
            if spans is not None:
                spans.counts["assignment.walk.nodes"] += budget.nodes
                spans.counts["assignment.walk.orbits"] += verdict.orbits_checked
            return verdict

        search.is_choosable = cell
        try:
            for how, lam, n, cells in self.calls:
                decided.clear()
                try:
                    if how == "is_choosable":
                        summary = None
                        for _, sizes in cells:
                            cell(MultipartiteGraph(sizes), lam)
                    else:
                        summary = _summary(how, getattr(search, how)(lam, n, threads=1))
                except Exception as exc:
                    outputs.extend([_error(exc)] * len(cells))
                    continue
                for _, sizes in cells:
                    if sizes not in decided:
                        outputs.append("error: cell not decided")
                        continue
                    verdict, nodes = decided[sizes]
                    ce = verdict.to_dict()["counterexample"]
                    outputs.append((verdict.status, verdict.orbits_checked, nodes, ce, summary))
        finally:
            search.is_choosable = decide
        return outputs

    def check(self, outputs) -> list[bool]:
        ok = []
        call_of = [i for i, (_, _, _, cells) in enumerate(self.calls) for _ in cells]
        for (parts, sizes), want, out, ci in zip(self.cells, self.expected, outputs, call_of):
            if isinstance(out, str):
                ok.append(False)
                continue
            status, orbits, _, ce, summary = out
            good = (
                status == want["status"]
                and orbits == want["orbits"]
                and summary == self.expected_calls[ci]
            )
            if good and status == NOT_CHOOSABLE:
                good = self._recheck(parts, sizes, ce)
            ok.append(good)
        return ok

    @staticmethod
    def _recheck(parts, sizes, ce) -> bool:
        """A counterexample has no colouring and meets the cell's quotas."""
        if ce is None:
            return False
        la = ListAssignment.from_lists(ce["universe"], ce["lists"])
        lam = Lambda(parts)
        graph = MultipartiteGraph(sizes)
        return (
            find_colouring(graph, la) is None
            and not _colourable(graph, la.masks)
            and _witnesses(la, lam, is_lambda_assignment(la, lam))
        )


def _random_assignment(rng: random.Random, n: int, universe_cap: int) -> ListAssignment:
    """The criterion-7 generator: random lists, unused colours squeezed out."""
    u = rng.randint(1, universe_cap)
    masks = [sum(1 << c for c in rng.sample(range(u), rng.randint(1, u))) for _ in range(n)]
    union = 0
    for m in masks:
        union |= m
    live = [c for c in range(u) if union >> c & 1]
    squeezed = tuple(
        sum(1 << i for i, c in enumerate(live) if m >> c & 1) for m in masks
    )
    return ListAssignment(len(live), squeezed)


def _reference_lists() -> list[tuple[MultipartiteGraph, tuple[int, ...]]]:
    rng = random.Random(0)
    out = []
    for _ in range(60):
        n = rng.randint(6, 7)
        sizes = rng.choice([s for k in range(1, n + 1) for s in part_vectors(n, k)])
        out.append((MultipartiteGraph(sizes), _random_assignment(rng, n, 5).masks))
    return out


# one slice: about 4 ms on a 2 GHz Xeon
_REFERENCE = _reference_lists() * 8


class Solve:
    """One-shot find_colouring calls, as ``lchoose solve`` makes them."""

    name = "solve"

    def __init__(self, seed: int, expected: dict):
        rng = random.Random(seed)
        shapes = {
            n: [s for k in range(1, n + 1) for s in part_vectors(n, k)]
            for n in range(1, CORPUS_MAX_N + 1)
        }
        self.items = []
        for i in range(CORPUS_SIZE):
            n = rng.randint(1, CORPUS_MAX_N)
            graph = MultipartiteGraph(rng.choice(shapes[n]))
            la = _random_assignment(rng, n, CORPUS_MAX_UNIVERSE)
            self.items.append((f"random #{i}", graph, la))
        for ones, twos, threes in GADGETS:
            inst = constructions.build_gadget(ones, twos, threes)
            self.items.append((f"gadget {ones},{twos},{threes}", inst.graph, inst.assignment))
        for k, s1s in SOLVE_K42:
            self.items.extend(_k42(k, s1s))
        for k, count in SOLVE_THREES:
            self.items.extend(_threes(k, count, rng))
        self.frozen = expected["colourable"]

    def run(self, clock: Clock, spans=None):
        outputs: list = []
        for _, graph, la in self.items:
            t = clock.start()
            try:
                colouring = solver.find_colouring(graph, la)
            except Exception as exc:
                clock.stop(t)
                outputs.append(_error(exc))
                continue
            clock.stop(t)
            outputs.append(None if colouring is None else colouring.colour_of)
        return outputs

    def check(self, outputs) -> list[bool]:
        ok = []
        for (label, graph, la), out in zip(self.items, outputs):
            if isinstance(out, str):
                ok.append(False)
            elif out is not None:
                ok.append(_proper(graph, la, out))
            elif label.startswith("random"):
                ok.append(not _colourable(graph, la.masks))
            elif label.startswith("threes"):
                ok.append(_threes_certificate(graph, la))
            else:
                ok.append(self.frozen[label] is False)
        return ok


class Families:
    """The miss-vector family enumerator and the parity obstruction audit."""

    name = "families"

    def __init__(self, seed: int, expected: dict):
        rng = random.Random(seed)
        self.checks = []  # one check asks the fast and the forced path
        for k, s1s, n_threes, odd, even in FAMILIES:
            k42 = _k42(k, s1s)
            for label, graph, la in k42 + _threes(k, n_threes, rng):
                self.checks.extend((label, graph, la, Lambda(parts)) for parts in odd)
            for label, graph, la in k42:
                self.checks.extend((label, graph, la, Lambda(parts)) for parts in even)
        self.candidates = expected["candidates"]

    def run(self, clock: Clock, spans=None):
        outputs: list = []
        t = clock.start()
        span = spans.open("constructions.threes_enum") if spans is not None else None
        try:
            enum = constructions.ThreesFamilyEnumerator(ENUM_K, Budget(max_nodes=ENUM_ROWS))
            found = tuple(enum)
        except Exception as exc:
            found = _error(exc)
        if spans is not None:
            spans.close(span)
            if not isinstance(found, str):
                spans.counts["constructions.threes_enum.rows"] += enum.budget.nodes - enum.truncated
                spans.counts["constructions.threes_enum.candidates"] += len(found)
        clock.stop(t)
        outputs.append(found)
        for _, graph, la, lam in self.checks:
            t = clock.start()
            try:
                blocked = tuple(
                    constructions.parity_obstruction_check(graph, la, lam, force_search=force)
                    for force in (False, True))
            except Exception as exc:
                clock.stop(t)
                outputs.append(_error(exc))
                continue
            clock.stop(t)
            outputs.append(blocked)
        return outputs

    def check(self, outputs) -> list[bool]:
        ok = [self._check_enumeration(outputs[0])]
        for (_, graph, la, lam), out in zip(self.checks, outputs[1:]):
            if lam.m_odd:
                ok.append(out == (True, True))
            else:
                ok.append(out == (False, False)
                          and _witnesses(la, lam, is_lambda_assignment(la, lam)))
        return ok

    def _check_enumeration(self, found) -> bool:
        """The frozen candidate count, every candidate non-colourable by
        counting, and no two candidates in one orbit."""
        if isinstance(found, str) or len(found) != self.candidates:
            return False
        if not all(_threes_certificate(c.graph, c.assignment) for c in found):
            return False
        lam = Lambda((ENUM_K,))
        keys = set()
        for c in found:
            partition = ColourPartition(lam, (0,) * c.assignment.universe_size)
            keys.add(canonical_key(c.assignment, c.graph, lam, partition))
        return len(keys) == len(found)


WORKLOADS = {w.name: w for w in (Sweep, Solve, Families)}
