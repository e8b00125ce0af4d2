"""Write ``expected.json``: the answers every workload output is checked
against, computed once with the code as it stands.

Run from the repository root:  python3 bench/freeze.py

Only re-freeze when the inputs in ``workloads.py`` change; the answers are
mathematical facts about those inputs, so a correct program never needs a
new freeze.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lchoose import constructions, search  # noqa: E402
from lchoose.budget import Budget  # noqa: E402
from lchoose.graphs import MultipartiteGraph  # noqa: E402
from lchoose.solver import find_colouring, is_choosable  # noqa: E402

import workloads  # noqa: E402


def freeze() -> dict:
    cells, calls = [], []
    for how, lam, n, plan in workloads.sweep_plan():
        if how == "is_choosable":
            verdicts = [is_choosable(MultipartiteGraph(sizes), lam) for _, sizes in plan]
            calls.append(None)
        else:
            report = getattr(search, how)(lam, n, threads=1)
            verdicts = [c.verdict for c in report.cells]
            calls.append(workloads._summary(how, report))
        for (parts, sizes), v in zip(plan, verdicts, strict=True):
            cells.append({"lambda": list(parts), "parts": list(sizes),
                          "status": v.status, "orbits": v.orbits_checked})
    colourable = {}
    for label, graph, la in workloads.Solve(0, {"colourable": {}}).items:
        if label.startswith(("gadget", "k42")):
            colourable[label] = find_colouring(graph, la) is not None
    found = list(constructions.ThreesFamilyEnumerator(
        workloads.ENUM_K, Budget(max_nodes=workloads.ENUM_ROWS)))
    return {
        "sweep": {"cells": cells, "calls": calls},
        "solve": {"colourable": colourable},
        "families": {"candidates": len(found)},
    }


if __name__ == "__main__":
    out = HERE / "expected.json"
    out.write_text(json.dumps(freeze(), indent=1) + "\n", encoding="ascii")
    print(f"wrote {out}")
