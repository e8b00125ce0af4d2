"""Command line front end.

Machine-readable JSON goes to stdout (every payload carries a ``schema``
field); prose and diagnostics go to stderr.  Exit codes: 0 success, 1 a
checked claim was refuted, 2 inconclusive (budget ran out), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .assignment import assignment_from_dict, assignment_to_dict
from .budget import Budget
from .bundles import BUNDLES, run_bundle
from .constructions import ThreesFamilyEnumerator, build_bad_k42, build_gadget
from .graphs import MultipartiteGraph
from .lam import Lambda
from .search import phi_search
from .solver import CHOOSABLE, INCONCLUSIVE, NOT_CHOOSABLE, find_colouring, is_choosable

SCHEMA = "lchoose/1"

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # inconclusive runs, so remap
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("LCHOOSE_THREADS", "1")))
    except ValueError:
        return 1


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_phi(args) -> int:
    lam = Lambda.parse(args.lam)
    if lam.is_trivial:
        _emit(
            {
                "command": "phi",
                "lambda": list(lam.parts),
                "phi": "infinite",
                "bounds": None,
                "search": None,
            }
        )
        print(f"phi({lam}) is infinite: the all-singletons quota refutes nothing",
              file=sys.stderr)
        return 0
    from .lam import phi_bounds, phi_exact

    lo, hi = phi_bounds(lam)
    exact = phi_exact(lam)
    payload = {
        "command": "phi",
        "lambda": list(lam.parts),
        "phi": exact,
        "bounds": [lo, hi],
        "search": None,
    }
    code = 0
    if args.search_up_to is not None:
        report = phi_search(
            lam, args.search_up_to, budget_nodes=args.budget_nodes, threads=args.threads
        )
        payload["search"] = report.to_dict()
        if report.minimum is None and not report.exact:
            code = 2
    _emit(payload)
    print(f"phi({lam}) = {exact}, proven bounds [{lo}, {hi}]", file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    graph = MultipartiteGraph.from_text(args.graph)
    doc = _load_json(args.assignment)
    assignment, _, _ = assignment_from_dict(doc)
    if assignment.n != graph.n:
        print("assignment and graph disagree on the vertex count", file=sys.stderr)
        return USAGE_ERROR
    colouring = find_colouring(graph, assignment)
    payload = {
        "command": "solve",
        "graph": graph.text(),
        "colourable": colouring is not None,
        "colouring": list(colouring.colour_of) if colouring else None,
    }
    _emit(payload)
    if colouring is None:
        print("no proper colouring exists for these lists", file=sys.stderr)
        return 1
    print("proper colouring found", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    graph = MultipartiteGraph.from_text(args.graph)
    lam = Lambda.parse(args.lam)
    verdict = is_choosable(graph, lam, Budget(max_nodes=args.budget_nodes))
    payload = {
        "command": "check",
        "graph": graph.text(),
        "lambda": list(lam.parts),
        **verdict.to_dict(),
    }
    _emit(payload)
    if verdict.status == CHOOSABLE:
        print(f"{graph} is {lam}-choosable (exhaustive)", file=sys.stderr)
        return 0
    if verdict.status == NOT_CHOOSABLE:
        print(f"{graph} is not {lam}-choosable; counterexample attached", file=sys.stderr)
        return 1
    print("budget exhausted before the walk finished", file=sys.stderr)
    return 2


def _cmd_gen(args) -> int:
    manifest = _load_json(args.manifest)
    family = manifest.get("family")
    if family == "lemma1":
        inst = build_gadget(
            int(manifest["ones"]), int(manifest["twos"]), int(manifest["threes"])
        )
        docs = [
            {
                "graph": inst.graph.text(),
                **assignment_to_dict(inst.assignment, inst.partition),
            }
        ]
    elif family == "k42":
        k = int(manifest["k"])
        sizes = tuple(int(x) for x in manifest["sizes"])
        graph, assignment = build_bad_k42(k, sizes)
        docs = [{"graph": graph.text(), **assignment_to_dict(assignment)}]
    elif family == "threes":
        k = int(manifest["k"])
        count = int(manifest.get("count", 1))
        docs = []
        enum = ThreesFamilyEnumerator(k)
        for cand in enum:
            docs.append(
                {"graph": cand.graph.text(), **assignment_to_dict(cand.assignment)}
            )
            if len(docs) >= count:
                break
    else:
        print(f"unknown family {family!r} in manifest", file=sys.stderr)
        return USAGE_ERROR
    payload = {"command": "gen", "family": family, "instances": docs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, **payload}, fh, indent=2, sort_keys=True)
        print(f"wrote {len(docs)} instance(s) to {args.out}", file=sys.stderr)
    else:
        _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    if args.bundle not in BUNDLES:
        known = ", ".join(sorted(BUNDLES))
        print(f"unknown bundle {args.bundle!r}; known bundles: {known}", file=sys.stderr)
        return USAGE_ERROR
    payload = run_bundle(args.bundle, threads=args.threads, budget_nodes=args.budget_nodes)
    payload = {"command": "verify", **payload}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, **payload}, fh, indent=2, sort_keys=True)
    _emit(payload)
    if payload["ok"]:
        print(f"bundle {args.bundle}: all checks passed", file=sys.stderr)
        return 0
    if payload.get("inconclusive"):
        print(f"bundle {args.bundle}: inconclusive (budget)", file=sys.stderr)
        return 2
    print(f"bundle {args.bundle}: FAILED", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lchoose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("phi", help="size formulas for a quota multiset")
    p.add_argument("-l", "--lambda", dest="lam", required=True,
                   help="quota multiset, e.g. '1,3' or '2*3'")
    p.add_argument("--search-up-to", type=int, default=None, metavar="N",
                   help="also sweep shapes up to N vertices")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("solve",
                       help="colour one assignment document")
    p.add_argument("-g", "--graph", required=True, help="part sizes, e.g. '5,5,2,2'")
    p.add_argument("assignment", help="path to an assignment JSON document")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check",
                       help="decide choosability of a shape")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-l", "--lambda", dest="lam", required=True)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen",
                       help="emit instances from a family manifest")
    p.add_argument("manifest", help="path to a manifest JSON document")
    p.add_argument("--out", default=None, help="write the payload here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a named evidence bundle")
    p.add_argument("bundle", help="one of: " + ", ".join(sorted(BUNDLES)))
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"lchoose: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
