"""Command line front end.

Machine-readable JSON goes to stdout (every payload carries a ``schema``
field); prose and diagnostics go to stderr.  Exit codes: 0 success, 1 a
checked claim was refuted, 2 inconclusive (budget ran out), 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import groupby

from .assignment import assignment_from_dict, assignment_to_dict
from .budget import Budget
from .bundles import BUNDLES, run_bundle
from .constructions import ThreesFamilyEnumerator, build_bad_k42, build_gadget
from .graphs import MultipartiteGraph
from .lam import Lambda, integers, phi_bounds, phi_exact
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


def _emit(payload: dict, out: str | None = None) -> None:
    """Print the payload's ``lchoose/1`` envelope, or write it to ``out`` without the newline."""
    text = json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True)
    if out is None:
        print(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _at_least(low: int):
    def integer(text: str) -> int:  # argparse reports "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0:  # refuses nan too
        raise argparse.ArgumentTypeError(f"must be a number of seconds, at least 0, got {text!r}")
    return value


def _quotas(lam: Lambda) -> str:
    """The quotas as ``Lambda.parse`` reads them, a run of m equal ones as
    ``v*m`` where that is shorter (``str(lam)`` keys the bundle payloads)."""
    tokens = []
    for value, run in groupby(lam.parts):
        count = len(list(run))
        plain, star = ",".join([str(value)] * count), f"{value}*{count}"
        tokens.append(star if len(star) < len(plain) else plain)
    return ",".join(tokens)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_phi(args) -> int:
    lam = Lambda.parse(args.lam)
    payload = {"command": "phi", "lambda": list(lam.parts), "phi": "infinite",
               "bounds": None, "search": None}
    if lam.is_trivial:
        _emit(payload)
        print(f"phi({_quotas(lam)}) is infinite: the all-singletons quota refutes nothing",
              file=sys.stderr)
        return 0
    lo, hi = phi_bounds(lam)
    exact = phi_exact(lam)
    payload.update(phi=exact, bounds=[lo, hi])
    code = 0
    if args.search_up_to is not None:
        report = phi_search(lam, args.search_up_to, budget_nodes=args.budget_nodes,
                            threads=args.threads, budget_seconds=args.budget_seconds)
        payload["search"] = report.to_dict()
        if report.minimum is None and not report.exact:
            code = 2
    _emit(payload)
    print(f"phi({_quotas(lam)}) = {exact}, proven bounds [{lo}, {hi}]", file=sys.stderr)
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
    verdict = is_choosable(
        graph, lam, Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)
    )
    payload = {
        "command": "check",
        "graph": graph.text(),
        "lambda": list(lam.parts),
        **verdict.to_dict(),
    }
    _emit(payload)
    if verdict.status == CHOOSABLE:
        print(f"{graph} is {_quotas(lam)}-choosable ({verdict.reason or 'exhaustive'})",
              file=sys.stderr)
        return 0
    if verdict.status == NOT_CHOOSABLE:
        print(f"{graph} is not {_quotas(lam)}-choosable; counterexample attached", file=sys.stderr)
        return 1
    print(f"inconclusive: {verdict.reason}", file=sys.stderr)
    return 2


def _field(manifest: dict, field: str):
    if field not in manifest:
        raise ValueError(f"manifest lacks the field {field!r}")
    return manifest[field]


def _ints(manifest: dict, *fields: str) -> tuple[int, ...]:
    return integers([_field(manifest, f) for f in fields], "manifest fields " + ", ".join(fields))


def _cmd_gen(args) -> int:
    manifest = _load_json(args.manifest)
    if not isinstance(manifest, dict):
        print("manifest must be a JSON object", file=sys.stderr)
        return USAGE_ERROR
    family = manifest.get("family")
    if family == "lemma1":
        inst = build_gadget(*_ints(manifest, "ones", "twos", "threes"))
        docs = [
            {
                "graph": inst.graph.text(),
                **assignment_to_dict(inst.assignment, inst.partition),
            }
        ]
    elif family == "k42":
        (k,) = _ints(manifest, "k")
        sizes = integers(_field(manifest, "sizes"), "manifest field sizes")
        graph, assignment = build_bad_k42(k, sizes)
        docs = [{"graph": graph.text(), **assignment_to_dict(assignment)}]
    elif family == "threes":
        (k,) = _ints(manifest, "k")
        (count,) = integers((manifest.get("count", 1),), "manifest field count")
        if count < 1:
            print(f"threes count must be at least 1, got {count}", file=sys.stderr)
            return USAGE_ERROR
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
    _emit(payload, args.out)
    if args.out:
        print(f"wrote {len(docs)} instance(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.bundle not in BUNDLES:
        known = ", ".join(sorted(BUNDLES))
        print(f"unknown bundle {args.bundle!r}; known bundles: {known}", file=sys.stderr)
        return USAGE_ERROR
    payload = run_bundle(args.bundle, threads=args.threads, budget_nodes=args.budget_nodes)
    payload = {"command": "verify", **payload}
    if args.out:
        _emit(payload, args.out)
    _emit(payload)
    if payload["ok"]:
        print(f"bundle {args.bundle}: all checks passed", file=sys.stderr)
        return 0
    if payload.get("inconclusive"):
        print(f"bundle {args.bundle}: inconclusive (budget)", file=sys.stderr)
        return 2
    print(f"bundle {args.bundle}: FAILED", file=sys.stderr)
    return 1


_CLOCK_NOTE = ("; the clock is read every 1,024 nodes, so a walk may overrun it by that"
               " many nodes, and running out makes the answer INCONCLUSIVE (exit 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lchoose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("phi", help="size formulas for a quota multiset")
    p.add_argument("-l", "--lambda", dest="lam", required=True,
                   help="quota multiset, e.g. '1,3' or '2*3'")
    p.add_argument("--search-up-to", type=_at_least(0), default=None, metavar="N",
                   help="also sweep shapes up to N vertices")
    p.add_argument("--budget-nodes", type=_at_least(0), default=None)
    p.add_argument("--budget-seconds", type=_seconds, default=None, metavar="S",
                   help="wall-clock limit per swept shape" + _CLOCK_NOTE)
    p.add_argument("--threads", type=_at_least(1), default=os.environ.get("LCHOOSE_THREADS", "1"))
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
    p.add_argument("--budget-nodes", type=_at_least(0), default=None)
    p.add_argument("--budget-seconds", type=_seconds, default=None, metavar="S",
                   help="wall-clock limit on the walk" + _CLOCK_NOTE)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen",
                       help="emit instances from a family manifest")
    p.add_argument("manifest", help="path to a manifest JSON document")
    p.add_argument("--out", default=None, help="write the payload here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run a named evidence bundle")
    p.add_argument("bundle", help="one of: " + ", ".join(sorted(BUNDLES)))
    p.add_argument("--threads", type=_at_least(1), default=os.environ.get("LCHOOSE_THREADS", "1"))
    p.add_argument("--budget-nodes", type=_at_least(0), default=None)
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
