"""Benchmark for lchoose: one workload per run, closed loop, outputs checked.

Usage, from the repository root:

    python3 bench/run.py --workload sweep|solve|families --seed N --seconds S --trace 0|1

The run builds the workload's inputs from the seed, then makes passes over
them, one item after another on one thread, for about S seconds (at least
one pass).  Every output is checked.  With --trace 0 the run prints the
end-to-end metrics, with times in units of a reference slice timed between
items (see README.md); with --trace 1 it alternates untraced and traced
passes and prints the per-layer metrics of the traced ones.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  A full
record (machine, seed, per-pass times, layer counts) and the spans of the
last traced pass go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5  # fresh interpreters timed per run; the median is reported
SETUP_CODE = "import lchoose.cli as cli; cli.build_parser()"
SAMPLE_EVERY = 0.1  # seconds of work between reference slices

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "item_p50_ref": "ref", "item_tail_ref": "ref",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read as files so that no directory
    above the checkout is searched; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lchoose").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import lchoose.cli and build its
    parser, as every lchoose command does.  One untimed run first fills the
    bytecode cache."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(SETUP_RUNS + 1):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile of one pass's item times with at least ten
    items beyond it (nearest rank); returns (percentile, value)."""
    q = max(0.5, 1 - 10 / len(times))
    ordered = sorted(times)
    return 100 * q, ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(summary: dict, counts, wall: float) -> dict[str, float]:
    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "flagged": 0, "with_child": 0})

    def ratio(a, b):
        return a / b if b else 0.0

    fc, oracle, cell = row("solver.find_colouring"), row("solver.oracle"), row("solver.is_choosable")
    key, lam = row("assignment.canonical_key"), row("assignment.is_lambda_assignment")
    enum, parity = row("constructions.threes_enum"), row("constructions.parity_obstruction_check")
    phi, below = row("search.phi_search"), row("search.verify_choosable_below")
    nodes, orbits = counts["assignment.walk.nodes"], counts["assignment.walk.orbits"]
    return {
        "solver.find_colouring.calls": fc["calls"],
        "solver.find_colouring.self_s": fc["self_s"],
        "solver.find_colouring.colourable_ratio": ratio(fc["flagged"], fc["calls"]),
        "solver.oracle.calls": oracle["calls"],
        "solver.oracle.self_s": oracle["self_s"],
        "solver.oracle.hit_ratio": ratio(oracle["calls"] - oracle["with_child"], oracle["calls"]),
        "assignment.walk.nodes": nodes,
        "assignment.walk.orbits": orbits,
        "assignment.walk.nodes_per_orbit": ratio(nodes, orbits),
        "assignment.walk.nodes_per_s": ratio(nodes, cell["total_s"]),
        "assignment.walk.self_s": cell["self_s"],
        "assignment.canonical.leaf_checks": counts["assignment.canonical.leaf_checks"],
        "assignment.canonical_key.calls": key["calls"],
        "assignment.canonical_key.self_s": key["self_s"],
        "assignment.is_lambda_assignment.calls": lam["calls"],
        "assignment.is_lambda_assignment.self_s": lam["self_s"],
        "assignment.is_lambda_assignment.found_ratio": ratio(lam["flagged"], lam["calls"]),
        "constructions.threes_enum.rows": counts["constructions.threes_enum.rows"],
        "constructions.threes_enum.candidates": counts["constructions.threes_enum.candidates"],
        "constructions.threes_enum.self_s": enum["self_s"],
        "constructions.parity_obstruction_check.calls": parity["calls"],
        "constructions.parity_obstruction_check.self_s": parity["self_s"],
        "constructions.parity_obstruction_check.search_ratio":
            ratio(parity["with_child"], parity["calls"]),
        "search.cells": cell["calls"],
        "search.self_s": phi["self_s"] + below["self_s"],
        "trace.wall_s": wall,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_orbit")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lchoose" / "__init__.py").is_file():
        print(f"bench: no lchoose package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Spans, patched
    from workloads import WORKLOADS, Clock

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text(encoding="ascii"))
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    setup = [] if args.trace else measure_setup()

    workload = WORKLOADS[args.workload](args.seed, expected[args.workload])
    passes = []  # one dict per pass; outputs are compared and dropped at once
    first = first_ok = last_spans = None
    attempted = failed = 0
    spent = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = Spans() if traced else None
        # the traced passes take no reference slices, which would land
        # inside the search spans
        clock = Clock(None if traced else SAMPLE_EVERY)
        # each pass starts clean, as a fresh lchoose command would: the
        # solver leaves reference cycles that only the collector frees
        gc.collect()
        t = time.perf_counter()
        if traced:
            with patched(spans):
                outputs = workload.run(clock, spans)
        else:
            outputs = workload.run(clock)
        raw = time.perf_counter() - t
        spent += raw
        wall = raw - sum(clock.slices)
        clock.finish()
        times = clock.items
        percentile, tail_s = tail(times)
        row = {"traced": traced, "raw_s": raw, "wall_s": wall, "items": len(times),
               "item_p50_s": statistics.median(times), "item_tail_s": tail_s,
               "tail_percentile": percentile}
        if clock.slices:
            norm = clock.in_slices()
            between = (wall - sum(times)) / statistics.median(clock.slices)
            row.update(ref_slices=len(clock.slices), ref_slice_s=statistics.median(clock.slices),
                       wall_ref=sum(norm) + between, item_p50_ref=statistics.median(norm),
                       item_tail_ref=tail(norm)[1])
        if traced:
            row["layers"] = layer_metrics(spans.summary(), spans.counts, wall)
            last_spans = spans
        passes.append(row)

        # The first pass is checked against the frozen answers and the
        # certificates; every later pass must reproduce its outputs exactly.
        if first is None:
            first, first_ok = outputs, workload.check(outputs)
            ok = first_ok
        else:
            ok = [good and i < len(outputs) and outputs[i] == first[i]
                  for i, good in enumerate(first_ok)]
            if not all(ok):
                print(f"bench: a pass of {args.workload} differs from the first pass "
                      f"on {ok.count(False)} items", file=sys.stderr)
        attempted += len(ok)
        failed += ok.count(False)
        del clock, outputs

        kind = bool(args.trace) and len(passes) % 2 == 1
        next_wall = next((p["raw_s"] for p in reversed(passes) if p["traced"] == kind), raw)
        if len(passes) >= 1 + args.trace and spent + next_wall > args.seconds:
            break
    correct = failed == 0

    untraced = [p for p in passes if not p["traced"]]
    record.update(passes=[{k: v for k, v in p.items() if k != "layers"} for p in passes],
                  attempted=attempted, failed=failed, error_rate=failed / attempted)
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup)}
        for name in ("wall_ref", "item_p50_ref", "item_tail_ref"):
            metrics[name] = statistics.median(p[name] for p in untraced)
            record[name[:-4] + "_s"] = statistics.median(p[name[:-4] + "_s"] for p in untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
        record["setup_runs_s"] = setup
    else:
        per_pass = [p["layers"] for p in passes if p["traced"]]
        counts = {k: v for k, v in per_pass[0].items() if layer_unit(k) == "count"}
        if any(other[k] != v for other in per_pass[1:] for k, v in counts.items()):
            print("bench: layer counts differ between traced passes", file=sys.stderr)
            correct = False
        correct = check_counts_file(args, record["machine"]["source_sha256"], counts) and correct
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics.update(counts)
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / statistics.median(p["wall_s"] for p in untraced) - 1)
        units = {k: layer_unit(k) for k in metrics}
        record["layer_share"] = {
            k[:-len(".self_s")]: v / metrics["trace.wall_s"]
            for k, v in metrics.items() if k.endswith(".self_s")}
        last_spans.write(OUT / f"spans-{args.workload}.tsv")

    record["metrics"] = metrics
    record["correct"] = correct
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    m = record["machine"]
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed} error_rate={failed / attempted:.6g} "
          f"record={path.relative_to(ROOT)}")
    print(f"  python {m['python']}, nproc {m['nproc']}, {m['cpu_model']}, "
          f"commit {m['commit'] or 'unknown'}, source {m['source_sha256'][:12]}")
    if not args.trace:
        print(f"  item_tail is p{passes[0]['tail_percentile']:.2f} of {passes[0]['items']} "
              f"items a pass; medians over {len(untraced)} passes; 1 ref = "
              f"{statistics.median(p['ref_slice_s'] for p in untraced):.6g} s; raw wall_s "
              f"{record['wall_s']:.6g} s, item_p50_s {record['item_p50_s']:.6g} s, "
              f"item_tail_s {record['item_tail_s']:.6g} s")
    for name, value in metrics.items():
        print(f"  {name:50s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def check_counts_file(args, digest: str, counts: dict) -> bool:
    """Compare the layer counts with those an earlier traced run of the same
    source and seed left behind, then leave this run's counts there."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    ok = True
    try:
        earlier = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError):
        earlier = None
    if earlier and earlier["source_sha256"] == digest and earlier["counts"] != counts:
        diff = sorted(k for k in counts if earlier["counts"].get(k) != counts[k])
        print(f"bench: layer counts differ from an earlier run with seed {args.seed}: "
              f"{', '.join(diff)}", file=sys.stderr)
        ok = False
    path.write_text(json.dumps({"source_sha256": digest, "counts": counts}, indent=1) + "\n",
                    encoding="ascii")
    return ok


if __name__ == "__main__":
    sys.exit(main())
