"""Pins on the command line and the benchmark driver, one row per check.

Run from the repository root with ``PYTHONPATH=src python tests/cli_pins.py``
(about 40 s on two cores).  Each row runs one command in a fresh process:
``python -m lchoose.cli ...`` or ``python bench/run.py --seed 1 --seconds 1
...``.  A row holds the command, the input documents it reads (written to a
temporary directory, which the command names ``{dir}``), the time limit in
seconds (None: no limit), the wanted exit code, and a reader with the value
it must return.  The reader gets the JSON the command wrote: the ``--out``
file of ``gen``, the last stdout line of ``bench/run.py``, and the whole
stdout otherwise.  Every row runs even after one fails; each prints one line
with its command, exit code, value read and value wanted, and the script
exits 1 if any row failed.

This is not a tier-1 test: the rows need fresh processes, and the orbit pins
sweep every shape up to eight vertices.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "lchoose.cli"]
BENCH = ["bench/run.py", "--seed", "1", "--seconds", "1", "--workload"]
THREES6 = "a6f3b28aa05a5012e5970ce5f3216bedf4afc9121fea7efe107a8b086314f102"
K1000 = {"universe": 1000, "lists": [list(range(1000))] * 1000}
U17 = {"universe": 17, "lists": [[1, 10, 12], [4, 9, 12, 13], [2, 3, 7, 9], [0, 3, 15],
                                 [6, 8, 13, 14], [4, 5, 11, 16], [4, 7], [7, 12]]}
SWEEP = ("assignment.walk.nodes", "assignment.walk.orbits", "assignment.canonical.leaf_checks")
FAMILIES = ("assignment.canonical_key.calls", "constructions.threes_enum.rows")


def _gen(name: str) -> list[str]:
    return [*CLI, "gen", f"{{dir}}/{name}.json", "--out", f"{{dir}}/{name}-out.json"]


def _solve_first(name: str):
    """The solve command for the first instance that ``gen`` wrote to ``{name}-out.json``."""
    def argv(tmp: Path) -> list[str]:
        inst = json.loads((tmp / f"{name}-out.json").read_text())["instances"][0]
        (tmp / f"{name}-inst.json").write_text(json.dumps(inst))
        return [*CLI, "solve", "-g", inst["graph"], str(tmp / f"{name}-inst.json")]
    return argv


def _digest(doc: dict) -> list:
    instances = doc["instances"]
    return [len(instances), hashlib.sha256(json.dumps(instances, sort_keys=True).encode()).hexdigest()]


def _orbits(doc: dict) -> list:
    """Decided, orbits and cells: a sweep that finds no minimum, or a CHOOSABLE check."""
    if doc["command"] == "check":
        return [doc["status"] == "CHOOSABLE", doc["orbits_checked"], 1]
    search = doc["search"]
    decided = search["minimum"] is None and search["exact"] is True
    return [decided, sum(cell["orbits_checked"] for cell in search["cells"]), len(search["cells"])]


def _counts(*names: str):
    return lambda doc: [doc["correct"], *(doc["metrics"][name]["value"] for name in names)]


def _colourable_calls(doc: dict) -> list:
    calls = doc["metrics"]["solver.find_colouring.calls"]["value"]
    ratio = doc["metrics"]["solver.find_colouring.colourable_ratio"]["value"]
    return [doc["correct"], calls, round(ratio * calls), round(ratio, 5)]


def _field(*names: str):
    return lambda doc: [doc[name] for name in names]


def _instances(doc: dict) -> int:
    return len(doc["instances"])


ROWS = [
    # argv, input documents, time limit in s, exit code, reader, wanted value
    (_gen("threes6"), {"threes6.json": {"family": "threes", "k": 6, "count": 5}}, 60, 0,
     _digest, [5, THREES6]),
    ([*CLI, "verify", "lemma1-grid"], {}, 60, 0, _field("ok"), [True]),
    (_gen("lemma1"), {"lemma1.json": {"family": "lemma1", "ones": 2, "twos": 2, "threes": 1}}, 60, 0,
     _instances, 1),
    (_gen("k42"), {"k42.json": {"family": "k42", "k": 6, "sizes": [1, 2, 3]}}, 60, 0, _instances, 1),
    # lemma1 (2,2,1) has 16 colours and (3,2,1) has 17; neither is colourable
    (_solve_first("lemma1"), {}, 60, 1, _field("colourable"), [False]),
    (_gen("u17"), {"u17.json": {"family": "lemma1", "ones": 3, "twos": 2, "threes": 1}}, 60, 0,
     _instances, 1),
    (_solve_first("u17"), {}, 60, 1, _field("colourable"), [False]),
    # K_1000: 1,000 single-vertex parts, each takes its lowest free colour
    ([*CLI, "solve", "-g", ",".join(["1"] * 1000), "{dir}/k1000.json"], {"k1000.json": K1000}, 60, 0,
     _field("colourable"), [True]),
    # the second part's shared colour is taken, so it builds its covers
    ([*CLI, "solve", "-g", "2,2", "{dir}/k22.json"],
     {"k22.json": {"universe": 3, "lists": [[0], [0, 1], [0, 1], [0, 2]]}}, 60, 0,
     _field("colourable", "colouring"), [True, [0, 0, 1, 2]]),
    # 17 colours: the greedy pass sticks on the last part and the cover search backtracks
    ([*CLI, "solve", "-g", "2,2,2,1,1", "{dir}/u17c.json"], {"u17c.json": U17}, 60, 0,
     _field("colourable", "colouring"), [True, [12, 12, 3, 3, 6, 5, 4, 7]]),
    # starved runs stay inconclusive
    ([*CLI, "check", "-g", "3,3", "-l", "2", "--budget-nodes", "5"], {}, 60, 2,
     _field("exhaustive", "reason"), [False, "budget exhausted"]),
    ([*CLI, "verify", "phi2-exhaustive", "--budget-nodes", "5"], {}, 60, 2,
     _field("inconclusive"), [True]),
    ([*CLI, "verify", "parity-k4"], {}, 60, 0, _field("ok"), [True]),
    ([*CLI, "verify", "tuple-audit"], {}, 60, 0,
     _field("ok", "finder_cases", "finder_mismatches"), [True, 4802, []]),
    # orbit pins: decided, orbits summed over the cells, cells (a check is one cell)
    ([*CLI, "phi", "-l", "1,2", "--search-up-to", "7"], {}, 60, 0, _orbits, [True, 4251, 11]),
    ([*CLI, "phi", "-l", "3", "--search-up-to", "7"], {}, 120, 0, _orbits, [True, 1115, 11]),
    ([*CLI, "phi", "-l", "3", "--search-up-to", "8"], {}, 120, 0, _orbits, [True, 38953, 16]),
    ([*CLI, "phi", "-l", "1,2", "--search-up-to", "8"], {}, 180, 0, _orbits, [True, 81428, 16]),
    ([*CLI, "check", "-g", "4,2,2", "-l", "1,2"], {}, 60, 0, _orbits, [True, 21725, 1]),
    # oversized inputs decided at once
    ([*CLI, "check", "-g", "9,1,1,1", "-l", "4"], {}, 10, 0, _field("status"), ["CHOOSABLE"]),
    ([*CLI, "check", "-g", "1000000,1", "-l", "2"], {}, 10, 0, _field("status"), ["CHOOSABLE"]),
    ([*CLI, "check", "-g", "2,2", "-l", "2*100000"], {}, 10, 0, _field("status"), ["CHOOSABLE"]),
    # one short untraced run per workload
    ([*BENCH, "sweep", "--trace", "0"], {}, None, 0, _counts(), [True]),
    ([*BENCH, "solve", "--trace", "0"], {}, None, 0, _counts(), [True]),
    ([*BENCH, "families", "--trace", "0"], {}, None, 0, _counts(), [True]),
    # traced workloads, twice each: the second run also compares its counts with the first
    ([*BENCH, "families", "--trace", "1"], {}, None, 0, _counts(*FAMILIES), [True, 20, 200]),
    ([*BENCH, "families", "--trace", "1"], {}, None, 0, _counts(*FAMILIES), [True, 20, 200]),
    ([*BENCH, "sweep", "--trace", "1"], {}, None, 0, _counts(*SWEEP), [True, 1588, 307, 347]),
    ([*BENCH, "sweep", "--trace", "1"], {}, None, 0, _counts(*SWEEP), [True, 1588, 307, 347]),
    ([*BENCH, "solve", "--trace", "1"], {}, None, 0, _colourable_calls, [True, 10022, 6494, 0.64797]),
    ([*BENCH, "solve", "--trace", "1"], {}, None, 0, _colourable_calls, [True, 10022, 6494, 0.64797]),
]


def _document(argv: list[str], stdout: str) -> dict:
    if "--out" in argv:
        return json.loads(Path(argv[argv.index("--out") + 1]).read_text())
    return json.loads(stdout.splitlines()[-1] if argv[0] == BENCH[0] else stdout)


def run(row: tuple, tmp: Path) -> bool:
    """Run one row, print its line, and say whether it held."""
    argv, docs, limit, code, read, want = row
    command, got_code, got, stderr = [], None, None, None
    try:
        for name, doc in docs.items():
            (tmp / name).write_text(json.dumps(doc))
        command = argv(tmp) if callable(argv) else [arg.format(dir=tmp) for arg in argv]
        proc = subprocess.run([sys.executable, *command], cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=limit)
        got_code, stderr = proc.returncode, proc.stderr
        got = read(_document(command, proc.stdout))
    except subprocess.TimeoutExpired:
        got_code = f"none within {limit} s"
    except Exception as exc:  # unreadable output fails this row, not the table
        got = f"{type(exc).__name__}: {exc}"
    held = got_code == code and repr(got) == repr(want)  # repr tells True from 1
    shown = " ".join(arg if len(arg) <= 60 else arg[:20] + "..." for arg in command)
    print(f"{'ok  ' if held else 'FAIL'} python {shown.replace(str(tmp), '{dir}')}: exit {got_code}"
          f" (want {code}), read {got!r} (want {want!r})", flush=True)
    if not held and stderr:
        print("    " + "\n    ".join(stderr.splitlines()[-5:]), flush=True)
    return held


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failed = sum(not run(row, Path(tmp)) for row in ROWS)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows held")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
