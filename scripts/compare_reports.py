"""Check that two revisions print the same ``heiscot all --json`` reports.

Usage (from the repository root)::

    python scripts/compare_reports.py [--parent DIR]

Both this checkout's ``src/`` and ``DIR/src`` run ``heiscot all --json``
at every seed in ``SEEDS`` (the n = 1..3 sweep) and at seed 1 for every n
in ``NS``, each run in a fresh process with one BLAS thread.  Reports are
compared check by check, ignoring ``elapsed_ms``; a run that raises (seed
30 does) is compared by the exception's type and message.  Without
``--parent`` the other revision is the last commit, unpacked with
``git archive HEAD`` into a temporary directory.

Prints the first differing (seed, n, verb, check) with both values and
exits 1, or prints the number of runs compared and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (*range(1, 21), 30, 38)
NS = (1, 2, 3, 4, 5)
WORKERS = 2

# runs one CLI invocation; an exception becomes {"error": [type, message]}
_WORKER = """
import contextlib, io, json, sys
from heiscot import cli
buf = io.StringIO()
try:
    with contextlib.redirect_stdout(buf):
        code = cli.run(sys.argv[1:])
    out = {"code": code, "reports": json.loads(buf.getvalue())}
except Exception as exc:
    out = {"error": [type(exc).__name__, str(exc)]}
print(json.dumps(out))
"""


def _jobs() -> list[tuple[int, int | None]]:
    """(seed, n) of every run; n None is the default n = 1..3 sweep."""
    return [(seed, None) for seed in SEEDS] + [(1, n) for n in NS]


def _run(src: Path, seed: int, n: int | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["all", "--json", "--seed", str(seed)] + ([] if n is None else ["--n", str(n)])
    proc = subprocess.run([sys.executable, "-c", _WORKER, *argv], env=env, check=True,
                          capture_output=True, text=True)
    out = json.loads(proc.stdout)
    reports = out.get("reports")
    if isinstance(reports, dict):
        out["reports"] = reports = [reports]
    for rep in reports or ():
        rep.pop("elapsed_ms", None)
    return out


def first_difference(seed: int, n: int | None, a: dict, b: dict) -> str | None:
    """The first differing (seed, n, verb, check) of two runs, with both values."""
    where = f"seed {seed}, n {'1..3' if n is None else n}"
    if "error" in a or "error" in b:
        if a.get("error") != b.get("error"):
            return f"{where}: exception {a.get('error')} != {b.get('error')}"
        return None
    for ra, rb in zip_longest(a["reports"], b["reports"]):
        if ra is None or rb is None or (ra["command"], ra["n"]) != (rb["command"], rb["n"]):
            return f"{where}: report {ra and ra['command']} != {rb and rb['command']}"
        for ca, cb in zip_longest(ra["checks"], rb["checks"]):
            if ca != cb:
                name = (ca or cb)["name"]
                return f"seed {seed}, n {ra['n']}, {ra['command']}, {name}: {ca} != {cb}"
    if a["code"] != b["code"]:
        return f"{where}: exit code {a['code']} != {b['code']}"
    return None


def compare(parent: Path) -> int:
    jobs = _jobs()
    with ThreadPoolExecutor(WORKERS) as pool:
        mine = [pool.submit(_run, ROOT / "src", *job) for job in jobs]
        theirs = [pool.submit(_run, parent / "src", *job) for job in jobs]
        for job, fa, fb in zip(jobs, theirs, mine):
            diff = first_difference(*job, fa.result(), fb.result())
            if diff is not None:
                print(f"parent != change at {diff}")
                return 1
    print(f"{len(jobs)} runs identical modulo elapsed_ms")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="another revision's checkout (default: HEAD)")
    args = ap.parse_args()
    if args.parent is not None:
        return compare(args.parent)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "HEAD"], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        return compare(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
