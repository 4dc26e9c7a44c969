"""Check that two revisions print the same ``heiscot all --json`` reports.

Usage (from the repository root)::

    python scripts/compare_reports.py [--parent DIR]

Both this checkout's ``src/`` and ``DIR/src`` run ``heiscot all --json``
at every seed in ``SEEDS`` (the n = 1..3 sweep) and at seed 1 for every n
in ``NS``.  They also run the two paths that ``all`` never takes: the
``complex`` verb at each ``--tol`` in ``COMPLEX_TOLS`` for every n in
``COMPLEX_NS``, and ``curvature --metric`` at each tolerance in
``METRIC_TOLS`` on two metric files written into a temporary directory
from a fixed rng (positive definite at n = 1, indefinite at n = 2).  Each
run is a fresh process with one BLAS thread.  Reports are
compared check by check, ignoring ``elapsed_ms``; a run that raises is
compared by the exception's type and message.  Without
``--parent`` the other revision is the last commit, unpacked with
``git archive HEAD`` into a temporary directory.

Prints every differing (command line, n, verb, check) with both values and
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (*range(1, 21), 30, 38, 54, 58, 84, 85, 86, 89)
NS = (1, 2, 3, 4, 5)
COMPLEX_TOLS = ("1e-14", "1e-6")
COMPLEX_NS = (1, 2, 3)
# the default --tol, and one that no float defect of a metric file meets
METRIC_TOLS = (None, "1e-17")
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


def _metric_files(tmp: Path) -> list[Path]:
    """A positive definite metric at n = 1 and an indefinite one at n = 2, as JSON files."""
    rng = np.random.default_rng(2022)
    paths = []
    for n, signs in ((1, (1,) * 6), (2, (1,) * 6 + (-1,) * 4)):
        b = rng.standard_normal((4 * n + 2, 4 * n + 2))
        s = 2.0 * np.diag(signs) + 0.25 * (b + b.T)
        paths.append(tmp / f"metric_n{n}.json")
        paths[-1].write_text(json.dumps({"n": n, "matrix": s.tolist()}))
    return paths


def _jobs(metric_files: list[Path]) -> list[list[str]]:
    """The argv of every run."""
    jobs = [["all", "--seed", str(seed)] for seed in SEEDS]
    jobs += [["all", "--seed", "1", "--n", str(n)] for n in NS]
    jobs += [["complex", "--seed", "1", "--n", str(n), "--tol", tol]
             for tol in COMPLEX_TOLS for n in COMPLEX_NS]
    jobs += [["curvature", "--metric", str(path)] + ([] if tol is None else ["--tol", tol])
             for path in metric_files for tol in METRIC_TOLS]
    return jobs


def _run(src: Path, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _WORKER, *argv, "--json"], env=env, check=True,
                          capture_output=True, text=True)
    out = json.loads(proc.stdout)
    reports = out.get("reports")
    if isinstance(reports, dict):
        out["reports"] = reports = [reports]
    for rep in reports or ():
        rep.pop("elapsed_ms", None)
    return out


def differences(where: str, a: dict, b: dict) -> list[str]:
    """Every differing (n, verb, check) of two runs of one command line, with both values."""
    if "error" in a or "error" in b:
        if a.get("error") != b.get("error"):
            return [f"{where}: {a.get('error', 'no exception')} != {b.get('error', 'no exception')}"]
        return []
    out = []
    for ra, rb in zip_longest(a["reports"], b["reports"]):
        if ra is None or rb is None or (ra["command"], ra["n"]) != (rb["command"], rb["n"]):
            out.append(f"{where}: report {ra and ra['command']} != {rb and rb['command']}")
            continue
        for ca, cb in zip_longest(ra["checks"], rb["checks"]):
            if ca != cb:
                name = (ca or cb)["name"]
                out.append(f"{where}, n {ra['n']}, {ra['command']}, {name}: {ca} != {cb}")
    if a["code"] != b["code"]:
        out.append(f"{where}: exit code {a['code']} != {b['code']}")
    return out


def compare(parent: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        jobs = _jobs(_metric_files(Path(tmp)))
        mine = [pool.submit(_run, ROOT / "src", job) for job in jobs]
        theirs = [pool.submit(_run, parent / "src", job) for job in jobs]
        diffs = [diff for job, fa, fb in zip(jobs, theirs, mine)
                 for diff in differences(" ".join(job), fa.result(), fb.result())]
    for diff in diffs:
        print(f"parent != change at {diff}")
    if diffs:
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
