"""heiscot benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload moduli_float --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own fresh process (``worker.py``) as a closed
loop with one client.  With ``--trace 0`` the untraced run gives the
end-to-end metrics; ``setup_s`` is the median over that process and
``SETUP_PROBES`` extra fresh processes that only set up.  With
``--trace 1`` a separate traced run gives the per-layer metrics.  Every
output is checked by the workload's oracle; machine conditions are
printed with every result and saved, with the metrics, under
``.bench_out/``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 6
RUN_LIMIT_S = 170.0
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# one client on one core: no BLAS helper threads competing for the other core
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _tail(latencies_ms: list[float]):
    """(percentile, value) of the highest ladder percentile with at least
    ten ops beyond it, or None when the run has too few ops."""
    count = len(latencies_ms)
    ordered = sorted(latencies_ms)
    for pct in TAIL_LADDER:
        rank = math.ceil(count * pct / 100.0) - 1     # nearest-rank percentile
        if count - 1 - rank >= 10:
            return pct, ordered[rank]
    return None


def _conditions() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at"]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned_at)], capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), cwd=ROOT,
                          env={**os.environ, **WORKER_ENV})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    conditions = _conditions()
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probes = 0 if trace else SETUP_PROBES
    # half the probes before the measured run and half after, so that the
    # median spans the run rather than one moment of the host's speed
    setups = [_spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(probes // 2)]
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    spans = ["--spans", str(OUT / f"spans-{stem}.jsonl")] if trace else []
    res = _spawn(base + ["--trace", str(trace)] + spans, deadline)
    setups += [_spawn(base + ["--setup-only"], deadline)["setup_s"]
               for _ in range(probes - probes // 2)]
    conditions["loadavg_after"] = os.getloadavg()
    conditions.update(workload=name, seed=seed, seconds=seconds, traced=bool(trace),
                      digests_checked=res["digests_checked"])

    lat_ms = [1000.0 * x for x in res["latencies_s"]]
    ok_ops = res["attempted"] - res["failed"]
    info = {
        "ops": res["attempted"],
        "failed_ops": res["failed"] / res["attempted"],
        "op_ms_tail": _tail(lat_ms),
    }
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
        info["spans"] = res["spans"]
    else:
        setups.append(res["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok_ops / res["wall_s"],
            "op_ms_p50": statistics.median(lat_ms),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        info["setup_s_samples"] = setups
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"conditions": conditions, "info": info, "errors": res["errors"],
                   **result}, fh, indent=1)
    _report(name, conditions, info, res["errors"], result)
    return result


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_frac", "calls_per_are_equivalent")):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def _report(name, conditions, info, errors, result) -> None:
    print(f"# {name}: conditions {json.dumps(conditions)}")
    for err in errors:
        print(f"# {name}: FAILED {err}")
    print(f"# {name}: {result['attempted']} ops, failed_ops = {info['failed_ops']:.4f} (share)")
    tail = info["op_ms_tail"]
    if tail is not None:
        print(f"# {name}: op_ms_tail = {tail[1]:.3f} ms (p{tail[0]:g}, {info['ops']} ops)")
    else:
        print(f"# {name}: op_ms_tail omitted ({info['ops']} ops, fewer than 10 beyond p50)")
    for key, m in result["metrics"].items():
        print(f"# {name}: {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heiscot benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "heiscot" / "__init__.py").is_file():
        print(f"error: no heiscot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
