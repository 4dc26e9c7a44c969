"""One workload in one fresh process: set up, run a closed loop, check every output.

Started by ``run.py``; prints a single JSON line with the raw measurements.

- ``setup_s`` runs from ``--spawned-at`` (the parent's ``time.monotonic()``
  just before it started this process; the clock is system-wide) to the
  end of set-up: interpreter start, ``import heiscot``, the algebras and
  the seeded inputs.  ``--setup-only`` stops there.
- Untraced, ops run back to back (one client) until the next op would
  end after ``--seconds``; at least the workload's ``min_ops`` ops run.
- Traced, exactly ``trace_ops`` ops run under the span tracer, so that
  counts repeat exactly for a given seed; the spans are written to
  ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_digests  # noqa: E402


def _cli_ms(outputs) -> dict[str, float]:
    """The program's own elapsed_ms per catalog verb, summed over n and ops."""
    total: dict[str, float] = {}
    for _, reports in outputs:
        for r in reports:
            total[r["command"]] = total.get(r["command"], 0) + r["elapsed_ms"]
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=str, default=None)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    inputs = w.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pinned = load_digests().get(w.name, {}) if args.seed == DEFAULT_SEED and w.digest else {}
    tracer = Tracer() if args.trace else None
    latencies, errors, cli_outputs = [], [], []
    attempted = failed = 0

    def one_op(i: int) -> None:
        nonlocal attempted, failed
        inp = inputs[i % len(inputs)]
        attempted += 1
        err = None
        t0 = time.perf_counter()
        try:
            out = w.run(inp)
        except Exception:
            err = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = w.check(inp, out)
                want = pinned.get(str(i % len(inputs)))
                if err is None and want is not None and w.digest(out) != want:
                    err = f"digest of input {i % len(inputs)} differs from the pinned one"
            except Exception:        # a malformed output is a failed op, not a crash
                err = traceback.format_exc(limit=3)
            if err is None and tracer is not None and w.name == "catalog":
                cli_outputs.append(out)
        if err is not None:
            failed += 1
            errors.append(f"op {i}: {err}")

    t_start = time.perf_counter()
    if tracer is not None:
        with tracer:
            for i in range(w.trace_ops):
                tracer.op = i
                one_op(i)
    else:
        i = 0
        while True:
            one_op(i)
            i += 1
            elapsed = time.perf_counter() - t_start
            if i >= w.min_ops and elapsed + elapsed / i > args.seconds:
                break
    wall_s = time.perf_counter() - t_start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "digests_checked": bool(pinned),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s, _cli_ms(cli_outputs))
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
