"""Time the exact and structure-constant kernels at n = 1..5 and write a BENCH_*.json.

Usage (from the repository root)::

    python scripts/bench_kernels.py [--parent DIR] [--out FILE]

Each kernel is timed with ``time.perf_counter`` on fixed seeded inputs,
for every n in ``NS``.  One sample calls the kernel until it has run for
``MIN_SAMPLE_S`` seconds (at least once) and records the time per call,
so that a sub-millisecond kernel is not timed below the host's drift;
the best of ``REPEAT`` samples is kept (caches that live as long as the
algebra are then warm).  The kernels:

* ``integrability_report`` on a rational family member (exact) and on an
  automorphism conjugate of a float family member (float);
* float ``bracket_defect`` of a random automorphism;
* ``hermitian_metric_space``;
* exact ``hermitian_defect`` of J0 against a rational symmetric matrix;
* exact ``inv`` of a pseudo-Kahler metric and ``det`` of an exact
  automorphism;
* exact ``riemann`` of that metric's connection, and
  ``certify_pseudo_kahler`` of its parameters;
* ``random_ad_invariant``, one exact draw;
* ``derivation_algebra``, the largest sparse nullspace, and the exact
  ``signature`` (``ldl_inertia``) of the pseudo-Kahler metric;
* the other exact solution spaces: ``LieAlgebra.center``,
  ``ad_invariant_solution_space`` (``ad_invariant_space``) and
  ``closed_invariant_space``;
* ``reduce_with_diagnostics`` of a random metric, at n = 1 only
  (``reduce_n1``), where step 2 kills t1 and t4 together;
* ``are_equivalent`` on an orbit pair (a random metric and its pullback
  by a random automorphism) and on a repeated-sigma pair (two templates
  with sigma = (1, ..., 1) that the residual group does not align);
* ``residual_group_table``, the uncached build of the residual finite
  group's table (``metric_moduli._residual_group.__wrapped__``);
* ``residual_search_orbit`` and ``residual_search_repeated``, the
  residual-group search alone (``metric_moduli._residual_group_matches``)
  on the orbit and repeated-sigma pairs above, reduced once beforehand;
* ``complement_system``, the matrix of the adapted normalization's
  invariant-complement system, from random blocks of its shapes, at
  n >= 2 (the only n that builds it);
* float ``LieAlgebra.bracket`` of two random vectors;
* ``normalize_complex_structure`` of the automorphism conjugate of a float
  family member, which takes the adapted route;
* float ``second_bianchi_defect`` of a random positive definite metric.

The kernels of this checkout's ``src/`` are always timed.  With
``--parent DIR``, where DIR holds another revision of the repository (for
example unpacked with ``git archive``), the same inputs are timed against
``DIR/src`` too, in ``ROUNDS`` alternating rounds (this checkout first,
then the parent first, and so on), and each side keeps its best time per
kernel, so drift of the host over the run hits both sides alike.  Every
revision runs in its own process with one BLAS thread.  The result goes
to ``--out`` (``BENCH_structure_kernels.json`` at the repository root by
default), with the machine conditions it was measured under.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3
ROUNDS = 3
MIN_SAMPLE_S = 0.05
NS = (1, 2, 3, 4, 5)
KERNELS = ("integrability_report_exact", "integrability_report_float", "bracket_defect_float",
           "hermitian_metric_space", "hermitian_defect_exact", "inv_exact", "det_exact",
           "riemann_exact", "certify_pseudo_kahler", "random_ad_invariant", "nullspace_exact",
           "ldl_inertia_exact", "center", "ad_invariant_space", "closed_invariant_space", "reduce_n1",
           "are_equivalent_orbit", "are_equivalent_repeated", "residual_group_table",
           "residual_search_orbit", "residual_search_repeated", "complement_system",
           "bracket_float", "normalize_adapted_float", "second_bianchi_float")


def _inputs(n):
    from fractions import Fraction

    import numpy as np

    from heiscot._exact import fmat
    from heiscot.automorphism import random_automorphism
    from heiscot.complex_structures import IntegrableFamily, standard_complex_structure
    from heiscot.forms_kahler import build_omega, is_nondegenerate, pseudo_kahler_metric, random_omega_params
    from heiscot.lie_core import build_thn
    from heiscot.metric_moduli import CanonicalMetric, act, random_positive_definite, reduce_with_diagnostics

    g = build_thn(n)
    rng = np.random.default_rng(100 + n)
    a3, b3 = (fmat(rng.integers(-3, 4, size=(n, n)).tolist()) for _ in range(2))
    # the family member (+1, n2 = 3/2, [[A, B], [B, -A]]), written into J0
    # entry by entry, so that every revision builds the same exact matrix
    j_exact = standard_complex_structure(n, exact=True)
    j_exact[2 * n, -1], j_exact[-1, 2 * n] = Fraction(3, 2), Fraction(-2, 3)
    j_exact[2 * n + 1 : 4 * n + 1, : 2 * n] = np.block([[a3, b3], [b3, -a3]])
    fam = IntegrableFamily(n)
    _, j = fam.sample(rng)
    f = random_automorphism(n, g, rng=rng).matrix
    j_float = np.linalg.solve(f, j @ f)
    aut = random_automorphism(n, g, rng=rng).matrix
    a = fmat(rng.integers(-3, 4, size=(g.dim, g.dim)).tolist())
    while True:
        params = random_omega_params(n, rng)
        omega = build_omega(params)
        if is_nondegenerate(omega):
            break
    aut_exact = random_automorphism(n, g, rng=rng, exact=True).matrix
    s = random_positive_definite(g, rng)
    orbit = (s, act(random_automorphism(n, g, rng=rng), s))
    ones = (1.0,) * n
    s4 = np.eye(2 * n)
    s4[0, 1] = s4[1, 0] = 0.4
    repeated = (CanonicalMetric(sigma=ones, S4bar=np.eye(2 * n), omega4=1.5).matrix(),
                CanonicalMetric(sigma=ones, S4bar=s4, omega4=1.5).matrix())
    reduced = {name: tuple(reduce_with_diagnostics(x, g) for x in pair)
               for name, pair in (("orbit", orbit), ("repeated", repeated))}
    blocks = (rng.standard_normal((2 * n, 2 * n)), rng.standard_normal((2 * n + 1, 2 * n + 1)),
              rng.standard_normal(2 * n + 1))
    return (g, j_exact, j_float, aut, standard_complex_structure(n, exact=True), a + a.T,
            params, pseudo_kahler_metric(omega, n), aut_exact, orbit, repeated, reduced, blocks)


def _worker():
    import numpy as np

    from heiscot._exact import det, inv
    from heiscot.adinvariant import ad_invariant_solution_space, random_ad_invariant
    from heiscot.automorphism import bracket_defect
    from heiscot.complex_structures import (_complement_system, hermitian_defect, hermitian_metric_space,
                                            integrability_report, normalize_complex_structure)
    from heiscot.curvature import levi_civita, riemann, second_bianchi_defect, signature
    from heiscot.forms_kahler import certify_pseudo_kahler, closed_invariant_space
    from heiscot.lie_core import derivation_algebra
    from heiscot.metric_moduli import (_residual_group, _residual_group_matches, are_equivalent,
                                       reduce_with_diagnostics)

    def best(fn):
        times = []
        for _ in range(REPEAT):
            calls = 0
            t0 = perf_counter()
            while (elapsed := perf_counter() - t0) < MIN_SAMPLE_S or not calls:
                fn()
                calls += 1
            times.append(elapsed / calls)
        return round(1000 * min(times), 4)

    out = {k: {} for k in KERNELS}
    for n in NS:
        (g, j_exact, j_float, aut, j0, s, params, metric, aut_exact, orbit, repeated, reduced,
         blocks) = _inputs(n)
        gamma = levi_civita(g, metric)
        rng = np.random.default_rng(n)
        out["integrability_report_exact"][n] = best(lambda: integrability_report(j_exact, g))
        out["integrability_report_float"][n] = best(lambda: integrability_report(j_float, g))
        out["bracket_defect_float"][n] = best(lambda: bracket_defect(aut, g))
        out["hermitian_metric_space"][n] = best(lambda: hermitian_metric_space(n))
        out["hermitian_defect_exact"][n] = best(lambda: hermitian_defect(j0, s))
        out["inv_exact"][n] = best(lambda: inv(metric))
        out["det_exact"][n] = best(lambda: det(aut_exact))
        out["riemann_exact"][n] = best(lambda: riemann(g, gamma))
        out["certify_pseudo_kahler"][n] = best(lambda: certify_pseudo_kahler(params))
        out["random_ad_invariant"][n] = best(lambda: random_ad_invariant(g, rng))
        out["nullspace_exact"][n] = best(lambda: derivation_algebra(g))
        out["ldl_inertia_exact"][n] = best(lambda: signature(metric))
        out["center"][n] = best(lambda: g.center())
        out["ad_invariant_space"][n] = best(lambda: ad_invariant_solution_space(g))
        out["closed_invariant_space"][n] = best(lambda: closed_invariant_space(n))
        if n == 1:
            out["reduce_n1"][n] = best(lambda: reduce_with_diagnostics(orbit[0], g))
        out["are_equivalent_orbit"][n] = best(lambda: are_equivalent(*orbit, g))
        out["are_equivalent_repeated"][n] = best(lambda: are_equivalent(*repeated, g))
        out["residual_group_table"][n] = best(lambda: _residual_group.__wrapped__(g))
        for name in ("orbit", "repeated"):
            out[f"residual_search_{name}"][n] = best(lambda: _residual_group_matches(*reduced[name], g, 1e-6))
        if n >= 2:
            out["complement_system"][n] = best(lambda: _complement_system(*blocks))
        x, y = np.random.default_rng(200 + n).standard_normal((2, g.dim))
        out["bracket_float"][n] = best(lambda: g.bracket(x, y))
        out["normalize_adapted_float"][n] = best(lambda: normalize_complex_structure(j_float, g))
        gamma_f = levi_civita(g, orbit[0])
        riem_f = riemann(g, gamma_f)
        out["second_bianchi_float"][n] = best(lambda: second_bianchi_defect(g, gamma_f, riem_f))
    json.dump(out, sys.stdout)


def _run(src):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--worker"]
    return json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout)


def _best_of(runs):
    """Per kernel and n, the fastest time over several worker runs."""
    return {k: {n: min(r[k][n] for r in runs) for n in runs[0][k]} for k in KERNELS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, help="another revision's checkout to time against")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_structure_kernels.json")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        _worker()
        return
    import numpy as np

    load_before = os.getloadavg()
    result = {"what": f"kernel wall time in ms per call, best of {REPEAT} samples "
                      f"of at least {MIN_SAMPLE_S} s, per n"}
    if args.parent is None:
        result["change"] = _run(ROOT / "src")
    else:
        result["what"] += f", best of {ROUNDS} alternating rounds per side"
        srcs = {"change": ROOT / "src", "parent": args.parent / "src"}
        runs = {"change": [], "parent": []}
        for r in range(ROUNDS):
            for side in ("change", "parent") if r % 2 == 0 else ("parent", "change"):
                runs[side].append(_run(srcs[side]))
        result["change"] = _best_of(runs["change"])
        result["parent"] = _best_of(runs["parent"])
        result["speedup"] = {k: {n: round(result["parent"][k][n] / result["change"][k][n], 2)
                                 for n in result["change"][k]} for k in KERNELS}
    result["machine"] = {
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
