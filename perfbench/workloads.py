"""The benchmark's workloads: seeded inputs, one op, and the output oracle.

Every workload builds a pool of inputs from the seed during set-up; op
``i`` runs on ``inputs[i % len(inputs)]``.  An untraced run does at least
``min_ops`` ops, even past ``--seconds``.  ``check`` returns None for a
correct output and a message otherwise.  ``digest`` condenses an exact
result; at ``DEFAULT_SEED`` the digests of the pool are pinned in
``digests.json`` so that a changed rational value is caught.

``heiscot`` is imported inside the set-up functions, so that importing
this module stays cheap and the import counts as set-up time.

Run ``python3 perfbench/workloads.py`` to recompute ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# (verb, n, check) rows that fail by design in the default n = 1..3 sweep
CATALOG_FAILS = frozenset(
    (verb, n, check)
    for n in (2, 3)
    for verb, check in (
        ("algebra", "derivation_dimension"),
        ("aut", "parameter_count"),
        ("reduce", "canonical_template_reached"),
        ("complex", "orbit_completeness"),
        ("kahler", "space_dimension"),
    )
)
CATALOG_VERBS = ("algebra", "aut", "reduce", "equiv", "adinv", "complex", "kahler", "curvature")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], list]
    run: Callable[[object], object]
    check: Callable[[object, object], str | None]
    digest: Callable[[object], str] | None
    trace_ops: int
    min_ops: int = 1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# catalog: the CLI sweep users run
#
# One sweep takes about 25 s, so a run repeats the seed's sweep twice
# (min_ops = 2): the run then spans two sweeps of the host's speed, not one.


def _catalog_setup(seed: int) -> list[int]:
    import heiscot.cli  # noqa: F401

    return [seed]


def _catalog_run(cli_seed: int, extra: tuple[str, ...] = ()):
    """(exit code, parsed JSON reports) of ``heiscot all --json --seed S``."""
    from heiscot import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["all", "--json", "--seed", str(cli_seed), *extra])
    return code, json.loads(buf.getvalue())


def _catalog_check(cli_seed, out) -> str | None:
    code, reports = out
    if code != 1:
        return f"exit code {code}, expected 1"
    seen = {(r["command"], r["n"]) for r in reports}
    expected = {(v, n) for v in CATALOG_VERBS for n in (1, 2, 3)}
    if seen != expected or len(reports) != len(expected):
        return f"reports for {sorted(seen)}"
    fails = set()
    for r in reports:
        for c in r["checks"]:
            if c["status"] != "pass":
                fails.add((r["command"], r["n"], c["name"]))
                if c["status"] != "fail":
                    return f"{r['command']} n={r['n']} {c['name']}: {c['status']}"
    if fails != CATALOG_FAILS:
        return f"unexpected {sorted(fails - CATALOG_FAILS)}, missing {sorted(CATALOG_FAILS - fails)}"
    return None


_FLOAT_TEXT = re.compile(r"\d\.\d|\de[-+]?\d")


def _catalog_digest(out) -> str:
    """Status table plus every detail that carries no float-formatted number."""
    rows = []
    for r in out[1]:
        for c in r["checks"]:
            detail = "" if _FLOAT_TEXT.search(c["detail"]) else c["detail"]
            rows.append([r["command"], r["n"], c["name"], c["status"], detail])
    return _sha(json.dumps(rows))


# ---------------------------------------------------------------------------
# kahler_sparse: exact certificate on a sparse connection


def _kahler_setup(seed: int, n: int = 3, count: int = 10) -> list:
    import numpy as np
    from heiscot import forms_kahler as fk

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = fk.random_omega_params(n, rng)
        if fk.is_nondegenerate(fk.build_omega(params)):
            out.append(params)
    return out


def _kahler_run(params) -> dict:
    from heiscot import forms_kahler

    return forms_kahler.certify_pseudo_kahler(params)


def _kahler_check(params, rep) -> str | None:
    missing = [k for k in ("ricci_zero", "summands_zero", "routes_agree") if not rep[k]]
    if missing:
        return f"certificate fails {missing}"
    if rep["flat"] or rep["witness"] is None:
        return "no curvature witness"
    if not isinstance(rep["witness"][4], Fraction):
        return f"witness value {rep['witness'][4]!r} is not exact"
    return None


def _kahler_digest(rep) -> str:
    keys = ("ricci_zero", "summands_zero", "routes_agree", "flat", "signature")
    return _sha(repr([rep[k] for k in keys] + [str(x) for x in rep["witness"]]))


# ---------------------------------------------------------------------------
# curvature_dense: both exact Ricci routes on a dense metric


def _dense_setup(seed: int, n: int = 3, count: int = 8) -> list:
    import numpy as np
    from heiscot import _exact, lie_core

    g = lie_core.build_thn(n)
    d = g.dim
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.integers(-2, 3, size=(d, d))
        if len(out) % 2 == 0:
            m = a @ a.T + 2 * d * np.eye(d, dtype=int)          # definite
        else:
            dg = np.eye(d, dtype=int)
            dg[0, 0] = -1
            b = a + 3 * np.eye(d, dtype=int)
            m = b.T @ dg @ b                                    # indefinite
        s = _exact.fmat(m.tolist())
        if _exact.det(s) != 0:
            out.append((g, s))
    return out


def _dense_run(inp):
    from heiscot import curvature

    g, s = inp
    ric = curvature.ricci_from_riemann(curvature.riemann(g, curvature.levi_civita(g, s)))
    return ric, curvature.ricci_nilpotent_formula(g, s)


def _dense_check(inp, out) -> str | None:
    r1, r2 = out
    for x, y in zip(r1.ravel(), r2.ravel()):
        if type(x) is not Fraction or type(y) is not Fraction:
            return f"non-Fraction Ricci entry {x!r} / {y!r}"
        if x != y:
            return f"Ricci routes differ: {x} != {y}"
    return None


def _dense_digest(out) -> str:
    return _sha(";".join(str(x) for x in out[0].ravel()))


# ---------------------------------------------------------------------------
# moduli_float: float orbit decisions and complex normalization at n = 4

# Fixed op mix.  Orbit-pair cost depends on where the search finds its
# match, so it spreads widely; with three normalizations per cycle the
# median latency falls inside one op kind and stays steady.
MODULI_CYCLE = ("orbit", "normalize", "repeated", "normalize", "normalize")
MODULI_TOL = 1e-9


def _moduli_setup(seed: int, n: int = 4, cycles: int = 20) -> list:
    import numpy as np
    from heiscot import automorphism, complex_structures, lie_core, metric_moduli

    g = lie_core.build_thn(n)
    fam = complex_structures.solve_integrable_family(n)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cycles):
        for kind in MODULI_CYCLE:
            if kind == "orbit":
                s = metric_moduli.random_positive_definite(g, rng)
                f = automorphism.random_automorphism(n, g, rng=rng, exact=False)
                out.append((kind, g, s, metric_moduli.act(f, s)))
            elif kind == "repeated":
                omega4 = float(rng.uniform(0.5, 2.0))
                s4 = np.eye(2 * n)
                s4[0, 1] = s4[1, 0] = float(rng.uniform(0.2, 0.5))
                ones = (1.0,) * n
                base = metric_moduli.CanonicalMetric(sigma=ones, S4bar=np.eye(2 * n), omega4=omega4)
                other = metric_moduli.CanonicalMetric(sigma=ones, S4bar=s4, omega4=omega4)
                out.append((kind, g, base.matrix(), other.matrix()))
            else:
                _, j = fam.sample(rng)
                f = automorphism.random_automorphism(n, g, rng=rng, exact=False)
                out.append((kind, g, np.linalg.solve(f.matrix, j @ f.matrix)))
    return out


def _moduli_run(inp):
    from heiscot import complex_structures, metric_moduli

    kind, g, *data = inp
    if kind == "normalize":
        return complex_structures.normalize_complex_structure(data[0], g, tol=MODULI_TOL)
    return metric_moduli.are_equivalent(data[0], data[1], g)


def _moduli_check(inp, out) -> str | None:
    import numpy as np

    kind, g, *data = inp
    if kind == "orbit" and (out.verdict != "equivalent" or out.witness is None):
        return f"orbit pair: verdict {out.verdict}"
    if kind == "repeated" and out.verdict != "inconclusive":
        return f"repeated-sigma pair: verdict {out.verdict}"
    if kind == "normalize":
        limit = MODULI_TOL * max(1.0, float(np.abs(data[0]).max()))
        if not float(out.residual) <= limit:
            return f"normalization residual {float(out.residual):.3e} > {limit:.3e}"
    return None


# Workloads kept runnable by name (and by ``--workload all``) but left out of
# BENCHMARK.json.  On a shared 2-core host the speed shifted by up to 40% for
# minutes at a time, so a gated run must be long to be steady, and the time
# the benchmark may take allows two such workloads: catalog, through every
# layer and half of it in the exact kernels that kahler_sparse and
# curvature_dense isolate, and moduli_float, the float search that bypasses them.
UNGATED = ("kahler_sparse", "curvature_dense")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="catalog",
            why="the CLI sweep users run (all verbs, n = 1..3): the only workload through "
                "every layer; its exact kahler and adinv verbs, 3/4 of it, are where "
                "exact-kernel changes act",
            setup=_catalog_setup, run=_catalog_run, check=_catalog_check,
            digest=_catalog_digest, trace_ops=1, min_ops=2,
        ),
        Workload(
            name="kahler_sparse",
            why="exact pseudo-Kahler certificates at n = 3: curvature on a sparse "
                "connection with small denominators, where sparse or fraction-free kernels act",
            setup=_kahler_setup, run=_kahler_run, check=_kahler_check,
            digest=_kahler_digest, trace_ops=6,
        ),
        Workload(
            name="curvature_dense",
            why="exact levi_civita/riemann/Ricci on dense integer metrics at n = 3: "
                "same kernels on a dense connection with large denominators",
            setup=_dense_setup, run=_dense_run, check=_dense_check,
            digest=_dense_digest, trace_ops=6,
        ),
        Workload(
            name="moduli_float",
            why="float orbit decisions and complex normalization at n = 4: the "
                "residual-group search, bypassing the exact kernels",
            setup=_moduli_setup, run=_moduli_run, check=_moduli_check,
            digest=None, trace_ops=10 * len(MODULI_CYCLE),
        ),
    )
}


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def pin_digests() -> dict[str, dict[str, str]]:
    """Digest every pooled exact result at DEFAULT_SEED (takes about 2 minutes)."""
    pinned = {}
    for w in WORKLOADS.values():
        if w.digest is None:
            continue
        pinned[w.name] = {}
        for idx, inp in enumerate(w.setup(DEFAULT_SEED)):
            out = w.run(inp)
            err = w.check(inp, out)
            if err is not None:
                raise SystemExit(f"{w.name}[{idx}] fails its oracle: {err}")
            pinned[w.name][str(idx)] = w.digest(out)
    return pinned


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with open(DIGESTS, "w") as fh:
        json.dump(pin_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
