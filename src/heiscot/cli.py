"""Verification command line: one subcommand per result family.

Each verb runs a deterministic, seeded check suite for the requested n
and prints a report; ``--json`` switches to a machine-readable dump with
the same content.  A check has status pass, fail or inconclusive.  The
exit code is 0 exactly when no check failed.

The checks state the classification claims as given, including the
closed-form dimension counts.  Where a count disagrees with the exact
computation (this happens for n >= 2 in three places: the
derivation/automorphism dimension, the reachability of the diagonal
metric template, and the dimension of the closed invariant 2-forms,
each with the corrected value in the check detail), the check fails
honestly rather than moving the goalposts; n = 1 passes everything.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from . import _exact
from ._exact import SparseQ, maxabs, negligible
from .adinvariant import (
    ad_invariant_solution_space,
    ad_invariance_defect,
    certify_flat,
    normalize_ad_invariant,
    pairing_metric,
    random_ad_invariant,
    solution_space_dimension,
    template_defect,
)
from .automorphism import (
    assemble,
    aut_parameter_dimension,
    is_automorphism,
    random_automorphism,
)
from .complex_structures import (
    NotInFamily,
    hermitian_metric_space,
    is_abelian_complex_structure,
    is_integrable,
    normalize_complex_structure,
    sign_reversing_automorphism,
    signed_plane_member,
    solve_integrable_family,
    standard_complex_structure,
)
from .curvature import (
    compatibility_defect,
    first_bianchi_defect,
    is_flat,
    levi_civita,
    ricci_from_riemann,
    ricci_nilpotent_formula,
    riemann,
    scalar_curvature,
    second_bianchi_defect,
    signature,
    torsion_defect,
)
from .forms_kahler import (
    DegenerateOmega,
    OmegaParams,
    certify_pseudo_kahler,
    closed_invariant_space,
    omega_parameter_count,
    random_omega_params,
)
from .lie_core import (
    build_heisenberg,
    build_thn,
    cotangent_algebra,
    cotangent_reorder_permutation,
    derivation_algebra,
    n_of,
    relabel,
)
from .metric_moduli import (
    CanonicalMetric,
    act,
    are_equivalent,
    free_parameter_count,
    random_positive_definite,
    reduce_with_diagnostics,
)

__all__ = ["main", "run"]


@dataclass
class Check:
    name: str
    status: str          # pass | fail | inconclusive
    detail: str


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return Check(name=name, status="pass" if ok else "fail", detail=detail)


# ---------------------------------------------------------------------------
# verb implementations


def _algebra_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    out = [
        _check("jacobi_identity", g.jacobi_defect() == 0, "exact"),
        _check("two_step_nilpotent", g.is_two_step_nilpotent(), ""),
    ]
    center = g.center()
    derived = g.derived_subalgebra()
    out.append(_check(
        "center_equals_derived",
        len(center) == 2 * n + 1 and len(derived) == 2 * n + 1,
        f"dim center = {len(center)}, dim derived = {len(derived)}",
    ))
    h = build_heisenberg(n)
    cot = relabel(cotangent_algebra(h), cotangent_reorder_permutation(n))
    out.append(_check(
        "coadjoint_extension_matches",
        cot.constants == g.constants,
        "semidirect sum by the coadjoint action reproduces the bracket table",
    ))
    ders = derivation_algebra(g)
    claimed = 6 * n * n + 9 * n + 3
    corrected = 6 * n * n + 7 * n + 3 + (2 if n == 1 else 0)
    out.append(_check(
        "derivation_dimension",
        len(ders) == claimed,
        f"computed {len(ders)}, stated {claimed}, corrected closed form {corrected}",
    ))
    out.append(_check(
        "derivations_match_automorphism_parameters",
        len(ders) == aut_parameter_dimension(n),
        f"dim Der = {len(ders)} = automorphism parameter count",
    ))
    return out


def _aut_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    samples = [random_automorphism(n, g, rng=rng, exact=True) for _ in range(5)]
    out = [_check(
        "assembled_samples_preserve_brackets",
        all(is_automorphism(a.matrix, g) for a in samples),
        "5 random block assemblies, exact check",
    )]
    prod = samples[0] @ samples[1]
    inv = samples[2].inverse()
    out.append(_check(
        "closure_under_product_and_inverse",
        is_automorphism(prod.matrix, g) and is_automorphism(inv.matrix, g),
        "exact",
    ))
    if n >= 2:
        u1 = _exact.fzeros(2 * n)
        u1[0] = Fraction(1)
        try:
            assemble(g, u1=u1)
            rejected = False
        except ValueError:
            rejected = True
        out.append(_check("u1_forced_zero", rejected,
                          "nonzero u1 breaks bracket preservation for n >= 2"))
    else:
        out.append(_check("u1_free_for_n1", True, "checked by the sampler above"))
    claimed = 6 * n * n + 9 * n + 3
    actual = aut_parameter_dimension(n)
    out.append(_check(
        "parameter_count",
        actual == claimed,
        f"computed {actual}, stated {claimed}",
    ))
    return out


def _reduce_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    trials = 15
    sigma_ok = aut_ok = template_ok = removable_ok = 0
    worst_t4 = 0.0
    for _ in range(trials):
        s = random_positive_definite(g, rng)
        r = reduce_with_diagnostics(s, g)
        c = r.canonical
        sig = np.array(c.sigma)
        if (np.diff(sig) <= 1e-9).all() and negligible(sig[-1] - 1.0, 1e-9) \
                and c.omega4 > 0 and negligible(c.template_zero_defect(), 1e-9):
            sigma_ok += 1
        if is_automorphism(r.automorphism.matrix, g, tol=1e-12):
            aut_ok += 1
        if negligible(r.residual, 1e-9, s):
            template_ok += 1
        # residual away from the center-pairing slots must always vanish
        diff = np.abs(r.reduced - c.matrix())
        m = 2 * n + 1
        diff[m : m + 2 * n, 4 * n + 1] = 0.0
        diff[4 * n + 1, m : m + 2 * n] = 0.0
        if negligible(diff.max(), 1e-8, s):
            removable_ok += 1
        worst_t4 = max(worst_t4, float(np.abs(r.t4).max()))
    out = [
        _check("sigma_sorted_normalized", sigma_ok == trials,
               f"{sigma_ok}/{trials} with descending sigma, sigma_n = 1, omega4 > 0"),
        _check("reducing_map_is_automorphism", aut_ok == trials, f"{aut_ok}/{trials}"),
        _check("removable_residual_vanishes", removable_ok == trials,
               f"{removable_ok}/{trials} outside the center-pairing slots"),
        _check("canonical_template_reached", template_ok == trials,
               f"{template_ok}/{trials}; residual center pairing |t4| up to "
               f"{worst_t4:.2e} has no template slot for n >= 2"),
        _check("moduli_parameter_count",
               free_parameter_count(n) == n * (2 * n + 1),
               f"template count {free_parameter_count(n)} = n(2n+1); "
               f"with the invariant center pairing the orbit count is n(2n+3) for n >= 2"),
    ]
    return out


def _equiv_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    trials = 6
    sig_ok = 0
    verdicts = []
    for _ in range(trials):
        s = random_positive_definite(g, rng)
        f = random_automorphism(n, g, rng=rng, exact=False)
        res = are_equivalent(s, act(f, s), g)
        sigma1, sigma2 = res.detail["sigma1"], res.detail["sigma2"]
        if negligible(maxabs(np.array(sigma1) - np.array(sigma2)), 1e-6, sigma1):
            sig_ok += 1
        verdicts.append(res.verdict)
    out = [_check("sigma_multiset_invariant", sig_ok == trials, f"{sig_ok}/{trials}")]
    wrong = verdicts.count("distinct")
    out.append(_check(
        "orbit_pairs_never_reported_distinct", wrong == 0,
        f"verdicts: { {v: verdicts.count(v) for v in sorted(set(verdicts))} }",
    ))
    sep = tuple(float(n - i) for i in range(n))
    c1 = CanonicalMetric(sigma=sep, S4bar=np.eye(2 * n), omega4=1.0)
    if n == 1:
        # sigma carries no information at n = 1; the full template does
        c2 = CanonicalMetric(sigma=(1.0,), S4bar=2.0 * np.eye(2), omega4=1.0)
    else:
        c2 = CanonicalMetric(sigma=(float(n + 1),) + sep[1:], S4bar=np.eye(2 * n), omega4=1.0)
    verdict = are_equivalent(c1.matrix(), c2.matrix(), g).verdict
    out.append(_check("distinct_inputs_detected", verdict == "distinct", f"verdict {verdict}"))
    if n >= 2:
        rep = (1.0,) * n
        base = CanonicalMetric(sigma=rep, S4bar=np.eye(2 * n), omega4=1.0)
        other_s4 = np.eye(2 * n)
        other_s4[0, 1] = other_s4[1, 0] = 0.4
        other = CanonicalMetric(sigma=rep, S4bar=other_s4, omega4=1.0)
        res = are_equivalent(base.matrix(), other.matrix(), g)
        out.append(_check("repeated_sigma_is_inconclusive", res.verdict == "inconclusive",
                          f"verdict {res.verdict} (a wrong 'distinct' would be an error)"))
    return out


def _adinv_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    basis = ad_invariant_solution_space(g)
    expect = solution_space_dimension(n)
    out = [_check("solution_space_dimension", len(basis) == expect,
                  f"computed {len(basis)}, closed form (2n+1)(2n+2)/2 + 1 = {expect}")]
    tmpl_ok = all(template_defect(b)[0] == 0 for b in basis)
    out.append(_check("solution_matches_template", tmpl_ok,
                      "every basis element is [[Sbar, a E],[a E, 0]]"))
    norm_ok = 0
    for _ in range(5):
        s = random_ad_invariant(g, rng)
        res = normalize_ad_invariant(s, g)
        if res.residual == 0 and is_automorphism(res.automorphism.matrix, g):
            norm_ok += 1
    out.append(_check("normalization_to_pairing_exact", norm_ok == 5, f"{norm_ok}/5 exact"))
    p = pairing_metric(n, exact=True)
    out.append(_check("pairing_ad_invariant", ad_invariance_defect(g, p) == 0, "exact"))
    out.append(_check("neutral_signature", signature(p) == (2 * n + 1, 2 * n + 1, 0),
                      f"signature {signature(p)}"))
    cert = certify_flat(p, g)
    out.append(_check("connection_is_half_ad", cert["half_ad_defect"] == 0, "exact"))
    out.append(_check("flat", cert["flat"] and cert["riemann_max"] == 0, "exact"))
    return out


def _complex_checks(n: int, seed: int, tol: float) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    j0 = standard_complex_structure(n, exact=True)
    out = [_check("reference_structure_integrable", is_integrable(j0, g), "exact")]
    # R is invertible, so R^{-1} J0 R = -J0 is J0 R + R J0 = 0: no inverse needed
    refl = SparseQ.from_dense(sign_reversing_automorphism(g).matrix)
    j0q = SparseQ.from_dense(j0)
    out.append(_check(
        "signs_are_one_orbit",
        (j0q @ refl + refl @ j0q).maxabs() == 0,
        "an explicit reflection conjugates the reference structure to its negative",
    ))
    fam = solve_integrable_family(n)
    hist = {1: 0, -1: 0}
    fam_ok = norm_ok = 0
    trials = 50
    for _ in range(trials):
        params, j = fam.sample(rng)
        if is_integrable(j, g):
            fam_ok += 1
        res = normalize_complex_structure(j, g, tol=tol)
        if negligible(float(res.residual), tol, j):
            norm_ok += 1
            hist[res.epsilon] += 1
    out.append(_check("family_ok", fam_ok == trials, f"{fam_ok}/{trials} members integrable"))
    out.append(_check(
        "normalized_count", norm_ok == trials,
        f"{norm_ok}/{trials}; epsilon_histogram {{+1: {hist[1]}, -1: {hist[-1]}}}",
    ))
    conj_ok = 0
    conj_trials = 5
    for _ in range(conj_trials):
        _, j = fam.sample(rng)
        f = random_automorphism(n, g, rng=rng, exact=False)
        jc = np.linalg.solve(f.matrix, np.asarray(j) @ f.matrix)
        try:
            res = normalize_complex_structure(jc, g, tol=tol)
            if negligible(float(res.residual), tol, jc):
                conj_ok += 1
        except NotInFamily:
            pass
    out.append(_check("conjugates_normalize", conj_ok == conj_trials,
                      f"{conj_ok}/{conj_trials} automorphism conjugates"))
    ab, wit = is_abelian_complex_structure(j0, g)
    out.append(_check("not_abelian", not ab and wit is not None, f"witness pair {wit}"))
    sp = hermitian_metric_space(n)
    out.append(_check(
        "hermitian_template_dimension",
        sp.dimension == sp.expected_dimension,
        f"dim {sp.dimension} = n^2 + n - 1",
    ))
    if n == 1:
        out.append(_check("orbit_completeness", True,
                          "every integrable structure normalizes to the reference one"))
    else:
        signs = [1] * n
        signs[-1] = -1
        jm = signed_plane_member(signs)
        escaped = False
        if is_integrable(jm, g):
            try:
                normalize_complex_structure(jm, g, tol=tol)
            except NotInFamily:
                escaped = True
        out.append(_check(
            "orbit_completeness", not escaped,
            "mixed-sign plane rotations are integrable but not conjugate to the "
            "reference structure; the single-orbit claim fails for n >= 2",
        ))
    return out


def _kahler_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    space = closed_invariant_space(n)
    claimed = 5 if n == 1 else (3 * n * n + n + 2) // 2
    out = [_check(
        "space_dimension",
        len(space) == claimed,
        f"computed {len(space)}, stated {claimed}, corrected 2n^2 + 1 (+2 extras at n = 1)",
    )]
    out.append(_check(
        "template_spans_space",
        omega_parameter_count(n) == len(space),
        f"template parameters {omega_parameter_count(n)}",
    ))
    mu_only = OmegaParams(n=n, mu=Fraction(1))
    rep = certify_pseudo_kahler(mu_only)
    out.append(_check(
        "mu_form_ricci_flat_not_flat",
        rep["ricci_zero"] and rep["summands_zero"] and not rep["flat"] and rep["witness"] is not None,
        f"witness R({rep['witness'][0]}, {rep['witness'][1]}) {rep['witness'][2]} -> "
        f"{rep['witness'][4]} {rep['witness'][3]}; signature {rep['signature']}"
        if rep["witness"] else "no witness",
    ))
    sample_count = 4 if n <= 2 else 2
    ok = tried = 0
    for _ in range(sample_count):
        params = random_omega_params(n, rng)
        try:
            r = certify_pseudo_kahler(params)
        except DegenerateOmega:
            continue
        tried += 1
        if r["ricci_zero"] and r["summands_zero"] and r["routes_agree"]:
            ok += 1
    out.append(_check(
        "random_samples_ricci_flat", tried > 0 and ok == tried,
        f"{ok}/{tried} nondegenerate rational draws, exact certificates",
    ))
    p = pairing_metric(n, exact=True)
    gam = levi_civita(g, p)
    rt = riemann(g, gam)
    out.append(_check(
        "pairing_contrast_flat",
        is_flat(rt),
        "the invariant pairing metric is flat; the induced metrics are not",
    ))
    return out


def _metric_checks(s: np.ndarray, tol: float) -> list[Check]:
    """The curvature checks of a metric read from a file (``curvature --metric``)."""
    g = build_thn(n_of(s))
    gam = levi_civita(g, s)
    rt = riemann(g, gam)
    out = [
        _check("connection_ok",
               negligible(torsion_defect(g, gam), tol, s)
               and negligible(compatibility_defect(g, s, gam), tol, s),
               "torsion-free and metric"),
        _check("bianchi_ok",
               negligible(first_bianchi_defect(rt), tol, s)
               and negligible(second_bianchi_defect(g, gam, rt), tol, s, power=2),
               "first and second identities"),
    ]
    out.append(Check("ricci", "pass", f"max |ric| = {np.abs(ricci_from_riemann(rt)).max():.3e}"))
    out.append(Check("signature", "pass", str(signature(s))))
    out.append(Check("flat", "pass", str(is_flat(rt))))
    return out


def _curvature_checks(n: int, seed: int) -> list[Check]:
    g = build_thn(n)
    rng = np.random.default_rng(seed)
    d = g.dim
    ident = np.eye(d)
    gam = levi_civita(g, ident)
    half_z = np.zeros(d)
    half_z[d - 1] = 0.5
    half_f = np.zeros(d)
    half_f[n] = -0.5
    out = [_check(
        "identity_metric_connection",
        np.abs(gam[0, n] - half_z).max() < 1e-14 and np.abs(gam[0, d - 1] - half_f).max() < 1e-14,
        "nabla_{e1} f1 = z/2 and nabla_{e1} z = -f1/2",
    )]
    rt = riemann(g, gam)
    out.append(_check(
        "identity_metric_not_flat",
        np.abs(rt[0, n]).max() > 0.5,
        f"max |R(e1, f1)| = {np.abs(rt[0, n]).max():.3f}",
    ))
    if n == 1:
        ric = ricci_from_riemann(rt)
        out.append(_check(
            "identity_metric_scalar_curvature",
            abs(scalar_curvature(ident, ric) + 1.5) < 1e-12,
            "trace -3/2",
        ))
    s = random_positive_definite(g, rng)
    gam = levi_civita(g, s)
    rt = riemann(g, gam)
    out.append(_check(
        "connection_invariants",
        negligible(torsion_defect(g, gam), 1e-9, s)
        and negligible(compatibility_defect(g, s, gam), 1e-9, s),
        "random metric: torsion-free and metric-compatible",
    ))
    out.append(_check(
        "bianchi_identities",
        negligible(first_bianchi_defect(rt), 1e-8, s)
        and negligible(second_bianchi_defect(g, gam, rt), 1e-7, s, power=2),
        "",
    ))
    routes_gap = maxabs(ricci_from_riemann(rt) - ricci_nilpotent_formula(g, s))
    out.append(_check(
        "ricci_routes_agree",
        negligible(routes_gap, 1e-8, s, power=2),
        f"max difference {routes_gap:.2e}",
    ))
    p = pairing_metric(n, exact=True)
    out.append(_check("pairing_signature_neutral",
                      signature(p) == (2 * n + 1, 2 * n + 1, 0), str(signature(p))))
    return out


_VERBS = {
    "algebra": _algebra_checks,
    "aut": _aut_checks,
    "reduce": _reduce_checks,
    "equiv": _equiv_checks,
    "adinv": _adinv_checks,
    "complex": _complex_checks,
    "kahler": _kahler_checks,
    "curvature": _curvature_checks,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heiscot",
        description="verify the classification results on the cotangent "
                    "extension of the Heisenberg algebra",
    )
    ap.add_argument("command", choices=sorted(_VERBS) + ["all"])
    ap.add_argument("--n", type=int, default=None, help="Heisenberg parameter (default 1; 'all' sweeps 1..3)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--json", action="store_true", dest="as_json")
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="float residual tolerance, read only by complex and curvature --metric")
    ap.add_argument("--metric", type=str, default=None, help="JSON metric file for the curvature verb")
    return ap


class BadInput(ValueError):
    """Unusable command-line input; reported in one line with exit code 2."""


def _load_metric(path: str, n: int | None) -> tuple[int, np.ndarray]:
    """(n, matrix) from a ``{"n": ..., "matrix": [[...]]}`` file.

    n comes from --n, else from the file, else defaults to 1; the two must
    agree when both are given.  The matrix must be a finite, symmetric,
    nonsingular (4n+2) x (4n+2) array.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read metric file {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadInput(f"metric file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise BadInput('metric file must hold an object {"n": ..., "matrix": [[...]]}')
    file_n = payload.get("n")
    if file_n is not None and (type(file_n) is not int or file_n < 1):
        raise BadInput(f"metric file has n = {file_n!r}, expected an integer >= 1")
    if n is not None and file_n is not None and n != file_n:
        raise BadInput(f"--n {n} disagrees with n = {file_n} in the metric file")
    n = n or file_n or 1
    try:
        s = np.array(payload["matrix"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadInput("metric matrix must be an array of numbers") from exc
    d = 4 * n + 2
    if s.shape != (d, d):
        raise BadInput(f"metric matrix has shape {s.shape}, expected {(d, d)} for n = {n}")
    if not np.isfinite(s).all():
        raise BadInput("metric matrix has non-finite entries")
    if not negligible(maxabs(s - s.T), 1e-12, s):
        raise BadInput("metric matrix is not symmetric")
    if np.linalg.matrix_rank(s) < d:
        raise BadInput("metric matrix is singular")
    return n, s


def _run_verb(verb: str, checks_of, n: int, seed: int) -> dict:
    t0 = time.perf_counter()
    checks = checks_of(n, seed)
    elapsed = int(1000 * (time.perf_counter() - t0))
    return {
        "command": verb,
        "n": n,
        "seed": seed,
        "checks": [vars(c) for c in checks],
        "elapsed_ms": elapsed,
    }


def _print_report(rep: dict) -> None:
    print(f"[{rep['command']}] n={rep['n']} seed={rep['seed']}")
    width = max((len(c["name"]) for c in rep["checks"]), default=0)
    for c in rep["checks"]:
        mark = {"pass": "pass", "fail": "FAIL", "inconclusive": "????"}[c["status"]]
        line = f"  {mark}  {c['name']:<{width}}"
        if c["detail"]:
            line += f"  {c['detail']}"
        print(line)
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for c in rep["checks"]:
        counts[c["status"]] += 1
    print(f"  {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['inconclusive']} inconclusive ({rep['elapsed_ms']} ms)")


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    for bad, msg in ((args.n is not None and args.n < 1, "--n must be >= 1"),
                     (args.seed < 0, "--seed must be >= 0"),
                     (not 0 < args.tol < float("inf"), "--tol must be finite and > 0"),
                     (args.metric is not None and args.command != "curvature",
                      "--metric is read only by the curvature verb")):
        if bad:
            print(f"error: {msg}", file=sys.stderr)
            return 2
    verbs = dict(_VERBS, complex=partial(_complex_checks, tol=args.tol))
    if args.metric is not None:
        try:
            args.n, metric = _load_metric(args.metric, args.n)
        except BadInput as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        verbs["curvature"] = lambda n, seed: _metric_checks(metric, args.tol)
    if args.command == "all":
        ns = [args.n] if args.n is not None else [1, 2, 3]
        reports = [_run_verb(v, verbs[v], n, args.seed) for n in ns for v in verbs]
    else:
        n = args.n if args.n is not None else 1
        reports = [_run_verb(args.command, verbs[args.command], n, args.seed)]
    if args.as_json:
        payload = reports[0] if len(reports) == 1 else reports
        print(json.dumps(payload, indent=2, default=str))
    else:
        for rep in reports:
            _print_report(rep)
    failed = any(c["status"] == "fail" for rep in reports for c in rep["checks"])
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
