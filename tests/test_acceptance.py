"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is asserted exactly as stated, at the stated tolerance.
Three of them pin dimension counts whose stated closed forms disagree
with the exact computation for n >= 2 (criteria 1, 3 and 8); those
tests fail honestly and print the computed values next to the stated
ones rather than weakening the assertion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import feye, to_float
from heiscot.adinvariant import (
    ad_invariant_solution_space,
    certify_flat,
    normalize_ad_invariant,
    pairing_metric,
    random_ad_invariant,
    template_defect,
)
from heiscot.automorphism import is_automorphism, random_automorphism
from heiscot.complex_structures import (
    IntegrableFamily,
    hermitian_defect,
    hermitian_metric_space,
    integrability_report,
    is_abelian_complex_structure,
    matches_hermitian_family,
    normalize_complex_structure,
    solve_integrable_family,
    standard_complex_structure,
)
from heiscot.curvature import (
    levi_civita,
    ricci_from_riemann,
    ricci_nilpotent_formula,
    riemann,
    signature,
)
from heiscot.forms_kahler import (
    DegenerateOmega,
    OmegaParams,
    certify_pseudo_kahler,
    closed_invariant_space,
    matches_omega_template,
    random_omega_params,
)
from heiscot.lie_core import build_thn, derivation_algebra
from heiscot.metric_moduli import (
    CanonicalMetric,
    act,
    are_equivalent,
    free_parameter_count,
    random_positive_definite,
    reduce_with_diagnostics,
)


def _verdict(num: int, ok: bool, detail: str = ""):
    tag = "pass" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {tag}  {detail}", flush=True)
    assert ok, detail


def test_ac01_derivation_dimension():
    """dim Der = 6n^2 + 9n + 3 for n = 1..4, under 10 s at n = 4."""
    stated = {n: 6 * n * n + 9 * n + 3 for n in (1, 2, 3, 4)}
    t0 = time.perf_counter()
    computed = {n: len(derivation_algebra(build_thn(n))) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    ok = computed == stated and elapsed < 10.0
    _verdict(1, ok, f"computed {computed}, stated {stated}, {elapsed:.1f} s")


def test_ac02_moduli_parameter_count():
    counts = {n: free_parameter_count(n) for n in range(1, 6)}
    ok = counts == {n: n * (2 * n + 1) for n in range(1, 6)}
    _verdict(2, ok, f"{counts}")


def test_ac03_reduction_soundness():
    """100 random SPD metrics per n = 1..3 reach the template."""
    bad = {}
    for n in (1, 2, 3):
        g = build_thn(n)
        rng = np.random.default_rng(100 + n)
        fails = 0
        for _ in range(100):
            s = random_positive_definite(g, rng)
            r = reduce_with_diagnostics(s, g)
            scale = max(1.0, np.abs(s).max())
            c = r.canonical
            sig = np.array(c.sigma)
            ok = (
                r.residual <= 1e-9 * scale
                and is_automorphism(r.automorphism.matrix, g, tol=1e-12)
                and np.abs(act(r.automorphism, s) - r.reduced).max() <= 1e-9 * scale
                and (np.diff(sig) <= 1e-9).all()
                and abs(sig[-1] - 1.0) <= 1e-9
                and c.template_zero_defect() <= 1e-9
                and c.omega4 > 0
            )
            fails += not ok
        bad[n] = fails
    _verdict(3, sum(bad.values()) == 0,
             f"failed reductions per n: {bad} (n >= 2: no template slot for the center pairing)")


def test_ac04_reduction_invariance():
    g = build_thn(2)
    rng = np.random.default_rng(42)
    base = CanonicalMetric(sigma=(2.0, 1.0), S4bar=np.eye(4), omega4=1.0).matrix()
    worst = 0.0
    for _ in range(50):
        f = random_automorphism(2, g, rng=rng, exact=False)
        r = reduce_with_diagnostics(act(f, base), g)
        worst = max(worst, np.abs(np.array(r.sigma) - np.array([2.0, 1.0])).max())
    rep = (1.0, 1.0)
    s4 = np.eye(4)
    s4[0, 1] = s4[1, 0] = 0.4
    res = are_equivalent(
        CanonicalMetric(sigma=rep, S4bar=np.eye(4), omega4=1.0).matrix(),
        CanonicalMetric(sigma=rep, S4bar=s4, omega4=1.0).matrix(),
        g,
    )
    ok = worst <= 1e-6 and res.verdict == "inconclusive"
    _verdict(4, ok, f"max sigma drift {worst:.1e}, repeated-sigma verdict {res.verdict}")


def test_ac05_ad_invariant_class():
    ok = True
    notes = []
    for n in (1, 2, 3):
        g = build_thn(n)
        rng = np.random.default_rng(5 * n)
        basis = ad_invariant_solution_space(g)
        ok &= all(template_defect(b, n)[0] == 0 for b in basis)
        for _ in range(5):
            s = random_ad_invariant(g, rng)
            res = normalize_ad_invariant(s, g)
            ok &= res.residual == 0
        p = pairing_metric(n, exact=True)
        ok &= signature(p) == (2 * n + 1, 2 * n + 1, 0)
        cert = certify_flat(p, g)
        ok &= cert["flat"] and cert["riemann_max"] == 0 and cert["half_ad_defect"] == 0
        riem = riemann(g, levi_civita(g, p))
        e = feye(g.dim)
        quarter = all(
            (riem[i, j] == (Fraction(-1, 4) * g.ad_matrix(g.bracket(e[i], e[j]))).T).all()
            for i in range(g.dim) for j in range(g.dim)
        )
        ok &= quarter
        notes.append(f"n={n} dim {len(basis)}")
    _verdict(5, ok, "; ".join(notes))


def test_ac06_complex_structure_normalization():
    ok = True
    notes = []
    for n in (1, 2, 3):
        g = build_thn(n)
        j0 = standard_complex_structure(n, exact=True)
        rep = integrability_report(j0, g)
        ok &= rep["pairwise_defect"] == 0 and rep["operator_defect"] == 0
        # rational mode: residual exactly 0
        fam = IntegrableFamily(n)
        for eps in (1, -1):
            res = normalize_complex_structure(fam.member(eps, Fraction(2, 1)), g)
            ok &= res.residual == 0 and res.epsilon == eps
        # float mode: 50 varied samples, residual <= 1e-9
        sampler = solve_integrable_family(n)
        rng = np.random.default_rng(60 + n)
        count = 50 if n == 1 else 25
        eps_seen = set()
        for _ in range(count):
            params, j = sampler.sample(rng)
            res = normalize_complex_structure(j, g)
            ok &= float(res.residual) <= 1e-9 * max(1.0, np.abs(j).max())
            ok &= res.epsilon == params.epsilon
            eps_seen.add(res.epsilon)
        ok &= eps_seen == {1, -1}
        flag, witness = is_abelian_complex_structure(j0, g)
        ok &= flag is False and witness is not None
        notes.append(f"n={n} witness {witness}")
    _verdict(6, ok, "; ".join(notes))


def test_ac07_hermitian_characterization():
    ok = True
    notes = []
    for n in (1, 2):
        sp = hermitian_metric_space(n)
        j0 = standard_complex_structure(n, exact=True)
        ok &= sp.dimension == n * n + n - 1
        ok &= hermitian_defect(j0, sp.particular) == 0
        for v in sp.directions:
            s = sp.particular + v
            ok &= hermitian_defect(j0, s) == 0
            ok &= matches_hermitian_family(s, n)
        notes.append(f"n={n} dim {sp.dimension}")
    _verdict(7, ok, "; ".join(notes))


def test_ac08_closed_invariant_form_dimensions():
    stated = {1: 5, 2: 8, 3: 16, 4: 27}
    computed = {}
    members_ok = True
    for n in stated:
        space = closed_invariant_space(n)
        computed[n] = len(space)
        members_ok &= all(matches_omega_template(w, n) for w in space)
    ok = computed == stated and members_ok
    _verdict(8, ok, f"computed {computed}, stated {stated}, template membership {members_ok}")


def test_ac09_pseudo_kahler_certification():
    ok = True
    notes = []
    for n in (1, 2, 3):
        rng = np.random.default_rng(90 + n)
        done = 0
        witnesses = 0
        while done < 20:
            params = random_omega_params(n, rng)
            try:
                rep = certify_pseudo_kahler(params)
            except DegenerateOmega:
                continue
            done += 1
            ok &= rep["ricci_zero"] and rep["summands_zero"] and rep["routes_agree"]
            witnesses += rep["witness"] is not None
        mu_rep = certify_pseudo_kahler(OmegaParams(n=n, mu=Fraction(1)))
        ok &= mu_rep["witness"] is not None and not mu_rep["flat"]
        ok &= witnesses == 20
        notes.append(f"n={n} 20 certificates, {witnesses} witnesses")
    _verdict(9, ok, "; ".join(notes))


def test_ac10_dual_route_ricci():
    ok = True
    for n in (1, 2, 3):
        g = build_thn(n)
        rng = np.random.default_rng(10 * n)
        d = g.dim
        for k in range(20):
            a = rng.integers(-2, 3, size=(d, d))
            if k % 2 == 0:
                m = a @ a.T + 2 * d * np.eye(d, dtype=int)     # definite
            else:
                dg = np.eye(d, dtype=int)
                dg[0, 0] = -1                                   # indefinite congruence
                b = a + np.eye(d, dtype=int) * 3
                m = b.T @ dg @ b
            s = np.empty((d, d), dtype=object)
            for i in range(d):
                for j in range(d):
                    s[i, j] = Fraction(int(m[i, j]))
            r1 = ricci_from_riemann(riemann(g, levi_civita(g, s)))
            r2 = ricci_nilpotent_formula(g, s)
            ok &= bool((r1 == r2).all())
    _verdict(10, ok, "entrywise exact agreement, definite and indefinite draws")
