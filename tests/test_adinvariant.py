"""The ad-invariant metric class: solution space, normalization, flatness."""

from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import feye
from heiscot.adinvariant import (
    ad_invariance_defect,
    ad_invariant_solution_space,
    certify_flat,
    is_ad_invariant,
    normalize_ad_invariant,
    pairing_metric,
    random_ad_invariant,
    solution_space_dimension,
    template_defect,
)
from heiscot.curvature import levi_civita, riemann, signature


@pytest.mark.parametrize("n,dim", [(1, 7), (2, 16), (3, 29)])
def test_solution_space_dimension(algebras, n, dim):
    basis = ad_invariant_solution_space(algebras[n])
    assert len(basis) == dim
    assert solution_space_dimension(n) == dim


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solution_space_is_ad_invariant_and_templated(algebras, n):
    g = algebras[n]
    for b in ad_invariant_solution_space(g):
        assert ad_invariance_defect(g, b) == 0
        defect, alpha = template_defect(b, n)
        assert defect == 0


def test_a_nan_metric_is_not_ad_invariant(algebras):
    nan = np.full((6, 6), np.nan)
    assert np.isnan(ad_invariance_defect(algebras[1], nan))
    assert not is_ad_invariant(algebras[1], nan)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairing_is_ad_invariant_neutral(algebras, n):
    g = algebras[n]
    p = pairing_metric(n, exact=True)
    assert is_ad_invariant(g, p)
    assert signature(p) == (2 * n + 1, 2 * n + 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization_exact(algebras, rng, n):
    g = algebras[n]
    p = pairing_metric(n, exact=True)
    for _ in range(5):
        s = random_ad_invariant(g, rng)
        res = normalize_ad_invariant(s, g)
        f = res.automorphism.matrix
        assert res.residual == 0
        assert (f.T @ s @ f == p).all()


@pytest.mark.parametrize("n", [1, 2])
def test_flat_and_half_ad(algebras, n):
    g = algebras[n]
    p = pairing_metric(n, exact=True)
    cert = certify_flat(p, g)
    assert cert["flat"] and cert["riemann_max"] == 0 and cert["half_ad_defect"] == 0
    assert type(cert["riemann_max"]) is Fraction and type(cert["half_ad_defect"]) is Fraction


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_exact_perturbation_breaks_invariance(algebras, n):
    g = algebras[n]
    m = 2 * n + 1
    p = pairing_metric(n, exact=True)
    p[m, m] += Fraction(1, 10**400)
    assert not is_ad_invariant(g, p)
    assert ad_invariance_defect(g, p) == Fraction(1, 10**400)
    cert = certify_flat(p, g)
    assert 0 < cert["half_ad_defect"] < Fraction(1, 10**399)


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_exact_template_deviation_is_seen(algebras, n):
    """A 10^-400 entry at the (e*_1, e*_1) corner is off-template, exactly."""
    m = 2 * n + 1
    p = pairing_metric(n, exact=True)
    p[m, m] += Fraction(1, 10**400)
    defect, alpha = template_defect(p, n)
    assert type(defect) is Fraction and defect == Fraction(1, 10**400)
    assert alpha == 1
    assert template_defect(pairing_metric(n, exact=True), n)[0] == 0
    with pytest.raises(ValueError):
        normalize_ad_invariant(p, algebras[n])


@pytest.mark.parametrize("n", [1, 2])
def test_normalization_residual_keeps_the_mode(algebras, n):
    g = algebras[n]
    s = random_ad_invariant(g, np.random.default_rng(n))
    res = normalize_ad_invariant(s, g)
    assert type(res.residual) is Fraction and res.residual == 0
    assert type(template_defect(s, n)[0]) is Fraction
    s_float = np.asarray(s, dtype=float)
    res_f = normalize_ad_invariant(s_float, g)
    assert type(res_f.residual) is float and res_f.residual <= 1e-12 * max(1.0, np.abs(s_float).max())


def test_quarter_ad_curvature_route(algebras):
    """R(x, y) = -ad_{[x,y]} / 4 holds for any ad-invariant metric.

    On a two-step algebra [x, y] is central, so ad_{[x,y]} = 0 and the
    formula predicts flatness; the Koszul route must agree exactly.
    """
    g = algebras[2]
    p = pairing_metric(2, exact=True)
    gamma = levi_civita(g, p)
    riem = riemann(g, gamma)
    d = g.dim
    e = feye(d)
    for i in range(d):
        for j in range(d):
            pred = Fraction(-1, 4) * g.ad_matrix(g.bracket(e[i], e[j]))
            assert (riem[i, j] == pred.T).all()


def test_degenerate_candidates_rejected(algebras):
    g = algebras[1]
    s = np.zeros((6, 6))
    with pytest.raises(ValueError):
        normalize_ad_invariant(s, g)
