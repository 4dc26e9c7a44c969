"""Koszul connection, curvature tensor and the dual-route Ricci check."""

from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import feye, fmat, fzeros, to_float
from heiscot.adinvariant import pairing_metric
from heiscot.curvature import (
    compatibility_defect,
    first_bianchi_defect,
    is_flat,
    levi_civita,
    ricci_from_riemann,
    ricci_nilpotent_formula,
    ricci_nilpotent_summands,
    riemann,
    scalar_curvature,
    second_bianchi_defect,
    signature,
    torsion_defect,
)
from heiscot.metric_moduli import random_positive_definite


def _exact_spd(g, rng):
    d = g.dim
    a = rng.integers(-2, 3, size=(d, d))
    m = fmat((a @ a.T + (2 * d) * np.eye(d, dtype=int)).tolist())
    return m


def _exact_indefinite(g, rng):
    d = g.dim
    a = rng.integers(-1, 2, size=(d, d)) + np.eye(d, dtype=int) * 3
    diag = np.eye(d, dtype=int)
    diag[0, 0] = -1
    m = a.T @ diag @ a
    return fmat(m.tolist())


def test_identity_metric_connection_oracle(algebras):
    """Hand-computed Koszul values at n = 1 with the identity metric.

    2<nabla_{e} f, w> = <[e,f], w> - <[f,w], e> + <[w,e], f> gives
    nabla_e f = z/2, nabla_e z = -f/2, nabla_z* e = nabla_e z* = f*/2.
    """
    g = algebras[1]
    gam = levi_civita(g, feye(6))
    expect = {
        (0, 1): {5: Fraction(1, 2)},     # nabla_e f = z/2
        (0, 5): {1: Fraction(-1, 2)},    # nabla_e z = -f/2
        (2, 0): {4: Fraction(1, 2)},     # nabla_z* e = f*/2
        (0, 2): {4: Fraction(-1, 2)},    # torsion: nabla_e z* - nabla_z* e = [e, z*] = -f*
        (0, 0): {},
        (5, 5): {},
    }
    for (i, j), coeffs in expect.items():
        v = gam[i, j]
        for k in range(6):
            assert v[k] == coeffs.get(k, 0), (i, j, k)


def test_identity_metric_curvature_oracle(algebras):
    g = algebras[1]
    gam = levi_civita(g, feye(6))
    riem = riemann(g, gam)
    # R(e, f) = [nabla_e, nabla_f] - nabla_[e,f]; acting on e gives (3/4) f
    assert riem[0, 1, 0, 1] == Fraction(3, 4)
    ric = ricci_from_riemann(riem)
    assert scalar_curvature(feye(6), ric) == Fraction(-3, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_connection_properties_random(algebras, rng, n):
    g = algebras[n]
    s = random_positive_definite(g, rng)
    gam = levi_civita(g, s)
    scale = max(1.0, np.abs(s).max())
    assert torsion_defect(g, gam) <= 1e-10 * scale
    assert compatibility_defect(g, s, gam) <= 1e-9 * scale
    riem = riemann(g, gam)
    assert first_bianchi_defect(riem) <= 1e-8 * scale
    assert second_bianchi_defect(g, gam, riem) <= 1e-7 * scale * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ricci_routes_agree_exact_spd(algebras, rng, n):
    g = algebras[n]
    for _ in range(3):
        s = _exact_spd(g, rng)
        gam = levi_civita(g, s)
        riem = riemann(g, gam)
        r1 = ricci_from_riemann(riem)
        r2 = ricci_nilpotent_formula(g, s)
        assert (r1 == r2).all()
        one, two = ricci_nilpotent_summands(g, s)
        assert (one + two == r2).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ricci_routes_agree_exact_indefinite(algebras, rng, n):
    g = algebras[n]
    for _ in range(3):
        s = _exact_indefinite(g, rng)
        p, q, z = signature(s)
        if z or q == 0:
            continue
        r1 = ricci_from_riemann(riemann(g, levi_civita(g, s)))
        r2 = ricci_nilpotent_formula(g, s)
        assert (r1 == r2).all()


def test_ricci_symmetric(algebras, rng):
    g = algebras[2]
    s = random_positive_definite(g, rng)
    ric = ricci_from_riemann(riemann(g, levi_civita(g, s)))
    assert np.abs(ric - ric.T).max() <= 1e-9 * max(1.0, np.abs(s).max())


def test_pairing_flat_identity_not(algebras):
    g = algebras[2]
    p = pairing_metric(2, exact=True)
    riem = riemann(g, levi_civita(g, p))
    assert is_flat(riem)
    assert max(abs(x) for x in riem.ravel()) == 0
    riem_id = riemann(g, levi_civita(g, feye(g.dim)))
    assert not is_flat(riem_id)


def test_signature_exact_and_float():
    m = fmat([[2, 0], [0, -3]])
    assert signature(m) == (1, 1, 0)
    assert signature(np.diag([1.0, -1.0, 0.0])) == (1, 1, 1)


def test_exact_flatness_is_exact_zero():
    riem = fzeros((2, 2, 2, 2))
    assert is_flat(riem)
    riem[0, 1, 0, 1] = Fraction(1, 10**400)
    assert not is_flat(riem)
    assert not is_flat(riem, tol=1.0)
