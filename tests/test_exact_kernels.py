"""The sparse integer kernel against a dense Fraction reference.

The reference below is the dense object-array arithmetic the exact
branches used before they moved onto ``_exact.SparseQ``.  Every exact
result must equal it entry by entry and stay a Fraction, on the ac09
pseudo-Kahler draws, the definite and indefinite ac10 draws, and inputs
whose defects are nonzero.
"""

from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import SparseQ, fmat, fzeros, inv
from heiscot.adinvariant import ad_invariance_defect, pairing_metric, random_ad_invariant
from heiscot.automorphism import bracket_defect, random_automorphism
from heiscot.curvature import levi_civita, ricci_nilpotent_summands, riemann
from heiscot.forms_kahler import build_omega, is_nondegenerate, pseudo_kahler_metric, random_omega_params


# ---------------------------------------------------------------------------
# dense Fraction reference


def _ref_bracket(g, x, y):
    out = fzeros(g.dim)
    for a, b, k, c in g.constants:
        out[k] += c * (x[a] * y[b] - x[b] * y[a])
    return out


def _ref_levi_civita(g, s):
    d = g.dim
    rhs = fzeros((d, d, d))
    for a, b, k, c in g.constants:
        rhs[a, b, :] += c * s[k, :]
        rhs[b, a, :] -= c * s[k, :]
        rhs[:, a, b] -= c * s[k, :]
        rhs[:, b, a] += c * s[k, :]
        rhs[b, :, a] += c * s[k, :]
        rhs[a, :, b] -= c * s[k, :]
    sinv_t = inv(s).T
    return np.array([Fraction(1, 2) * (rhs[i] @ sinv_t) for i in range(d)])


def _ref_riemann(g, gamma):
    d = g.dim
    ops = [gamma[i].T for i in range(d)]
    riem = fzeros((d, d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            block = ops[i] @ ops[j] - ops[j] @ ops[i]
            for k, c in g.bracket_sparse(i, j):
                block = block - c * ops[k]
            riem[i, j], riem[j, i] = block.T, -block.T
    return riem


def _ref_ricci_summands(g, s):
    d = g.dim
    ads = [g.ad_basis(u, exact=True) for u in range(d)]
    adstar = [inv(s) @ a.T @ s for a in ads]
    ju = [np.array([adstar[w][:, u] for w in range(d)]).T for u in range(d)]
    one = np.array([[Fraction(-1, 4) * (ju[u] * ju[v].T).sum() for v in range(d)] for u in range(d)])
    two = np.array([[Fraction(-1, 2) * (ads[u] * adstar[v].T).sum() for v in range(d)] for u in range(d)])
    return one, two


def _ref_bracket_defect(m, g):
    d = g.dim
    return max(abs(x) for i in range(d) for j in range(i + 1, d)
               for x in m @ g.bracket_basis(i, j) - _ref_bracket(g, m[:, i], m[:, j]))


def _ref_ad_invariance_defect(g, s):
    return max(abs(x) for u in range(g.dim)
               for a in [g.ad_basis(u, exact=True)] for x in (a.T @ s + s @ a).ravel())


# ---------------------------------------------------------------------------


def _same(got, ref):
    got = np.asarray(got, dtype=object)
    ref = np.asarray(ref, dtype=object)
    assert got.shape == ref.shape
    for x, y in zip(got.ravel(), ref.ravel()):
        assert type(x) is Fraction and x == y, (x, y)


def _ac09_metric(n):
    rng = np.random.default_rng(90 + n)
    while True:
        omega = build_omega(random_omega_params(n, rng))
        if is_nondegenerate(omega):
            return pseudo_kahler_metric(omega, n)


def _ac10_metric(n, definite):
    d = 4 * n + 2
    rng = np.random.default_rng(10 * n)
    a = rng.integers(-2, 3, size=(d, d))
    if definite:
        return fmat((a @ a.T + 2 * d * np.eye(d, dtype=int)).tolist())
    dg = np.eye(d, dtype=int)
    dg[0, 0] = -1
    b = a + 3 * np.eye(d, dtype=int)
    return fmat((b.T @ dg @ b).tolist())


METRICS = ["ac09", "ac10_definite", "ac10_indefinite"]


def _metric(kind, n):
    return _ac09_metric(n) if kind == "ac09" else _ac10_metric(n, kind == "ac10_definite")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", METRICS)
def test_curvature_kernels_match_dense_reference(algebras, n, kind):
    g = algebras[n]
    s = _metric(kind, n)
    gamma = levi_civita(g, s)
    _same(gamma, _ref_levi_civita(g, s))
    riem = riemann(g, gamma)
    _same(riem, _ref_riemann(g, gamma))
    assert any(x != 0 for x in riem.ravel()), "every draw here is curved"
    one, two = ricci_nilpotent_summands(g, s)
    ref_one, ref_two = _ref_ricci_summands(g, s)
    _same(one, ref_one)
    _same(two, ref_two)
    defect = ad_invariance_defect(g, s)
    assert type(defect) is Fraction and defect == _ref_ad_invariance_defect(g, s) != 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_pairing_matches_dense_reference(algebras, n):
    g = algebras[n]
    p = pairing_metric(n, exact=True)
    gamma = levi_civita(g, p)
    _same(gamma, _ref_levi_civita(g, p))
    _same(riemann(g, gamma), fzeros((g.dim,) * 4))
    assert ad_invariance_defect(g, p) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_kernels_match_dense_reference(algebras, n):
    g = algebras[n]
    d = g.dim
    rng = np.random.default_rng(40 + n)
    aut = random_automorphism(n, g, rng=rng, exact=True).matrix
    broken = aut.copy()
    broken[0, 1] += Fraction(1, 3)
    rand = fmat(rng.integers(-3, 4, size=(d, d)).tolist())
    for m, zero in ((aut, True), (broken, False), (rand, False)):
        defect = bracket_defect(m, g)
        assert type(defect) is Fraction and defect == _ref_bracket_defect(m, g)
        assert (defect == 0) is zero
    s = random_ad_invariant(g, rng)
    assert ad_invariance_defect(g, s) == _ref_ad_invariance_defect(g, s) == 0
    for _ in range(3):
        x, y = (np.array([Fraction(int(p), int(q)) for p, q in
                          zip(rng.integers(-3, 4, d), rng.integers(1, 4, d))]) for _ in range(2))
        _same(g.bracket(x, y), _ref_bracket(g, x, y))
        _same(g.ad_matrix(x), np.array([_ref_bracket(g, x, e) for e in fmat(np.eye(d, dtype=int))]).T)


def test_sparse_round_trip_and_arithmetic():
    a = fmat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    a[0, 2] = Fraction(-3, 4)
    a[2, 1] = Fraction(5, 6)
    b = fmat([[2, 1, 0], [0, 0, 1], [1, 0, 0]])
    b[1, 0] = Fraction(1, 10**40)
    sa, sb = SparseQ.from_dense(a), SparseQ.from_dense(b)
    assert sa.den == 12 and 1 not in sa.rows
    _same(sa.dense((3, 3)), a)
    _same((sa @ sb).dense((3, 3)), a @ b)
    _same((sa - Fraction(2, 7) * sb).dense((3, 3)), a - Fraction(2, 7) * b)
    _same(sa.T.dense((3, 3)), a.T)
    assert sa.maxabs() == Fraction(1) and sb.maxabs() == Fraction(2)
    assert sa.trace_of_product(sb) == np.trace(a @ b)
