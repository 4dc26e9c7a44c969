"""The float Lie-bracket kernels against per-pair and per-row references.

Float ``bracket``/``ad_matrix`` contract the structure tensor; the exact
route on the same rational input is the reference.  The adapted
normalization fills its complement system by broadcasting, byte for byte
the earlier Kronecker form, and builds its h-form from one bilinear form
W; the references are the row loop, the Kronecker form and the pairwise
brackets they replaced.  The second Bianchi defect runs as
contractions per first index; the reference is the loop over basis
triples.
"""

from fractions import Fraction

import numpy as np
import pytest

from heiscot import complex_structures as cs
from heiscot._exact import fmat, to_float
from heiscot.automorphism import random_automorphism
from heiscot.complex_structures import NotInFamily, normalize_complex_structure, signed_plane_member
from heiscot.curvature import levi_civita, riemann, second_bianchi_defect
from heiscot.lie_core import build_thn
from heiscot.metric_moduli import random_positive_definite


def _rational_vector(rng, d):
    return fmat([Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, d), rng.integers(1, 8, d))])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_float_bracket_and_ad_match_exact_route(n):
    g = build_thn(n)
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        a, b = _rational_vector(rng, g.dim), _rational_vector(rng, g.dim)
        af, bf = to_float(a), to_float(b)
        scale = max(1.0, np.abs(af).max() * np.abs(bf).max())
        br = g.bracket(af, bf)
        ad = g.ad_matrix(af)
        assert br.dtype == np.float64 and ad.dtype == np.float64
        assert np.abs(br - to_float(g.bracket(a, b))).max() <= 1e-12 * scale
        assert np.abs(ad - to_float(g.ad_matrix(a))).max() <= 1e-12 * max(1.0, np.abs(af).max())


def test_mixed_and_int_input_give_float64():
    g = build_thn(2)
    rng = np.random.default_rng(7)
    a = _rational_vector(rng, g.dim)
    x = rng.standard_normal(g.dim)
    k = rng.integers(-3, 4, g.dim)
    exact = to_float(g.bracket(a, fmat(k.tolist())))
    for out in (g.bracket(a, to_float(fmat(k.tolist()))), g.bracket(to_float(a), fmat(k.tolist()))):
        assert out.dtype == np.float64
        assert np.abs(out - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    for out in (g.bracket(a, x), g.bracket(x, a), g.bracket(k, k), g.bracket(k, x),
                g.ad_matrix(k), g.ad_matrix(list(k))):
        assert out.dtype == np.float64
    assert np.array_equal(g.ad_matrix(k), to_float(g.ad_matrix(fmat(k.tolist()))))
    assert np.array_equal(g.ad_matrix(k) @ k, g.bracket(k, k))


def _loop_system(bmap, m4, b):
    # the row-by-row build the Kronecker form replaced
    m, n2 = len(m4), len(bmap)
    rows = []
    for r in range(m):
        for cc in range(n2):
            row = np.zeros(m * n2)
            row[r * n2:(r + 1) * n2] += bmap[:, cc]
            row[cc::n2] -= m4[r, :]
            rows.append(row)
    for cc in range(n2):
        row = np.zeros(m * n2)
        row[cc::n2] = b
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kronecker_complement_system_equals_row_loop(n):
    rng = np.random.default_rng(n)
    bmap = rng.standard_normal((2 * n, 2 * n))
    m4 = rng.standard_normal((2 * n + 1, 2 * n + 1))
    b = rng.standard_normal(2 * n + 1)
    mat = cs._complement_system(bmap, m4, b)
    assert np.array_equal(mat, _loop_system(bmap, m4, b))
    # byte for byte the earlier Kronecker form, signed zeros included
    i2n = np.eye(2 * n)
    kron = np.vstack([np.kron(np.eye(2 * n + 1), bmap.T) - np.kron(m4, i2n), np.kron(b, i2n)])
    assert mat.tobytes() == kron.tobytes()


def _conjugate(jm, g, seed):
    f = random_automorphism(g.n, g, rng=np.random.default_rng(seed), exact=False).matrix
    return np.linalg.solve(f, np.asarray(jm, dtype=float) @ f)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_gram_equals_pairwise_omega(n, monkeypatch):
    g = build_thn(n)
    jm = _conjugate(cs.solve_integrable_family(n).member(1, 1.5), g, seed=n)
    v = cs._invariant_complement(jm, g, 1e-9)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: seen.append(h.copy()) or eigvalsh(h))
    units = cs._unit_vectors(jm, v, g)
    (hre,) = seen
    z = g.dim - 1
    cols = [v[:, k] for k in range(2 * n)]
    ref = np.array([[g.bracket(jm @ x, y)[z] for y in cols] for x in cols])
    ref = 0.5 * (ref + ref.T)
    assert np.abs(hre - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    # h, definite of either sign, is +-Id on the units; h(x, y) pairwise
    def h(x, y):
        return g.bracket(jm @ x, y)[z] + 1j * g.bracket(x, y)[z]

    gram = np.array([[h(x, y) for y in units] for x in units])
    assert abs(gram[0, 0]) == pytest.approx(1.0)
    assert np.abs(gram - gram[0, 0] * np.eye(n)).max() <= 1e-9


def test_moduli_pool_normalizations_take_the_adapted_route(workloads):
    pool = workloads.WORKLOADS["moduli_float"].setup(workloads.DEFAULT_SEED)
    ops = [inp for inp in pool if inp[0] == "normalize"]
    assert len(ops) == 60
    tol = workloads.MODULI_TOL
    for _, g, j in ops:
        res = normalize_complex_structure(j, g, tol=tol)
        assert res.route == "adapted" and res.epsilon == 1
        assert float(res.residual) <= tol * max(1.0, np.abs(j).max())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mixed_sign_members_stay_outside_the_orbit(n):
    g = build_thn(n)
    for signs in ([1] * (n - 1) + [-1], [-1] + [1] * (n - 1)):
        jm = signed_plane_member(signs)
        for j in (jm, _conjugate(jm, g, seed=10 + n)):
            with pytest.raises(NotInFamily, match="indefinite"):
                normalize_complex_structure(j, g)


def _loop_second_bianchi(g, gamma, riem):
    # the per-triple loop the contractions replaced
    d = g.dim
    ops = [gamma[i].T.copy() for i in range(d)]
    rop = [[riem[i, j].T.copy() for j in range(d)] for i in range(d)]

    def cov(i, j, k):
        m = ops[i] @ rop[j][k] - rop[j][k] @ ops[i]
        for a in range(d):
            m = m - gamma[i, j, a] * rop[a][k] - gamma[i, k, a] * rop[j][a]
        return m

    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                worst = max(worst, np.abs(cov(i, j, k) + cov(j, k, i) + cov(k, i, j)).max())
    return worst


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("definite", [True, False])
def test_second_bianchi_matches_triple_loop(n, definite):
    g = build_thn(n)
    rng = np.random.default_rng(60 + n)
    if definite:
        s = random_positive_definite(g, rng)
    else:
        a = rng.standard_normal((g.dim, g.dim))
        s = a + a.T
    scale = max(1.0, np.abs(s).max())
    gamma = levi_civita(g, s)
    riem = riemann(g, gamma)
    # the true tensor satisfies the identity; a perturbed one gives a nonzero defect
    for r in (riem, riem + 1e-3 * rng.standard_normal(riem.shape)):
        got = second_bianchi_defect(g, gamma, r)
        assert isinstance(got, float)
        assert abs(got - _loop_second_bianchi(g, gamma, r)) <= 1e-12 * scale ** 2
    assert second_bianchi_defect(g, gamma, riem) <= 1e-7 * scale ** 2
