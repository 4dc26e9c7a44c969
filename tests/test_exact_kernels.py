"""The integer exact kernels against a dense Fraction reference.

The reference below is the dense object-array arithmetic the exact
branches used before they moved onto ``_exact.SparseQ`` and fraction-free
elimination over ints, with its own dense Gauss-Jordan inverse and
determinant.  Every exact result must equal it entry by entry and stay a
Fraction, on the ac09 pseudo-Kahler draws, the definite and indefinite
ac10 draws, random rational matrices, and inputs whose defects are nonzero.
"""

from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import SparseQ, det, fmat, fzeros, inv, maxabs
from heiscot.adinvariant import (
    ad_invariance_defect,
    ad_invariant_solution_space,
    pairing_metric,
    random_ad_invariant,
)
from heiscot.automorphism import bracket_defect, random_automorphism
from heiscot.curvature import levi_civita, ricci_from_riemann, ricci_nilpotent_summands, riemann
from heiscot.forms_kahler import (
    build_omega,
    closure_defect,
    d_two_form,
    is_nondegenerate,
    pseudo_kahler_metric,
    random_omega_params,
)


# ---------------------------------------------------------------------------
# dense Fraction reference


def _ref_inv_det(a):
    """(inverse, determinant) by dense Fraction Gauss-Jordan; inverse None if singular."""
    d = a.shape[0]
    work = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(a.tolist())]
    det_ = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if work[r][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det_ = -det_
        p = work[col][col]
        det_ *= p
        work[col] = [x / p for x in work[col]]
        for r in range(d):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    out = fzeros((d, d))
    for i, row in enumerate(work):
        out[i] = row[d:]
    return out, det_


def _ref_inv(a):
    return _ref_inv_det(a)[0]


def _ref_bracket(g, x, y):
    out = fzeros(g.dim)
    for a, b, k, c in g.constants:
        out[k] += c * (x[a] * y[b] - x[b] * y[a])
    return out


def _ref_ad(g, u):
    """ad(b_u) as a dense Fraction matrix: column j is [b_u, b_j]."""
    e = fmat(np.eye(g.dim, dtype=int))
    return np.array([_ref_bracket(g, e[u], e[j]) for j in range(g.dim)]).T


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
    sinv_t = _ref_inv(s).T
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
    ads = [_ref_ad(g, u) for u in range(d)]
    adstar = [_ref_inv(s) @ a.T @ s for a in ads]
    ju = [np.array([adstar[w][:, u] for w in range(d)]).T for u in range(d)]
    one = np.array([[Fraction(-1, 4) * (ju[u] * ju[v].T).sum() for v in range(d)] for u in range(d)])
    two = np.array([[Fraction(-1, 2) * (ads[u] * adstar[v].T).sum() for v in range(d)] for u in range(d)])
    return one, two


def _ref_bracket_defect(m, g):
    d = g.dim
    e = fmat(np.eye(d, dtype=int))
    return max(abs(x) for i in range(d) for j in range(i + 1, d)
               for x in m @ _ref_bracket(g, e[i], e[j]) - _ref_bracket(g, m[:, i], m[:, j]))


def _ref_ad_invariance_defect(g, s):
    return max(abs(x) for u in range(g.dim)
               for a in [_ref_ad(g, u)] for x in (a.T @ s + s @ a).ravel())


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
            return pseudo_kahler_metric(omega)


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
    for i in range(g.dim):
        for j in range(g.dim):
            _same(riem[j, i], -riem[i, j])
    one, two = ricci_nilpotent_summands(g, s)
    ref_one, ref_two = _ref_ricci_summands(g, s)
    _same(one, ref_one)
    _same(two, ref_two)
    defect = ad_invariance_defect(g, s)
    assert type(defect) is Fraction and defect == _ref_ad_invariance_defect(g, s) != 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ricci_trace_matches_the_dense_trace(algebras, workloads, n):
    # the kahler_sparse workload's pseudo-Kahler metrics at seed 1, the ac10 draws and the pairing
    metrics = [pseudo_kahler_metric(build_omega(p)) for p in workloads._kahler_setup(1, n, 3)]
    metrics += [_metric(kind, n) for kind in METRICS[1:]] + [pairing_metric(n, exact=True)]
    curved = 0
    for s in metrics:
        riem = riemann(algebras[n], levi_civita(algebras[n], s))
        ric = ricci_from_riemann(riem)
        _same(ric, np.trace(riem, axis1=0, axis2=3))
        curved += any(x != 0 for x in ric.ravel())
    assert curved > 0


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


def _rational_matrix(rng, d, zero_lead):
    """Random rational d x d matrix; each row has its own extra denominator."""
    num = rng.integers(-4, 5, size=(d, d))
    den = rng.integers(1, 7, size=(d, d)) * rng.integers(1, 12, size=(d, 1))
    if zero_lead:
        num[: (d + 1) // 2, 0] = 0          # the first pivots need row swaps
    return np.array([[Fraction(int(p), int(q)) for p, q in zip(*rows)] for rows in zip(num, den)],
                    dtype=object).reshape(d, d)


@pytest.mark.parametrize("d", range(1, 15))
def test_inv_det_match_dense_reference(d):
    rng = np.random.default_rng(500 + d)
    for trial in range(4):
        a = _rational_matrix(rng, d, zero_lead=trial % 2 == 1)
        ref_inv, ref_det = _ref_inv_det(a)
        got = det(a)
        assert type(got) is Fraction and got == ref_det
        if ref_inv is None:
            with pytest.raises(ZeroDivisionError):
                inv(a)
        else:
            _same(inv(a), ref_inv)


@pytest.mark.parametrize("d", [2, 5, 9, 14])
def test_singular_and_nonsquare_inputs(d):
    rng = np.random.default_rng(700 + d)
    a = _rational_matrix(rng, d, zero_lead=True)
    a[-1] = Fraction(2, 3) * a[0] - Fraction(5, 7) * a[d // 2 - 1]
    for m in (a, fzeros((d, d))):
        got = det(m)
        assert type(got) is Fraction and got == 0
        with pytest.raises(ZeroDivisionError):
            inv(m)
    for shape in ((d, d + 1), (d + 1, d), (d,)):
        for fn in (inv, det):
            with pytest.raises(ValueError):
                fn(fzeros(shape))


def _ref_random_ad_invariant(g, rng):
    basis = ad_invariant_solution_space(g)
    m = 2 * g.n + 1
    while True:
        s = fzeros((g.dim, g.dim))
        for c, b in zip(rng.integers(-4, 5, size=len(basis)), basis):
            if c:
                s = s + Fraction(int(c)) * b
        if s[0, m] != 0:
            return s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_ad_invariant_matches_dense_reference(algebras, n):
    g = algebras[n]
    for seed in (0, 1, 2):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [random_ad_invariant(g, got_rng) for _ in range(4)]
        for s in draws:
            _same(s, _ref_random_ad_invariant(g, ref_rng))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        # a caller's writes reach neither later draws nor the solution space
        draws[0][...] = Fraction(7)
        ad_invariant_solution_space(g)[0][...] = Fraction(7)
        _same(random_ad_invariant(g, np.random.default_rng(seed)),
              _ref_random_ad_invariant(g, np.random.default_rng(seed)))


def test_maxabs_of_exact_arrays():
    for zeros in (fzeros((3, 4)), np.zeros(5, dtype=object), fzeros(0)):
        got = maxabs(zeros)
        assert type(got) is Fraction and got == 0
    a = fmat([[0, 3], [0, 0]])
    a[1, 0] = Fraction(-7, 2)
    got = maxabs(a)
    assert type(got) is Fraction and got == Fraction(7, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_closure_defect_is_max_of_d_two_form(algebras, n):
    g = algebras[n]
    rng = np.random.default_rng(60 + n)
    a = rng.integers(-3, 4, size=(g.dim, g.dim))
    exact = fmat((a - a.T).tolist()) * Fraction(1, 3)
    closed = build_omega(random_omega_params(n, rng))
    star = fzeros((g.dim, g.dim))                 # e*_1 ^ f*_1: d of it is <= 0
    star[2 * n + 1, 3 * n + 1], star[3 * n + 1, 2 * n + 1] = Fraction(1), Fraction(-1)
    for omega in (exact, star, closed, exact.astype(float), star.astype(float)):
        got = closure_defect(omega, g)
        assert type(got) is type(maxabs(d_two_form(omega, g)))
        assert got == maxabs(d_two_form(omega, g))
    assert closure_defect(closed, g) == 0 != closure_defect(exact, g)
    assert closure_defect(star, g) == 1
