"""The structure-constant kernels against a dense per-pair reference.

The reference below is the arithmetic the integrability routes, the float
bracket check and the J-conjugation used before they became contractions
over the structure constants: one bracket per basis pair, dense ad
matrices, dense products.  Exact results must equal it and stay
Fractions, nonzero defects included; float results must agree within
64 eps d max(1, |J|)^3.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from heiscot._exact import feye, fmat, fzeros, is_exact, nullspace_sparse, to_float
from heiscot.automorphism import bracket_defect, random_automorphism
from heiscot.complex_structures import (
    IntegrableFamily,
    anticommuting_block,
    hermitian_defect,
    hermitian_metric_space,
    integrability_operator_defect,
    integrability_report,
    nijenhuis_defect,
    signed_plane_member,
    standard_complex_structure,
)
from heiscot.lie_core import LieAlgebra

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# dense per-pair reference


def _ref_bracket(g, x, y):
    out = 0 * x
    for a, b, k, c in g.constants:
        out[k] += c * (x[a] * y[b] - x[b] * y[a])
    return out


def _eye(j):
    return feye(j.shape[0]) if is_exact(j) else np.eye(j.shape[0])


def _ref_pairwise(j, g):
    e = _eye(j)
    worst = 0
    for i, k in combinations(range(g.dim), 2):
        a, b, ja, jb = e[:, i], e[:, k], j[:, i], j[:, k]
        nij = (_ref_bracket(g, a, b) + j @ _ref_bracket(g, ja, b)
               + j @ _ref_bracket(g, a, jb) - _ref_bracket(g, ja, jb))
        worst = max(worst, *(abs(x) for x in nij))
    return worst


def _ref_operator(j, g):
    e = _eye(j)
    worst = 0
    for i in range(g.dim):
        ad_x = np.array([_ref_bracket(g, e[:, i], e[:, k]) for k in range(g.dim)]).T
        ad_jx = np.array([_ref_bracket(g, j[:, i], e[:, k]) for k in range(g.dim)]).T
        op = ad_x + j @ ad_jx + j @ ad_x @ j - ad_jx @ j
        worst = max(worst, *(abs(x) for x in op.ravel()))
    return worst


def _ref_bracket_defect(m, g):
    e = np.eye(g.dim)
    return max(abs(x) for i, k in combinations(range(g.dim), 2)
               for x in m @ _ref_bracket(g, e[:, i], e[:, k]) - _ref_bracket(g, m[:, i], m[:, k]))


def _ref_conjugation(j, x):
    return max(abs(v) for v in (j.T @ x @ j - x).ravel())


def _ref_hermitian_directions(n):
    d, m = 4 * n + 2, 2 * n + 1

    def unit(*cells):
        out = fzeros((d, d))
        for cell in cells:
            out[cell] = Fraction(1)
        return out

    dirs = [unit((i, i), (n + i, n + i)) for i in range(n - 1)]
    dirs += [unit((m + r, m + c), (m + c, m + r))
             for r in range(2 * n) for c in range(r, 2 * n) if c != r + n]
    dirs.append(unit((d - 1, d - 1)))
    j0 = standard_complex_structure(n, exact=True)
    images = [j0.T @ e @ j0 - e for e in dirs]
    rows = [{k: im[p, q] for k, im in enumerate(images) if im[p, q]}
            for p in range(d) for q in range(p, d)]
    basis = nullspace_sparse([row for row in rows if row], len(dirs))
    return [sum((c * e for c, e in zip(vec, dirs)), fzeros((d, d))) for vec in basis]


# ---------------------------------------------------------------------------


def _exact_structures(n):
    """J0, a rational family member, the mixed-sign member, a non-integrable J."""
    rng = np.random.default_rng(60 + n)
    blocks = [fmat(rng.integers(-3, 4, size=(n, n)).tolist()) for _ in range(2)]
    member = IntegrableFamily(n).member(-1, Fraction(-5, 3), anticommuting_block(*blocks))
    out = {"j0": standard_complex_structure(n, exact=True), "member": member}
    if n >= 2:
        out["signed"] = signed_plane_member([1] * (n - 1) + [-1], n2=Fraction(2, 7))
    broken = member.copy()
    broken[: 2 * n, : 2 * n] *= -1
    broken[0, 2 * n] += Fraction(1, 3)
    out["broken"] = broken
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_integrability_routes_match_reference(algebras, n):
    g = algebras[n]
    for name, j in _exact_structures(n).items():
        pw, op = nijenhuis_defect(j, g), integrability_operator_defect(j, g)
        assert type(pw) is Fraction and pw == _ref_pairwise(j, g), name
        assert type(op) is Fraction and op == _ref_operator(j, g), name
        assert (pw == 0) is (name != "broken"), name
        rep = integrability_report(j, g)
        assert rep["pairwise_defect"] == pw and rep["operator_defect"] == op
        assert rep["integrable"] is (name != "broken")


@pytest.mark.parametrize("n", [1, 2])
def test_exact_routes_on_rational_structure_constants(algebras, n):
    # rescaled constants with several denominators exercise the common-denominator scaling
    g = algebras[n]
    g = LieAlgebra(g.dim, tuple((a, b, k, c * Fraction(-1) ** t / (t + 2)) for t, (a, b, k, c) in
                               enumerate(g.constants)), g.basis_names)
    x = fmat([[t - 2] for t in range(g.dim)])[:, 0]
    ad_ref = np.array([_ref_bracket(g, x, e) for e in feye(g.dim)]).T
    assert all(type(u) is Fraction and u == v for u, v in zip(g.ad_matrix(x).ravel(), ad_ref.ravel()))
    seen = []
    for name, j in _exact_structures(n).items():
        pw, op = nijenhuis_defect(j, g), integrability_operator_defect(j, g)
        assert type(pw) is Fraction and pw == _ref_pairwise(j, g), name
        assert type(op) is Fraction and op == _ref_operator(j, g), name
        seen.append(pw)
    assert any(seen)


def _float_structures(n, g):
    rng = np.random.default_rng(70 + n)
    fam = IntegrableFamily(n)
    out = []
    for _ in range(3):
        _, j = fam.sample(rng)
        f = random_automorphism(n, g, rng=rng).matrix
        jc = np.linalg.solve(f, j @ f)
        out += [jc, jc + 1e-3 * rng.standard_normal(jc.shape)]
    return out + [to_float(j) for j in _exact_structures(n).values()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_float_integrability_routes_match_reference(algebras, n):
    g = algebras[n]
    for j in _float_structures(n, g):
        tol = 64 * EPS * g.dim * max(1.0, np.abs(j).max()) ** 3
        pw, op = nijenhuis_defect(j, g), integrability_operator_defect(j, g)
        assert type(pw) is float and type(op) is float
        assert abs(pw - _ref_pairwise(j, g)) <= tol
        assert abs(op - _ref_operator(j, g)) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_float_bracket_defect_matches_reference(algebras, n):
    g = algebras[n]
    rng = np.random.default_rng(80 + n)
    mats = [random_automorphism(n, g, rng=rng).matrix for _ in range(3)]
    mats += [rng.standard_normal((g.dim, g.dim)) for _ in range(3)]
    for m in mats:
        tol = 64 * EPS * g.dim * max(1.0, np.abs(m).max()) ** 2
        got = bracket_defect(m, g)
        assert type(got) is float and abs(got - _ref_bracket_defect(m, g)) <= tol
    assert bracket_defect(mats[0], g) <= 1e-12 * np.abs(mats[0]).max() ** 2
    assert bracket_defect(mats[-1], g) > 0.1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_defects_match_reference(algebras, n):
    rng = np.random.default_rng(90 + n)
    d = 4 * n + 2
    a = fmat(rng.integers(-3, 4, size=(d, d)).tolist())
    s = a + a.T
    s[0, 1] += Fraction(1, 10**30)
    s[1, 0] += Fraction(1, 10**30)
    for j in _exact_structures(n).values():
        for x in (s, a - a.T):
            ref = _ref_conjugation(j, x)
            got = hermitian_defect(j, x)
            assert type(got) is Fraction and got == ref != 0
            assert hermitian_defect(to_float(j), to_float(x)) == _ref_conjugation(to_float(j), to_float(x))
    assert hermitian_defect(standard_complex_structure(n, exact=True), feye(d)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hermitian_directions_match_reference(n):
    got = hermitian_metric_space(n).directions
    ref = _ref_hermitian_directions(n)
    assert len(got) == len(ref) == n * n + n - 1
    for x, y in zip(got, ref):
        assert x.shape == y.shape
        assert all(type(u) is Fraction and u == v for u, v in zip(x.ravel(), y.ravel()))
