"""Curvature of left-invariant metrics, computed on the Lie algebra.

For a left-invariant (pseudo-)Riemannian metric every geometric quantity
is finite-dimensional linear algebra: the Koszul formula loses its
derivative terms and reduces to

    2 <nabla_x y, w> = <[x, y], w> - <[y, w], x> + <[w, x], y>

for x, y, w in the algebra.  From the connection we form the curvature
operator R(x, y) = [nabla_x, nabla_y] - nabla_[x, y], its Ricci trace,
and for two-step nilpotent algebras a second, independent Ricci formula
that bypasses the connection entirely.  Every function accepts either a
float matrix or a Fraction (dtype=object) matrix and keeps the
arithmetic exact in the second case.  The exact branches of the
connection, the curvature tensor and the nilpotent Ricci traces run on
the sparse integer kernel :class:`heiscot._exact.SparseQ`; the float
branches are dense numpy.

Index conventions: gamma[i, j, :] are the coordinates of nabla_{b_i} b_j,
riem[i, j, k, :] those of R(b_i, b_j) b_k.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ._exact import SparseQ, ad, field_of, fzeros, is_exact, ldl_inertia, maxabs
from ._exact import inv as _exact_inv
from .lie_core import LieAlgebra

__all__ = [
    "levi_civita",
    "riemann",
    "ricci_from_riemann",
    "ricci_nilpotent_formula",
    "ricci_nilpotent_summands",
    "scalar_curvature",
    "signature",
    "torsion_defect",
    "compatibility_defect",
    "first_bianchi_defect",
    "second_bianchi_defect",
    "is_flat",
]


def levi_civita(g: LieAlgebra, s: np.ndarray) -> np.ndarray:
    """Connection coefficients of the metric ``s`` via the Koszul formula.

    Parameters
    ----------
    g : LieAlgebra
    s : ndarray
        Symmetric nondegenerate (d, d) matrix, float or Fraction.

    Returns
    -------
    ndarray
        gamma of shape (d, d, d) with gamma[i, j, :] = nabla_{b_i} b_j.

    Notes
    -----
    No definiteness is assumed; any nondegenerate symmetric s works.
    The three Koszul terms are accumulated sparsely over the structure
    constants, so the cost is dominated by the final d^2 solves.  Exact
    input takes them from the sparse ad matrices and multiplies by s^{-1}
    over ints, with one division per entry at the end.
    """
    d = g.dim
    if is_exact(s):
        sq = SparseQ.from_dense(s)
        sinv_t = SparseQ.from_dense(_exact_inv(s).T)
        # p[j][a, w] = <b_a, [b_j, b_w]>, so the Koszul right-hand side for
        # fixed i is p[i].T - p[i] - q with q[j, w] = p[j][i, w]
        p = [sq.T @ ad(g, {j: 1}) for j in range(d)]
        gamma = fzeros((d, d, d))
        for i in range(d):
            q = SparseQ({j: pj.rows[i] for j, pj in enumerate(p) if i in pj.rows}, p[i].den)
            gamma[i] = (Fraction(1, 2) * ((p[i].T - p[i] - q) @ sinv_t)).dense((d, d))
        return gamma
    rhs = np.zeros((d, d, d))
    # <[a,b],.> enters three times; walk the constants once per term
    for (a, b, k, v) in g.constants:
        c = float(v)
        # term <[i,j], w>: (i,j) = (a,b) and the flip
        rhs[a, b, :] += c * s[k, :]
        rhs[b, a, :] -= c * s[k, :]
        # term -<[j,w], i>: (j,w) = (a,b) and the flip
        rhs[:, a, b] -= c * s[k, :]
        rhs[:, b, a] += c * s[k, :]
        # term <[w,i], j>: (w,i) = (a,b) and the flip
        rhs[b, :, a] += c * s[k, :]
        rhs[a, :, b] -= c * s[k, :]
    sinv_t = np.linalg.inv(s).T
    gamma = np.zeros((d, d, d))
    for i in range(d):
        gamma[i] = 0.5 * (rhs[i] @ sinv_t)
    return gamma


def riemann(g: LieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Curvature tensor R(b_i, b_j) b_k from connection coefficients.

    Returns shape (d, d, d, d); riem[i, j, k, :] = R(b_i, b_j) b_k with
    R(x, y) = nabla_x nabla_y - nabla_y nabla_x - nabla_[x, y].
    """
    d = g.dim
    if is_exact(gamma):
        # with G_i = gamma[i] (row k = nabla_i b_k), R(b_i, b_j) in the same
        # layout is G_j G_i - G_i G_j - sum_k c_ij^k G_k
        ops = [SparseQ.from_dense(gamma[i]) for i in range(d)]
        riem = fzeros((d, d, d, d))
        for i in range(d):
            for j in range(i + 1, d):
                block = ops[j] @ ops[i] - ops[i] @ ops[j]
                for (k, v) in g.bracket_sparse(i, j):
                    block = block - v * ops[k]
                riem[i, j] = block.dense((d, d))
                riem[j, i] = ((-1) * block).dense((d, d))
        return riem
    # ops[i] acts on coordinate vectors: column k = nabla_{b_i} b_k
    ops = [gamma[i].T.copy() for i in range(d)]
    riem = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            block = ops[i] @ ops[j] - ops[j] @ ops[i]
            for (k, v) in g.bracket_sparse(i, j):
                block = block - float(v) * ops[k]
            riem[i, j] = block.T
            riem[j, i] = -block.T
    return riem


def ricci_from_riemann(riem: np.ndarray) -> np.ndarray:
    """Ricci tensor ric(y, z) = trace of x -> R(x, y) z."""
    d = riem.shape[0]
    ric = field_of(riem).zeros((d, d))
    for y in range(d):
        for z in range(d):
            acc = riem[0, y, z, 0]
            for x in range(1, d):
                acc = acc + riem[x, y, z, x]
            ric[y, z] = acc
    return ric


def ricci_nilpotent_formula(g: LieAlgebra, s: np.ndarray) -> np.ndarray:
    """Ricci tensor of a two-step nilpotent metric algebra, connection-free.

    For a nilpotent (hence unimodular) Lie algebra with left-invariant
    metric s the Ricci tensor is

        ric(u, v) = -1/4 tr(j_u j_v) - 1/2 tr(ad_u ad*_v)

    where ad*_u is the metric adjoint of ad_u and j_u is defined by
    j_u v = ad*_v u.  Serves as an independent cross-check of
    :func:`ricci_from_riemann`; the two agree to rounding on any metric.

    Raises
    ------
    ValueError
        If g is not two-step nilpotent (the formula is only certified
        for that case here).
    """
    one, two = ricci_nilpotent_summands(g, s)
    return one + two


def ricci_nilpotent_summands(g: LieAlgebra, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two traces of the nilpotent Ricci formula, kept separate.

    Returns (-1/4 tr(j_u j_v), -1/2 tr(ad_u ad*_v)) as matrices; their sum
    is :func:`ricci_nilpotent_formula`.  Kept separate because for some
    metrics each trace vanishes on its own, which is a stronger statement
    than Ricci-flatness.
    """
    if not g.is_two_step_nilpotent():
        raise ValueError("nilpotent Ricci formula requires a 2-step nilpotent algebra")
    d = g.dim
    if is_exact(s):
        sq = SparseQ.from_dense(s)
        sinv = SparseQ.from_dense(_exact_inv(s))
        ads = [ad(g, {u: 1}) for u in range(d)]
        adstar = [sinv @ a.T @ sq for a in ads]
        # ju[u][a, w] = adstar[w][a, u]
        ju = [SparseQ({}, adstar[0].den) for _ in range(d)]
        for w, m in enumerate(adstar):
            for a, row in m.rows.items():
                for u, x in row.items():
                    ju[u].rows.setdefault(a, {})[w] = x
        one = fzeros((d, d))
        two = fzeros((d, d))
        for u in range(d):
            for v in range(u, d):
                one[u, v] = one[v, u] = Fraction(-1, 4) * ju[u].trace_of_product(ju[v])
                two[u, v] = two[v, u] = Fraction(-1, 2) * ads[u].trace_of_product(adstar[v])
        return one, two
    sinv = np.linalg.inv(s)
    ad_f = [g.ad_basis(u) for u in range(d)]
    adstar = [sinv @ a.T @ s for a in ad_f]
    ju = []
    for u in range(d):
        m = np.zeros((d, d))
        for w in range(d):
            m[:, w] = adstar[w][:, u]
        ju.append(m)
    one = np.zeros((d, d))
    two = np.zeros((d, d))
    for u in range(d):
        for v in range(u, d):
            t1 = -0.25 * (ju[u] * ju[v].T).sum()
            t2 = -0.5 * (ad_f[u] * adstar[v].T).sum()
            one[u, v] = t1
            one[v, u] = t1
            two[u, v] = t2
            two[v, u] = t2
    return one, two


def scalar_curvature(s: np.ndarray, ric: np.ndarray):
    """Scalar curvature tr(s^{-1} ric); Fraction in exact mode."""
    fld = field_of(s)
    return fld.scalar((fld.inv(s) * ric.T).sum())


def signature(s: np.ndarray, tol: float = 1e-9) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric matrix.

    Exact input uses a rational LDL^T factorization, so zero really means
    zero; float input counts eigenvalues against tol * max|eigenvalue|.
    """
    if is_exact(s):
        return ldl_inertia(s)
    w = np.linalg.eigvalsh(s)
    scale = max(np.abs(w).max(), 1.0)
    pos = int((w > tol * scale).sum())
    neg = int((w < -tol * scale).sum())
    return pos, neg, len(w) - pos - neg


def torsion_defect(g: LieAlgebra, gamma: np.ndarray):
    """max |nabla_i j - nabla_j i - [b_i, b_j]|; zero for Levi-Civita."""
    d = g.dim
    fld = field_of(gamma)
    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            diff = gamma[i, j, :] - gamma[j, i, :]
            for (k, v) in g.bracket_sparse(i, j):
                diff = diff.copy()
                diff[k] -= fld.scalar(v)
            worst = max(worst, maxabs(diff))
    return worst


def compatibility_defect(g: LieAlgebra, s: np.ndarray, gamma: np.ndarray):
    """max |<nabla_i b_j, b_k> + <b_j, nabla_i b_k>| over basis triples.

    Left-invariant inner products of left-invariant fields are constant,
    so metric compatibility is exactly the vanishing of this quantity.
    """
    d = g.dim
    worst = 0.0
    for i in range(d):
        # m[j, k] = <nabla_i b_j, b_k>; compatibility says m is skew
        m = gamma[i] @ s
        worst = max(worst, maxabs(m + m.T))
    return worst


def first_bianchi_defect(riem: np.ndarray):
    """max |R(x,y)z + R(y,z)x + R(z,x)y| over basis triples."""
    d = riem.shape[0]
    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                cyc = riem[i, j, k, :] + riem[j, k, i, :] + riem[k, i, j, :]
                worst = max(worst, maxabs(cyc))
    return worst


def second_bianchi_defect(g: LieAlgebra, gamma: np.ndarray, riem: np.ndarray):
    """max |(nabla_x R)(y,z) + (nabla_y R)(z,x) + (nabla_z R)(x,y)| on basis triples.

    (nabla_i R)(j, k) is the operator
    [nabla_i, R(j,k)] - R(nabla_i b_j, k) - R(j, nabla_i b_k), with R
    extended bilinearly in its two lower slots.
    """
    d = g.dim
    ops = [gamma[i].T.copy() for i in range(d)]
    rop = [[riem[i, j].T.copy() for j in range(d)] for i in range(d)]

    def cov(i, j, k):
        m = ops[i] @ rop[j][k] - rop[j][k] @ ops[i]
        for a in range(d):
            va = gamma[i, j, a]
            if va:
                m = m - va * rop[a][k]
            vb = gamma[i, k, a]
            if vb:
                m = m - vb * rop[j][a]
        return m

    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                m = cov(i, j, k) + cov(j, k, i) + cov(k, i, j)
                worst = max(worst, maxabs(m))
    return worst


def is_flat(riem: np.ndarray, tol: float = 1e-10) -> bool:
    """True when every curvature entry is below tol in absolute value.

    Exact input is flat only when every entry is exactly zero; tol is then
    not used.
    """
    if is_exact(riem):
        return not any(riem.ravel())
    return maxabs(riem) <= tol
