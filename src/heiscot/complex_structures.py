"""Integrable complex structures on T*h(2n+1) and their normalization.

The reference structure J0 rotates each (e_i, f_i) plane and each
(e*_i, f*_i) plane by the standard symplectic matrix and couples the two
central directions by J0 z = z*, J0 z* = -z.  It is integrable, and it is
not abelian: [J0 z*, J0 e_1] = [-z, f_1] = 0 while [z*, e_1] = f*_1.

A block ansatz (first-group rotation eps*Jbar, central corner n2, an
anticommuting lower-left block Jbar3, mirrored rotation on the starred
group) solves J^2 = -Id together with vanishing Nijenhuis tensor; see
:func:`solve_integrable_family`.  Two facts about the orbit structure of
that family under the automorphism group are worth recording because they
are easy to get wrong:

* The two signed normal forms +J0 and -J0 lie in a single automorphism
  orbit: the reflection e_i -> e_i, f_i -> -f_i, z* -> z*, which forces
  e*_i -> -e*_i, f*_i -> f*_i, z -> -z, conjugates J0 to -J0 exactly
  (:func:`sign_reversing_automorphism`).  The sign in the normal form is a
  parametrization artifact, not an invariant.

* For n >= 2 the family does not exhaust the integrable structures up to
  automorphism.  Rotating the planes with mixed signs
  (:func:`signed_plane_member`) gives an integrable structure whose
  Hermitian-type form h(u, v) = omega([Ju, v]) + i omega([u, v]) on the
  invariant complement is indefinite, while every conjugate of +-J0 has a
  definite one; the signature is a conjugation invariant, so mixed-sign
  members lie outside the orbit.  Normalization reports these honestly via
  :class:`NotInFamily`.

Integrability is decided by two routes that must agree.  The pairwise
route evaluates the bilinear Nijenhuis tensor N_J(b_i, b_k) on every
basis pair at once, contracting J with the structure constants; the
operator route composes whole matrices, ad_x + J ad_{Jx} + J ad_x J -
ad_{Jx} J for each basis x.  Both read the same structure constants,
but one sums pair values and the other multiplies operators, so a slip
in either contraction shows up as disagreement.  Exact input runs both
over Python ints (the pairwise route over one common denominator, the
operator route on :class:`heiscot._exact.SparseQ`) and gives Fractions;
float input contracts ``LieAlgebra.structure_tensor`` with numpy.

Normalization itself runs in two tiers.  Members of the block family are
recognized by rebuilding and normalized by a closed-form recipe that
is exact in rational mode.  Everything else goes through an adapted-basis
construction: find a J-invariant complement V of the starred ideal, run a
complex Gram-Schmidt against h to extract unit vectors, and rebuild the
whole basis from brackets so that the structure constants hold by
construction; the assembled change of basis is then an automorphism
conjugating J to J0.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import lstsq

from . import _exact
from ._exact import (SparseQ, ad, congruence_defect, feye, field, field_of, maxabs, negligible,
                     signed_permutation, to_float)
from .automorphism import Automorphism, _pair_tables, assemble, is_automorphism
from .lie_core import LieAlgebra, standard_symplectic

__all__ = [
    "NotIntegrable",
    "NotInFamily",
    "standard_complex_structure",
    "almost_complex_defect",
    "nijenhuis",
    "nijenhuis_defect",
    "integrability_operator_defect",
    "integrability_report",
    "is_integrable",
    "FamilyParams",
    "IntegrableFamily",
    "solve_integrable_family",
    "anticommuting_block",
    "signed_plane_member",
    "sign_reversing_automorphism",
    "match_family",
    "NormalizedComplexStructure",
    "normalize_complex_structure",
    "is_hermitian",
    "hermitian_defect",
    "HermitianMetricSpace",
    "hermitian_metric_space",
    "matches_hermitian_family",
    "is_abelian_complex_structure",
]


class NotIntegrable(ValueError):
    """Input fails J^2 = -Id or has a nonzero Nijenhuis tensor."""


class NotInFamily(ValueError):
    """Integrable input that cannot be conjugated to the reference structure."""


def signed_plane_member(n: int, signs, n2=1.0) -> np.ndarray:
    """Rotate planes (e_i, f_i) and (e*_i, f*_i) by signs[i]; z -> n2 z*, z* -> -z/n2.

    The one layout of the block family: J0 and every family member are
    built here.  Mixed signs (possible only for n >= 2) still give
    J^2 = -Id and a vanishing Nijenhuis tensor, but the structure is not
    conjugate to +-J0: the form h(u, v) = omega([Ju, v]) on span(e, f)
    picks up both signs, and its signature is preserved by conjugation.
    Exact for an exact n2 (a Fraction or an int), float otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    signs = tuple(signs)
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be n entries of +-1")
    if n2 == 0:
        raise ValueError("n2 must be nonzero")
    d = 4 * n + 2
    m = 2 * n + 1
    fld = field_of(n2)
    out = fld.zeros((d, d))
    n2 = fld.scalar(n2)
    for i, s in enumerate(signs):
        s = fld.scalar(s)
        out[n + i, i] = s
        out[i, n + i] = -s
        out[m + n + i, m + i] = s
        out[m + i, m + n + i] = -s
    out[2 * n, d - 1] = n2
    out[d - 1, 2 * n] = -(1 / n2)
    return out


def standard_complex_structure(n: int, exact: bool = False) -> np.ndarray:
    """The reference complex structure J0 on T*h(2n+1): all signs +1, n2 = 1; entries 0, +-1."""
    return signed_plane_member(n, (1,) * n, field(exact).scalar(1))


def almost_complex_defect(j: np.ndarray):
    """max |J^2 + Id|; Fraction 0 is the exact pass."""
    j = np.asarray(j)
    d = j.shape[0]
    if _exact.is_exact(j):
        jq = SparseQ.from_dense(j)
        return (jq @ jq + SparseQ({i: {i: 1} for i in range(d)})).maxabs()
    return maxabs(j @ j + np.eye(d))


def nijenhuis(j: np.ndarray, a: np.ndarray, b: np.ndarray, g: LieAlgebra) -> np.ndarray:
    """N_J(a, b) = [a,b] + J[Ja,b] + J[a,Jb] - [Ja,Jb].

    Bilinear and antisymmetric; vanishes identically iff J is integrable.
    Exact when J, a, b are all object arrays.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    j = np.asarray(j)
    if a.shape != (g.dim,) or b.shape != (g.dim,) or j.shape != (g.dim, g.dim):
        raise ValueError("dimension mismatch")
    ja = j @ a
    jb = j @ b
    return g.bracket(a, b) + j @ g.bracket(ja, b) + j @ g.bracket(a, jb) - g.bracket(ja, jb)


def nijenhuis_defect(j: np.ndarray, g: LieAlgebra):
    """max |N_J(b_i, b_k)| over basis pairs, every pair in one bilinear pass.

    With A[i, k] = [J b_i, b_k] = sum_a J_ai [b_a, b_k] and
    W[i, k] = [J b_i, J b_k] = sum_b J_bk A[i, b], the Nijenhuis tensor on
    basis pairs is c_ik + J (A[i, k] - A[k, i]) - W[i, k], because
    [b_i, J b_k] = -A[k, i].  Float input contracts ``structure_tensor``;
    exact input walks the nonzero structure constants with J scaled to
    ints over its common denominator D, so all four terms are ints over
    D^2 times the constants' denominator and one Fraction is built at the
    end.  N is antisymmetric, so its max over all pairs is the max over
    i < k.
    """
    j = np.asarray(j)
    if not _exact.is_exact(j):
        c = g.structure_tensor
        a = np.tensordot(j, c, axes=(0, 0))
        w = np.tensordot(a, j, axes=(1, 0)).transpose(0, 2, 1)
        nij = c + (a - a.transpose(1, 0, 2)) @ j.T - w
        iu, ju = _pair_tables(g)[:2]
        return maxabs(nij[iu, ju])
    jq = SparseQ.from_dense(j)
    rows, cols, den = jq.rows, jq.T.rows, jq.den
    dc, table = g.int_constants
    # nij[i, k, c] and a_tab[i, k, c]: component c of N_J(b_i, b_k) and A[i, k]
    nij, a_tab = defaultdict(int), defaultdict(int)
    for (s, t), terms in table.items():
        # [b_s, b_t] = u b_c / dc feeds c_st, A[i, t] via J_si and W[i, k] via J_si J_tk
        for (c, u) in terms:
            nij[s, t, c] += den * den * u
            for i, x in rows.get(s, {}).items():
                a_tab[i, t, c] += x * u
                for k, y in rows.get(t, {}).items():
                    nij[i, k, c] -= x * y * u
    # J A[i, k] enters N[i, k]; -J A[i, k] = J [b_k, J b_i] enters N[k, i]
    for (i, k, c), x in a_tab.items():
        for e, y in cols.get(c, {}).items():
            nij[i, k, e] += y * x
            nij[k, i, e] -= y * x
    return Fraction(max(map(abs, nij.values()), default=0), den * den * dc)


def integrability_operator_defect(j: np.ndarray, g: LieAlgebra):
    """max |ad_x + J ad_{Jx} + J ad_x J - ad_{Jx} J| over basis x.

    Applying the operator for x = b_i to b_k gives N_J(b_i, b_k), so this
    must agree with :func:`nijenhuis_defect`.  It is an independent witness
    because it is computed the other way round: whole ad matrices composed
    by matrix products, not pair values of a bilinear form.  Float input
    forms the batch of all ad(b_i) from ``structure_tensor``, the batch of
    all ad(J b_i) by one contraction with J, and the d operators as batched
    products; exact input builds each ad(b_i) and ad(J b_i) with
    :func:`heiscot._exact.ad` and composes them over :class:`SparseQ`.
    """
    j = np.asarray(j)
    if not _exact.is_exact(j):
        ad_b = g.structure_tensor.transpose(0, 2, 1)
        ad_j = np.tensordot(j, ad_b, axes=(0, 0))
        return maxabs(ad_b + j @ ad_j + j @ ad_b @ j - ad_j @ j)
    jq = SparseQ.from_dense(j)
    cols = jq.T.rows
    worst = Fraction(0)
    for i in range(g.dim):
        ad_x = ad(g, {i: 1})
        ad_jx = ad(g, cols.get(i, {}), jq.den)
        op = ad_x + jq @ ad_jx + jq @ ad_x @ jq - ad_jx @ jq
        worst = max(worst, op.maxabs())
    return worst


def integrability_report(j: np.ndarray, g: LieAlgebra, tol: float = 1e-10) -> dict:
    """Both integrability routes plus the J^2 check, with the verdict.

    Returns
    -------
    dict with keys ``almost_complex_defect``, ``pairwise_defect``,
    ``operator_defect``, ``routes_agree``, ``integrable``.
    """
    acd = almost_complex_defect(j)
    pw = nijenhuis_defect(j, g)
    op = integrability_operator_defect(j, g)
    # the routes agree within tol, or within 1e-12 of the size of a J^3 term
    agree = negligible(pw - op, tol) or negligible(pw - op, 1e-12, j, power=3)
    ok = negligible(acd, tol, j, power=2) and negligible(pw, tol, j, power=3) and agree
    return {
        "almost_complex_defect": acd,
        "pairwise_defect": pw,
        "operator_defect": op,
        "routes_agree": agree,
        "integrable": ok,
    }


def is_integrable(j: np.ndarray, g: LieAlgebra) -> bool:
    """True iff J^2 = -Id and the Nijenhuis tensor vanishes (both routes, at 1e-10)."""
    return integrability_report(j, g)["integrable"]


# ---------------------------------------------------------------------------
# the block family


def anticommuting_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[A, B], [B, -A]] anticommutes with the standard symplectic matrix.

    The pattern is forced: writing Jbar3 in n x n blocks, Jbar3 Jbar +
    Jbar Jbar3 = 0 is equivalent to the lower-right being minus the
    upper-left and the off-diagonal blocks being equal.  The identity is
    re-verified on the assembled matrix.  Exact when both blocks are.
    """
    fld = field_of(a, b)
    a = fld.array(a)
    b = fld.array(b)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("blocks must be square and equally sized")
    out = fld.zeros((2 * n, 2 * n))
    out[:n, :n] = a
    out[:n, n:] = b
    out[n:, :n] = b
    out[n:, n:] = -a
    jb = standard_symplectic(n, exact=fld.exact)
    if not negligible(maxabs(out @ jb + jb @ out), 1e-12, out):
        raise ValueError("assembled block fails to anticommute")
    return out


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of one family member: sign, central corner, coupling block."""

    epsilon: int
    n2: object
    jbar3: np.ndarray

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.n2 == 0:
            raise ValueError("n2 must be nonzero")


@dataclass(frozen=True)
class IntegrableFamily:
    """All solutions of the block ansatz for J^2 = -Id with N_J = 0.

    J acts by epsilon * Jbar on (e, f) and on (e*, f*), maps z -> n2 z*
    and z* -> -(1/n2) z, and carries an arbitrary block anticommuting
    with Jbar from (e, f) into (e*, f*).  Every member is integrable.
    For n = 1 every integrable structure is an automorphism conjugate of
    a member (indeed of J0 itself); for n >= 2 integrable structures
    outside every conjugate of the family exist, see
    :func:`signed_plane_member`.
    """

    n: int

    def member(self, epsilon: int, n2, jbar3: np.ndarray | None = None) -> np.ndarray:
        """The member (epsilon, n2, jbar3); exact when n2 and jbar3 both are."""
        n = self.n
        fld = field_of(n2, jbar3)
        out = signed_plane_member(n, (epsilon,) * n, fld.scalar(n2))
        if jbar3 is not None:
            jbar3 = fld.array(jbar3)
            if jbar3.shape != (2 * n, 2 * n):
                raise ValueError("jbar3 shape mismatch")
            jb = standard_symplectic(n, exact=fld.exact)
            if not negligible(maxabs(jbar3 @ jb + jb @ jbar3), 1e-10, jbar3):
                raise ValueError("jbar3 must anticommute with the plane rotation")
            out[2 * n + 1 : 4 * n + 1, : 2 * n] = jbar3
        return out

    def sample(self, rng: np.random.Generator) -> tuple[FamilyParams, np.ndarray]:
        """Draw a random member; the anticommuting block is built, then verified."""
        n = self.n
        epsilon = 1 if rng.random() < 0.5 else -1
        n2 = float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
        jbar3 = anticommuting_block(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        params = FamilyParams(epsilon=epsilon, n2=n2, jbar3=jbar3)
        return params, self.member(epsilon, n2, jbar3)


def solve_integrable_family(n: int) -> IntegrableFamily:
    """The parametrized solution family of the block ansatz for given n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return IntegrableFamily(n=n)


def sign_reversing_automorphism(n: int, g: LieAlgebra) -> Automorphism:
    """Automorphism R with R^{-1} J0 R = -J0; an involution.

    Fbar1 = diag(Id, -Id) flips every f_i and is antisymplectic
    (conformal factor -1), so the determined central block flips e*_i
    and z.  Existence of R makes the sign of the normal form a gauge
    choice rather than an invariant.  Exact.
    """
    fb1 = feye(2 * n)
    for i in range(n):
        fb1[n + i, n + i] = -fb1[n + i, n + i]
    return assemble(g, Fbar1=fb1)


# ---------------------------------------------------------------------------
# normalization


def match_family(j: np.ndarray, n: int) -> FamilyParams | None:
    """Extract (epsilon, n2, jbar3) if J is a member of the block family, else None.

    The member named by the entries read off J is rebuilt and compared with
    J in every entry: exactly for exact input, else within 1e-10 of max |J|.
    """
    j = np.asarray(j)
    d = 4 * n + 2
    m = 2 * n + 1
    if j.shape != (d, d):
        raise ValueError("matrix dimension mismatch")
    exact = _exact.is_exact(j)
    eps_entry = j[n, 0]
    if negligible(eps_entry - 1, 1e-10, j):
        epsilon = 1
    elif negligible(eps_entry + 1, 1e-10, j):
        epsilon = -1
    else:
        return None
    n2 = j[2 * n, d - 1]
    if negligible(n2, 1e-10, j):
        return None
    jbar3 = j[m : m + 2 * n, : 2 * n]
    jb = standard_symplectic(n, exact=exact)
    if not negligible(maxabs(jbar3 @ jb + jb @ jbar3), 1e-10, j):
        return None
    rebuilt = IntegrableFamily(n).member(epsilon, n2)
    rebuilt[m : m + 2 * n, : 2 * n] = jbar3
    if not negligible(maxabs(j - rebuilt), 1e-10, j):
        return None
    return FamilyParams(epsilon=epsilon, n2=n2, jbar3=jbar3.copy())


@dataclass(frozen=True)
class NormalizedComplexStructure:
    """Result of normalization: F^{-1} J F = epsilon * J0 within ``residual``.

    route is "template" (closed-form recipe on a family match, exact
    capable, epsilon follows the member's sign) or "adapted" (general
    basis construction, float, always epsilon = +1).
    """

    matrix: np.ndarray
    epsilon: int
    residual: object
    route: str


def _normalize_template(j: np.ndarray, g: LieAlgebra,
                        params: FamilyParams) -> NormalizedComplexStructure:
    # Fbar1 = Id, f1 = eps * n2 and F3 upper block -(eps/2) Jbar3 Jbar kill
    # the coupling; the determined F4 = diag(eps n2 Id, 1) rescales the
    # starred group to absorb n2.
    n = g.n
    m = 2 * n + 1
    fld = field_of(j)
    jb = standard_symplectic(n, exact=fld.exact)
    half = fld.scalar(1) / 2
    f3 = fld.zeros((m, m))
    f3[: 2 * n, : 2 * n] = -(params.epsilon * half) * (np.asarray(params.jbar3) @ jb)
    f1 = params.epsilon * fld.scalar(params.n2)
    aut = assemble(g, f1=f1, F3=f3)
    fm = aut.matrix
    j0 = standard_complex_structure(n, exact=fld.exact)
    resid = maxabs(fld.solve(fm, j @ fm) - params.epsilon * j0)
    return NormalizedComplexStructure(matrix=fm, epsilon=params.epsilon,
                                      residual=resid, route="template")


def _invariant_complement(jm: np.ndarray, g: LieAlgebra, tol: float):
    """A J-invariant complement V of the starred ideal, as a (dim, 2n) basis.

    For n >= 2 a complement inside span(e, f) graphed over the ideal always
    exists once J is integrable: the z-column of J restricted to the ideal
    is rank one, which pins the z*-component functional, and the remaining
    graph map solves a Sylvester-type linear system.  For n = 1 the
    complement may need z*-components, so it is produced instead by
    averaging the orthogonal projection onto U = ideal + J(ideal) into a
    J-commuting one and taking the image of I - P.

    The n >= 2 system is built whole: with Phi flattened row by row,
    vec(Phi Bmap) = (I_m kron Bmap^T) vec(Phi), vec(M4 Phi) =
    (M4 kron I_2n) vec(Phi) and b^T Phi = (b^T kron I_2n) vec(Phi).  The
    Sylvester part is singular (Bmap and M4 share the eigenvalues +-i), so
    the solve must be rank revealing; LAPACK's gelsy (complete orthogonal
    factorization by pivoted QR) returns the same minimum-norm solution as
    the SVD driver gelsd of ``np.linalg.lstsq`` at a fraction of the cost,
    provided it cuts the rank at the same relative level, eps * max(shape).
    """
    n = g.n
    d = g.dim
    m = 2 * n + 1
    if n == 1:
        ideal = np.eye(d)[:, m:]
        u = np.hstack([ideal, jm @ ideal])
        qu, su, _ = np.linalg.svd(u, full_matrices=False)
        rank = int((su > 1e-10 * su[0]).sum())
        if rank != 2 * n + 2:
            raise NotInFamily(f"ideal + J(ideal) has rank {rank}, expected {2 * n + 2}")
        ub = qu[:, :rank]
        p0 = ub @ ub.T
        # J^{-1} = -J, so (P0 - J P0 J)/2 commutes with J and still fixes U
        p = 0.5 * (p0 - jm @ p0 @ jm)
        uu, ss, _ = np.linalg.svd(np.eye(d) - p)
        v = uu[:, ss > 0.5]
        if v.shape[1] != 2 * n:
            raise NotInFamily(f"complement dimension {v.shape[1]}, expected {2 * n}")
        return v
    m2 = jm[:m, m:]
    uu, ss, vv = np.linalg.svd(m2)
    if ss[0] < tol or ss[1] > 1e-8 * ss[0]:
        raise NotInFamily("central coupling block is not rank one")
    a = uu[:, 0] * ss[0]
    b = vv[0, :]
    if abs(a[2 * n]) < 1e-10 * np.abs(a).max():
        raise NotInFamily("central coupling misses the z* direction")
    m1 = jm[:m, :m]
    svec = -m1[2 * n, : 2 * n] / a[2 * n]
    bmap = m1[: 2 * n, : 2 * n] + np.outer(a[: 2 * n], svec)
    m3 = jm[m:, :m]
    m4 = jm[m:, m:]
    c = m3[:, : 2 * n]
    # unknown graph Phi (m x 2n), row-major: Phi Bmap - M4 Phi = C and b^T Phi = svec
    mat = _complement_system(bmap, m4, b)
    vec = np.concatenate([c.ravel(), svec])
    # numpy's lstsq cutoff (rcond=None); gelsy's default eps keeps noise directions
    sol = lstsq(mat, vec, cond=np.finfo(float).eps * max(mat.shape), lapack_driver="gelsy")[0]
    resid = maxabs(mat @ sol - vec)
    if not negligible(resid, 1e-7, vec):
        raise NotInFamily(f"invariant-complement system is inconsistent ({resid:.2e})")
    phi = sol.reshape(m, 2 * n)
    v = np.zeros((d, 2 * n))
    v[: 2 * n, :] = np.eye(2 * n)
    v[m:, :] = phi
    return v


def _complement_system(bmap: np.ndarray, m4: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of Phi -> (Phi Bmap - M4 Phi, b^T Phi) on Phi flattened row by row.

    That is [[kron(E, Bmap^T) - kron(M4, E)], [kron(b, E)]], written by
    broadcasting into one array.  It forms the same products and
    differences as the Kronecker products, so even its signed zeros match
    them, and the pivoted QR of the solve sees the same bytes.
    """
    k, m = len(bmap), len(m4)
    ek = np.eye(k)[:, None, :]
    out = np.empty((m + 1, k, m, k))
    np.subtract(np.eye(m)[:, None, :, None] * bmap.T[:, None, :], m4[:, None, :, None] * ek, out=out[:m])
    np.multiply(b[:, None], ek, out=out[m])
    return out.reshape((m + 1) * k, m * k)


def _unit_vectors(jm: np.ndarray, v: np.ndarray, g: LieAlgebra):
    """Complex Gram-Schmidt on V against h(u, w) = om(Ju, w) + i om(u, w).

    om is the z-coefficient of the bracket, the bilinear form
    om(x, y) = x^T W y with W = C[:, :, z] read off the structure tensor,
    so h(x, y) = (Jx)^T W y + i x^T W y and the Gram matrix of Re h on V
    is the single product (JV)^T W V.  Definiteness of h is exactly
    membership in the orbit of J0; an indefinite h aborts with NotInFamily.
    """
    n = g.n
    if n == 1:
        cands = [v[:, 0], v[:, 1], v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]]
        cands = [c / np.linalg.norm(c) for c in cands]
        u1 = max(cands, key=lambda c: np.abs(g.bracket(c, jm @ c)).max())
        zn = np.linalg.norm(g.bracket(u1, jm @ u1))
        if zn < 1e-14:
            raise NotInFamily("[u, Ju] vanishes on the whole complement")
        return [u1 / np.sqrt(zn)]

    w = g.structure_tensor[:, :, g.dim - 1]
    hre = (jm @ v).T @ w @ v
    hre = 0.5 * (hre + hre.T)
    eigs = np.linalg.eigvalsh(hre)
    if eigs.min() <= 0 <= eigs.max():
        raise NotInFamily(
            "h-form on the invariant complement is indefinite; "
            "the structure is not conjugate to the reference one"
        )

    def h(x, y):
        wy = w @ y
        return (jm @ x) @ wy + 1j * (x @ wy)

    units = []
    for k in range(2 * n):
        u = v[:, k].copy()
        for p in units:
            coef = h(p, u) / h(p, p)
            u = u - (coef.real * p + coef.imag * (jm @ p))
        nor = abs(h(u, u))
        if nor < 1e-10:
            continue
        units.append(u / np.sqrt(nor))
        if len(units) == n:
            break
    if len(units) < n:
        raise NotInFamily("Gram-Schmidt exhausted the complement early")
    return units


def _normalize_adapted(jm: np.ndarray, g: LieAlgebra, tol: float) -> NormalizedComplexStructure:
    jm = to_float(jm)
    n = g.n
    d = g.dim
    m = 2 * n + 1
    v = _invariant_complement(jm, g, tol)
    coef, _, _, _ = np.linalg.lstsq(v, jm @ v, rcond=None)
    inv_defect = maxabs(v @ coef - jm @ v)
    if not negligible(inv_defect, 1e-7, v):
        raise NotInFamily(f"complement drifts under J ({inv_defect:.2e})")
    units = _unit_vectors(jm, v, g)
    es = units
    fs = [jm @ u for u in units]
    # the new basis is defined by brackets, so the structure constants
    # hold by construction; integrability then forces J e*' = f*'
    zp = g.bracket(es[0], fs[0])
    if np.abs(zp).max() < 1e-12:
        raise NotInFamily("[e'_1, f'_1] = 0")
    zsp = jm @ zp
    if np.abs(zsp[:m]).max() < 1e-12:
        raise NotInFamily("J z' is central and cannot serve as z*'")
    fstars = [g.bracket(zsp, e) for e in es]
    estars = [-g.bracket(zsp, f) for f in fs]
    fm = np.zeros((d, d))
    for i in range(n):
        fm[:, i] = es[i]
        fm[:, n + i] = fs[i]
        fm[:, m + i] = estars[i]
        fm[:, m + n + i] = fstars[i]
    fm[:, 2 * n] = zsp
    fm[:, d - 1] = zp
    colns = np.linalg.norm(fm, axis=0)
    if negligible(colns.min(), 1e-13, colns):
        raise NotInFamily("assembled basis degenerates")
    sv = np.linalg.svd(fm / colns, compute_uv=False)
    if sv[-1] < 1e-9 * sv[0]:
        raise NotInFamily("assembled basis degenerates")
    j0 = standard_complex_structure(n)
    resid = float(np.abs(np.linalg.solve(fm, jm @ fm) - j0).max())
    return NormalizedComplexStructure(matrix=fm, epsilon=1, residual=resid, route="adapted")


def normalize_complex_structure(j: np.ndarray, g: LieAlgebra,
                                tol: float = 1e-9) -> NormalizedComplexStructure:
    """Conjugate an integrable J to epsilon * J0 by an automorphism.

    Family members are recognized by rebuilding and normalized in
    closed form (exact for rational input; epsilon is the member's sign).
    Any other integrable structure goes through the adapted-basis
    construction, which lands on +J0 whenever the structure lies in the
    automorphism orbit of J0 and raises :class:`NotInFamily` otherwise;
    the raise is a genuine verdict for n >= 2, where integrable
    structures outside the orbit exist.

    Raises
    ------
    NotIntegrable
        If J^2 != -Id or the Nijenhuis tensor does not vanish.
    NotInFamily
        If the structure is integrable but not conjugate to +-J0 (or the
        float construction degenerates).
    """
    j = np.asarray(j)
    if j.shape != (g.dim, g.dim):
        raise ValueError("matrix dimension mismatch")
    report = integrability_report(j, g, tol=max(tol, 1e-10))
    if not report["integrable"]:
        raise NotIntegrable(
            f"J^2 defect {float(report['almost_complex_defect']):.2e}, "
            f"Nijenhuis defect {float(report['pairwise_defect']):.2e}"
        )
    params = match_family(j, g.n)
    if params is not None:
        return _normalize_template(j, g, params)
    result = _normalize_adapted(j, g, tol)
    if not negligible(float(result.residual), tol, j):
        raise NotInFamily(f"normalization residual {float(result.residual):.2e}")
    if not is_automorphism(result.matrix, g, tol=1e-8):
        raise NotInFamily("assembled change of basis fails bracket preservation")
    return result


# ---------------------------------------------------------------------------
# Hermitian compatibility


def hermitian_defect(j: np.ndarray, s: np.ndarray):
    """max |J^T S J - S|; zero iff the metric is J-invariant.  Exact, over
    :class:`SparseQ`, when J and S are both exact."""
    return congruence_defect(np.asarray(j), np.asarray(s), np.asarray(s))


def is_hermitian(j: np.ndarray, s: np.ndarray) -> bool:
    """True iff S(J., J.) = S(., .), exactly for object arrays, else within 1e-10 of max |S|."""
    return negligible(hermitian_defect(j, s), 1e-10, s)


@dataclass(frozen=True)
class HermitianMetricSpace:
    """Affine solution space of J0-invariance inside the canonical template.

    particular + span(directions) lists every canonical-template metric S
    with J0^T S J0 = S.  The constraints decouple: the central scale is
    pinned to the z* normalization (omega4 = 1) and the starred block must
    commute with the plane rotation, i.e. S4bar = [[P, Q], [-Q, P]] with P
    symmetric and Q antisymmetric; the template's prescribed zeros sit on
    the diagonal of Q and are automatic.  Dimension n^2 + n - 1.
    """

    n: int
    particular: np.ndarray
    directions: list

    @property
    def dimension(self) -> int:
        return len(self.directions)

    @property
    def expected_dimension(self) -> int:
        return self.n * self.n + self.n - 1


def _j0_invariance_equations(n: int):
    """The entries a <= b of J0^T X J0 - X, as equations on the entries of X.

    J0 is a signed permutation, J0 b_c = sgn_c b_img(c), so
    (J0^T X J0)[a, b] = sgn_a sgn_b X[img(a), img(b)]: no matrix product.
    """
    img, sgn = (x.tolist() for x in signed_permutation(standard_complex_structure(n)))
    d = 4 * n + 2
    for a in range(d):
        for b in range(a, d):
            yield [((img[a], img[b]), sgn[a] * sgn[b]), ((a, b), -1)]


def hermitian_metric_space(n: int) -> HermitianMetricSpace:
    """Exact solve of J0^T S J0 = S over the canonical metric template.

    The template diag(D(sigma), 1, S4bar, omega4) has sigma_n and the z*
    entry pinned by the normalization, so its free directions are
    sigma_1..sigma_{n-1}, the symmetric units of S4bar except the n
    prescribed zeros, and omega4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 4 * n + 2
    m = 2 * n + 1
    dirs = [{(i, i): 1, (n + i, n + i): 1} for i in range(n - 1)]
    dirs += [{(m + r, m + c): 1, (m + c, m + r): 1}
             for r in range(2 * n) for c in range(r, 2 * n) if c != r + n]
    dirs.append({(d - 1, d - 1): 1})
    particular = feye(d)
    assert hermitian_defect(standard_complex_structure(n, exact=True), particular) == 0
    directions = _exact.solution_space(_j0_invariance_equations(n), dirs, (d, d))
    return HermitianMetricSpace(n=n, particular=particular, directions=directions)


def matches_hermitian_family(s: np.ndarray, n: int) -> bool:
    """Template metric lies in the J0-invariant family iff omega4 = 1 and
    the starred block commutes with the plane rotation (within 1e-10 of max |S|)."""
    s = np.asarray(s)
    d = 4 * n + 2
    m = 2 * n + 1
    jb = standard_symplectic(n, exact=_exact.is_exact(s))
    s4 = s[m : m + 2 * n, m : m + 2 * n]
    comm = maxabs(s4 @ jb - jb @ s4)
    return negligible(comm, 1e-10, s) and negligible(s[d - 1, d - 1] - 1, 1e-10, s)


def is_abelian_complex_structure(j: np.ndarray, g: LieAlgebra) -> tuple[bool, tuple | None]:
    """Check [Jx, Jy] = [x, y] on basis pairs, within 1e-10 of max |J|^2; returns (verdict, witness).

    The witness is the first violating pair as basis names.  J0 fails with
    witness (z*, e_1): J0 sends that pair to (-z, f_1), which brackets to
    zero, while [z*, e_1] = f*_1.
    """
    j = np.asarray(j)
    d = g.dim
    eye = field_of(j).eye(d)
    for a in range(d):
        for b in range(a + 1, d):
            lhs = g.bracket(eye[a], eye[b])
            rhs = g.bracket(j[:, a], j[:, b])
            if not negligible(maxabs(lhs - rhs), 1e-10, j, power=2):
                return False, (g.basis_names[a], g.basis_names[b])
    return True, None
