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
recognized by pattern matching and normalized by a closed-form recipe that
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

from . import _exact
from ._exact import (SparseQ, ad, congruence_defect, feye, field, field_of, fzeros, maxabs,
                     negligible, nullspace_sparse, to_float)
from .automorphism import AutParams, Automorphism, assemble, is_automorphism
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


def standard_complex_structure(n: int, exact: bool = False) -> np.ndarray:
    """The reference complex structure J0 on T*h(2n+1).

    Rotates (e_i, f_i) and (e*_i, f*_i) by the standard symplectic matrix
    and maps z -> z*, z* -> -z.  Entries are 0, +-1, so the exact and float
    versions carry the same information.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 4 * n + 2
    fld = field(exact)
    jb = standard_symplectic(n, exact=exact)
    out = fld.zeros((d, d))
    one = fld.scalar(1)
    out[: 2 * n, : 2 * n] = jb
    out[2 * n + 1 : 4 * n + 1, 2 * n + 1 : 4 * n + 1] = jb
    out[2 * n, d - 1] = one
    out[d - 1, 2 * n] = -one
    return out


def _j0_permutation(n: int) -> tuple[list[int], list[int]]:
    """J0 as a signed permutation: J0 b_c = sgn[c] b_img[c], sgn[c] = +-1 as ints."""
    j0 = standard_complex_structure(n)
    img = [int(np.flatnonzero(col)[0]) for col in j0.T]
    return img, [int(j0[r, c]) for c, r in enumerate(img)]


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
        return maxabs(nij[np.triu_indices(g.dim, 1)])
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
    scale = max(1.0, float(maxabs(j)) ** 3)
    agree = negligible(pw - op, max(tol, 1e-12 * scale), 1.0)
    ok = (negligible(acd, tol, max(1.0, float(maxabs(j)) ** 2)) and negligible(pw, tol, scale)
          and agree)
    return {
        "almost_complex_defect": acd,
        "pairwise_defect": pw,
        "operator_defect": op,
        "routes_agree": agree,
        "integrable": ok,
    }


def is_integrable(j: np.ndarray, g: LieAlgebra, tol: float = 1e-10) -> bool:
    """True iff J^2 = -Id and the Nijenhuis tensor vanishes (both routes)."""
    return integrability_report(j, g, tol=tol)["integrable"]


# ---------------------------------------------------------------------------
# the block family


def anticommuting_block(a: np.ndarray, b: np.ndarray, exact: bool = False) -> np.ndarray:
    """[[A, B], [B, -A]] anticommutes with the standard symplectic matrix.

    The pattern is forced: writing Jbar3 in n x n blocks, Jbar3 Jbar +
    Jbar Jbar3 = 0 is equivalent to the lower-right being minus the
    upper-left and the off-diagonal blocks being equal.  The identity is
    re-verified on the assembled matrix.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError("blocks must be square and equally sized")
    out = field(exact).zeros((2 * n, 2 * n))
    out[:n, :n] = a
    out[:n, n:] = b
    out[n:, :n] = b
    out[n:, n:] = -a
    jb = standard_symplectic(n, exact=exact)
    if not negligible(maxabs(out @ jb + jb @ out), 1e-12, max(1.0, float(maxabs(out)))):
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

    def member(self, epsilon: int, n2, jbar3: np.ndarray | None = None,
               exact: bool = False) -> np.ndarray:
        n = self.n
        d = 4 * n + 2
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if n2 == 0:
            raise ValueError("n2 must be nonzero")
        fld = field(exact)
        n2 = fld.scalar(n2)
        jb = standard_symplectic(n, exact=exact)
        out = fld.zeros((d, d))
        out[: 2 * n, : 2 * n] = epsilon * jb
        out[2 * n + 1 : 4 * n + 1, 2 * n + 1 : 4 * n + 1] = epsilon * jb
        out[2 * n, d - 1] = n2
        out[d - 1, 2 * n] = -(1 / n2)
        if jbar3 is not None:
            jbar3 = np.asarray(jbar3)
            if jbar3.shape != (2 * n, 2 * n):
                raise ValueError("jbar3 shape mismatch")
            defect = maxabs(jbar3 @ jb + jb @ jbar3)
            if not negligible(defect, 1e-10, max(1.0, float(maxabs(jbar3)))):
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


def signed_plane_member(n: int, signs, n2=1.0, exact: bool = False) -> np.ndarray:
    """Rotate plane i by signs[i] on both groups; central corner as usual.

    With all signs equal this is a family member.  Mixed signs (possible
    only for n >= 2) still give J^2 = -Id and a vanishing Nijenhuis
    tensor, but the structure is not conjugate to +-J0: the form
    h(u, v) = omega([Ju, v]) on span(e, f) picks up both signs, and its
    signature is preserved by conjugation.
    """
    signs = tuple(signs)
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be n entries of +-1")
    if n2 == 0:
        raise ValueError("n2 must be nonzero")
    d = 4 * n + 2
    m = 2 * n + 1
    fld = field(exact)
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
    params = AutParams(Fbar1=fb1, u1=fzeros(2 * n), v1=fzeros(2 * n),
                       f1=Fraction(1), F3=fzeros((2 * n + 1, 2 * n + 1)))
    return assemble(params, g)


# ---------------------------------------------------------------------------
# normalization


def match_family(j: np.ndarray, n: int, tol: float = 1e-10) -> FamilyParams | None:
    """Extract (epsilon, n2, jbar3) if J matches the family template, else None.

    Exact inputs are matched with exact zero tests; float inputs at
    ``tol`` relative to max |J|.
    """
    j = np.asarray(j)
    d = 4 * n + 2
    m = 2 * n + 1
    if j.shape != (d, d):
        raise ValueError("matrix dimension mismatch")
    fld = field_of(j)
    jb = standard_symplectic(n, exact=fld.exact)
    scale = max(1.0, float(maxabs(j)))

    def iszero(block):
        return negligible(maxabs(block), tol, scale)

    eps_entry = j[n, 0]
    if negligible(eps_entry - 1, tol, scale):
        epsilon = 1
    elif negligible(eps_entry + 1, tol, scale):
        epsilon = -1
    else:
        return None
    n2 = j[2 * n, d - 1]
    if negligible(n2, tol, scale):
        return None
    checks = [
        j[: 2 * n, : 2 * n] - epsilon * jb,
        j[m : m + 2 * n, m : m + 2 * n] - epsilon * jb,
        j[: 2 * n, 2 * n],                       # J z* has no (e, f) part
        j[2 * n, : 2 * n],                       # J(e, f) has no z* part
        _strip_corner(j[:m, m:]),                # upper-right is corner only
        j[d - 1, : 2 * n],                       # z-row over (e, f)
        j[m : m + 2 * n, 2 * n],                 # J z* has no starred part
        np.asarray([j[d - 1, 2 * n] + fld.scalar(1) / n2]),
        j[m : m + 2 * n, d - 1],                 # J z has only the z* component
    ]
    for block in checks:
        if not iszero(block):
            return None
    jbar3 = j[m : m + 2 * n, : 2 * n]
    if not iszero(jbar3 @ jb + jb @ jbar3):
        return None
    return FamilyParams(epsilon=epsilon, n2=n2, jbar3=jbar3.copy())


def _strip_corner(block: np.ndarray) -> np.ndarray:
    """Upper-right (2n+1) x (2n+1) block minus its corner entry, flattened."""
    b = block.copy()
    b[-1, -1] = b[-1, -1] * 0
    return b.ravel()


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

    @property
    def exact(self) -> bool:
        return _exact.is_exact(self.matrix)


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
    aut = assemble(
        AutParams(
            Fbar1=fld.eye(2 * n),
            u1=fld.zeros(2 * n),
            v1=fld.zeros(2 * n),
            f1=params.epsilon * fld.scalar(params.n2),
            F3=f3,
        ),
        g,
    )
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
    # unknown graph Phi (m x 2n): Phi Bmap - M4 Phi = C and b^T Phi = svec
    nv = m * 2 * n
    rows = []
    rhs = []
    for r in range(m):
        for cc in range(2 * n):
            row = np.zeros(nv)
            row[r * 2 * n : (r + 1) * 2 * n] += bmap[:, cc]
            row[cc::2 * n] -= m4[r, :]
            rows.append(row)
            rhs.append(c[r, cc])
    for cc in range(2 * n):
        row = np.zeros(nv)
        row[cc::2 * n] = b
        rows.append(row)
        rhs.append(svec[cc])
    mat = np.array(rows)
    vec = np.array(rhs)
    sol, _, _, _ = np.linalg.lstsq(mat, vec, rcond=None)
    resid = np.abs(mat @ sol - vec).max()
    if resid > 1e-7 * max(1.0, np.abs(vec).max()):
        raise NotInFamily(f"invariant-complement system is inconsistent ({resid:.2e})")
    phi = sol.reshape(m, 2 * n)
    v = np.zeros((d, 2 * n))
    v[: 2 * n, :] = np.eye(2 * n)
    v[m:, :] = phi
    return v


def _unit_vectors(jm: np.ndarray, v: np.ndarray, g: LieAlgebra):
    """Complex Gram-Schmidt on V against h(u, w) = om(Ju, w) + i om(u, w).

    om is the z-coefficient of the bracket.  Definiteness of h is exactly
    membership in the orbit of J0; an indefinite h aborts with NotInFamily.
    """
    n = g.n
    d = g.dim
    if n == 1:
        cands = [v[:, 0], v[:, 1], v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]]
        cands = [c / np.linalg.norm(c) for c in cands]
        u1 = max(cands, key=lambda c: np.abs(g.bracket(c, jm @ c)).max())
        zn = np.linalg.norm(g.bracket(u1, jm @ u1))
        if zn < 1e-14:
            raise NotInFamily("[u, Ju] vanishes on the whole complement")
        return [u1 / np.sqrt(zn)]

    zidx = d - 1

    def oml(x, y):
        return g.bracket(x, y)[zidx]

    cols = [v[:, k] for k in range(2 * n)]
    hre = np.array([[oml(jm @ x, y) for y in cols] for x in cols])
    hre = 0.5 * (hre + hre.T)
    eigs = np.linalg.eigvalsh(hre)
    if eigs.min() <= 0 <= eigs.max():
        raise NotInFamily(
            "h-form on the invariant complement is indefinite; "
            "the structure is not conjugate to the reference one"
        )

    def h(x, y):
        return oml(jm @ x, y) + 1j * oml(x, y)

    units = []
    for cand in cols:
        u = cand.copy()
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


def _normalize_adapted_once(jm: np.ndarray, g: LieAlgebra, tol: float):
    n = g.n
    d = g.dim
    m = 2 * n + 1
    v = _invariant_complement(jm, g, tol)
    coef, _, _, _ = np.linalg.lstsq(v, jm @ v, rcond=None)
    inv_defect = np.abs(v @ coef - jm @ v).max()
    if inv_defect > 1e-7 * max(1.0, np.abs(v).max()):
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
    if colns.min() < 1e-13 * max(1.0, colns.max()):
        raise NotInFamily("assembled basis degenerates")
    sv = np.linalg.svd(fm / colns, compute_uv=False)
    if sv[-1] < 1e-9 * sv[0]:
        raise NotInFamily("assembled basis degenerates")
    j0 = standard_complex_structure(n)
    resid = float(np.abs(np.linalg.solve(fm, jm @ fm) - j0).max())
    return fm, resid


def _normalize_adapted(jm: np.ndarray, g: LieAlgebra, tol: float) -> NormalizedComplexStructure:
    jm = to_float(jm)
    fm, resid = _normalize_adapted_once(jm, g, tol)
    target = tol * max(1.0, np.abs(jm).max())
    j0 = standard_complex_structure(g.n)
    for _ in range(3):
        if resid <= target:
            break
        # the residual conjugate sits near J0, where the construction is
        # well conditioned; compose and keep the better of the two
        jc = np.linalg.solve(fm, jm @ fm)
        try:
            f2, _ = _normalize_adapted_once(jc, g, tol)
        except NotInFamily:
            break
        cand = fm @ f2
        rc = float(np.abs(np.linalg.solve(cand, jm @ cand) - j0).max())
        if rc < resid:
            fm, resid = cand, rc
        else:
            break
    return NormalizedComplexStructure(matrix=fm, epsilon=1, residual=resid, route="adapted")


def normalize_complex_structure(j: np.ndarray, g: LieAlgebra,
                                tol: float = 1e-9) -> NormalizedComplexStructure:
    """Conjugate an integrable J to epsilon * J0 by an automorphism.

    Family members are recognized by template match and normalized in
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
    params = match_family(j, g.n, tol=1e-10)
    if params is not None:
        return _normalize_template(j, g, params)
    result = _normalize_adapted(j, g, tol)
    scale = max(1.0, float(maxabs(j)))
    if float(result.residual) > tol * scale:
        raise NotInFamily(f"normalization residual {float(result.residual):.2e} at scale {scale:.1e}")
    if not is_automorphism(result.matrix, g, tol=1e-8):
        raise NotInFamily("assembled change of basis fails bracket preservation")
    return result


# ---------------------------------------------------------------------------
# Hermitian compatibility


def hermitian_defect(j: np.ndarray, s: np.ndarray):
    """max |J^T S J - S|; zero iff the metric is J-invariant.  Exact, over
    :class:`SparseQ`, when J and S are both exact."""
    return congruence_defect(np.asarray(j), np.asarray(s), np.asarray(s))


def is_hermitian(j: np.ndarray, s: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff S(J., J.) = S(., .) within tol (exact zero for object arrays)."""
    return negligible(hermitian_defect(j, s), tol, max(1.0, float(maxabs(s))))


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
    dimension: int

    @property
    def expected_dimension(self) -> int:
        return self.n * self.n + self.n - 1


def _template_direction_vars(n: int) -> list[set]:
    """Free directions of the canonical template diag(D(sigma), 1, S4bar, omega4).

    sigma_n and the z* entry are pinned by the normalization, so the
    direction space is sigma_1..sigma_{n-1}, the upper entries of S4bar
    except the n prescribed zeros, and omega4.  Each direction is the set
    of (row, col) positions of its unit entries.
    """
    d = 4 * n + 2
    m = 2 * n + 1
    dirs = [{(i, i), (n + i, n + i)} for i in range(n - 1)]
    dirs += [{(m + r, m + c), (m + c, m + r)}
             for r in range(2 * n) for c in range(r, 2 * n) if c != r + n]
    dirs.append({(d - 1, d - 1)})
    return dirs


def hermitian_metric_space(n: int) -> HermitianMetricSpace:
    """Exact solve of J0^T S J0 = S over the canonical metric template.

    J0 is a signed permutation, J0 b_c = sgn_c b_img(c), so
    (J0^T E J0)[p, q] = sgn_p sgn_q E[img(p), img(q)]: the equations of
    every unit direction E are written down entry by entry, with no
    matrix product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 4 * n + 2
    img, sgn = _j0_permutation(n)
    pre = {r: c for c, r in enumerate(img)}
    dirs = _template_direction_vars(n)
    eqs: dict = {}
    for k, entries in enumerate(dirs):
        for (r, c) in entries:
            p, q = pre[r], pre[c]
            for (a, b, v) in ((p, q, Fraction(sgn[p] * sgn[q])), (r, c, Fraction(-1))):
                if a <= b:
                    row = eqs.setdefault((a, b), {})
                    row[k] = row.get(k, 0) + v
    rows = [{k: v for k, v in row.items() if v} for _, row in sorted(eqs.items())]
    rows = [row for row in rows if row]
    basis = nullspace_sparse(rows, len(dirs))
    directions = []
    for vec in basis:
        mat = fzeros((d, d))
        for k, coef in enumerate(vec):
            if coef != 0:
                for (r, c) in dirs[k]:
                    mat[r, c] = coef
        directions.append(mat)
    particular = feye(d)
    assert hermitian_defect(standard_complex_structure(n, exact=True), particular) == 0
    return HermitianMetricSpace(n=n, particular=particular,
                                directions=directions, dimension=len(directions))


def matches_hermitian_family(s: np.ndarray, n: int, tol: float = 1e-10) -> bool:
    """Template metric lies in the J0-invariant family iff omega4 = 1 and
    the starred block commutes with the plane rotation."""
    s = np.asarray(s)
    d = 4 * n + 2
    m = 2 * n + 1
    jb = standard_symplectic(n, exact=_exact.is_exact(s))
    s4 = s[m : m + 2 * n, m : m + 2 * n]
    comm = maxabs(s4 @ jb - jb @ s4)
    scale = max(1.0, float(maxabs(s)))
    return negligible(comm, tol, scale) and negligible(s[d - 1, d - 1] - 1, tol, scale)


def is_abelian_complex_structure(j: np.ndarray, g: LieAlgebra,
                                 tol: float = 1e-10) -> tuple[bool, tuple | None]:
    """Check [Jx, Jy] = [x, y] on basis pairs; returns (verdict, witness).

    The witness is the first violating pair as basis names.  J0 fails with
    witness (z*, e_1): J0 sends that pair to (-z, f_1), which brackets to
    zero, while [z*, e_1] = f*_1.
    """
    j = np.asarray(j)
    exact = _exact.is_exact(j)
    scale = max(1.0, float(maxabs(j)) ** 2)
    d = g.dim
    for a in range(d):
        for b in range(a + 1, d):
            lhs = g.bracket_basis(a, b, exact=exact)
            rhs = g.bracket(j[:, a], j[:, b])
            if not negligible(maxabs(lhs - rhs), tol, scale):
                return False, (g.basis_names[a], g.basis_names[b])
    return True, None
