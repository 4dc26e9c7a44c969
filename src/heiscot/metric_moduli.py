"""Canonical forms of positive-definite inner products on T*h(2n+1).

The automorphism action S -> F^T S F is reduced in four steps:

1. F3 = -S4^{-1} S2^T F1 kills the off-diagonal block S2 (a Schur
   complement on the noncentral block).
2. The center-pairing vectors t1 = <z*, (e, f)> and, for n = 1 only,
   t4 = <z, (e*, f*)> are eliminated.  For n = 1 the (u1, v1) system is
   genuinely coupled (each elimination re-introduces the other vector), and
   it is solved in closed form: the dual block is the cofactor matrix
   F4 = det(F1) F1^{-T}, so S4^{-1} moves by congruence with F1 just as S1
   does, up to det(F1)^2.  Killing t1 and t4 together says that the last
   column l = (v1, 1) of F1 is an eigenvector of the pencil
   (S4^{-1}, S1); then u1 = -c[:2] / c[2] with c = S1 l.  Of the (up to
   three) eigenvectors, which differ by the center slot flips, the one with
   the smallest (u1, v1) is taken.  For n >= 2 only v1 exists, killing t1;
   nothing in the group can touch t4, which is why the diagonal template
   below is unreachable for generic metrics when n >= 2.
3. Symplectic (Williamson) diagonalization of the (e, f) block, followed by
   the conformal scale that pins sigma_n = 1 and the z*-scale f1 that pins
   omega1 = 1.
4. Plane rotations zero the entries (S4bar)_{i, n+i}; the rotation angle in
   plane i is fixed up to quarter turns, and the representative with
   (S4bar)_{ii} >= (S4bar)_{n+i, n+i} is chosen to make the output
   deterministic.

The canonical template is diag(D(sigma), 1, S4bar, omega4) with
sigma_1 >= ... >= sigma_n = 1 and n prescribed zeros in S4bar; it carries
n(2n+1) free parameters.  reduce_to_canonical reaches it exactly (to float
tolerance) for n = 1 and raises ToleranceFailure for generic metrics when
n >= 2 with the surviving t4 reported; reduce_with_diagnostics returns the
partially reduced data in every case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import eigh, schur

from ._exact import fmat, maxabs, negligible, signed_permutation, to_float
from .lie_core import LieAlgebra, standard_symplectic
from .automorphism import (
    Automorphism,
    assemble,
    is_automorphism,
    symplectic_rotation,
)
from .complex_structures import sign_reversing_automorphism

__all__ = [
    "NonPositiveDefinite",
    "ToleranceFailure",
    "CanonicalMetric",
    "ReductionResult",
    "EquivalenceResult",
    "act",
    "williamson",
    "reduce_to_canonical",
    "reduce_with_diagnostics",
    "free_parameter_count",
    "are_equivalent",
    "random_positive_definite",
    "split_blocks",
]


class NonPositiveDefinite(ValueError):
    """Raised when a positive-definite matrix was required."""


class ToleranceFailure(RuntimeError):
    """Raised when a residual exceeds its tolerance; carries diagnostics."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


def act(f, s: np.ndarray) -> np.ndarray:
    """Pullback action on inner products: S -> F^T S F."""
    m = f.matrix if isinstance(f, Automorphism) else np.asarray(f)
    return m.T @ s @ m


def _sym(s: np.ndarray) -> np.ndarray:
    # pullbacks of symmetric input are symmetric; drop the float roundoff
    return 0.5 * (s + s.T)


def split_blocks(s: np.ndarray, n: int):
    """(S1bar, t1, omega1, S4bar, t4, omega4, S2) for the (e,f | z* | e*,f* | z) blocks."""
    m = 2 * n + 1
    s1 = s[:m, :m]
    s2 = s[:m, m:]
    s4 = s[m:, m:]
    return (
        s1[: 2 * n, : 2 * n],
        s1[: 2 * n, 2 * n],
        s1[2 * n, 2 * n],
        s4[: 2 * n, : 2 * n],
        s4[: 2 * n, 2 * n],
        s4[2 * n, 2 * n],
        s2,
    )


@dataclass(frozen=True)
class CanonicalMetric:
    """Template data diag(D(sigma), 1, S4bar, omega4).

    sigma : tuple of n floats, descending, sigma[-1] = 1.
    S4bar : (2n, 2n) symmetric positive-definite with (S4bar)_{i, n+i} = 0.
    omega4 : positive float.
    """

    sigma: tuple
    S4bar: np.ndarray
    omega4: float

    def __post_init__(self):
        n = len(self.sigma)
        s4 = np.asarray(self.S4bar, dtype=float)
        if s4.shape != (2 * n, 2 * n):
            raise ValueError("S4bar shape mismatch")
        if not np.isfinite([*np.asarray(self.sigma, dtype=float), *s4.flat, float(self.omega4)]).all():
            raise ValueError("sigma, S4bar and omega4 must be finite")
        if not negligible(maxabs(s4 - s4.T), 1e-9, s4):
            raise ValueError("S4bar must be symmetric")
        if any(self.sigma[i] < self.sigma[i + 1] - 1e-9 for i in range(n - 1)):
            raise ValueError("sigma must be sorted descending")
        if not negligible(self.sigma[-1] - 1.0, 1e-6):
            raise ValueError("sigma_n must equal 1")
        if self.omega4 <= 0:
            raise ValueError("omega4 must be positive")

    @property
    def n(self) -> int:
        return len(self.sigma)

    def matrix(self) -> np.ndarray:
        n = self.n
        d = 4 * n + 2
        out = np.zeros((d, d))
        for i in range(n):
            out[i, i] = self.sigma[i]
            out[n + i, n + i] = self.sigma[i]
        out[2 * n, 2 * n] = 1.0
        out[2 * n + 1 : 4 * n + 1, 2 * n + 1 : 4 * n + 1] = np.asarray(self.S4bar, dtype=float)
        out[4 * n + 1, 4 * n + 1] = self.omega4
        return out

    def template_zero_defect(self) -> float:
        n = self.n
        s4 = np.asarray(self.S4bar, dtype=float)
        return max(abs(s4[i, n + i]) for i in range(n))


@dataclass(frozen=True)
class ReductionResult:
    canonical: CanonicalMetric
    automorphism: Automorphism
    reduced: np.ndarray
    residual: float
    t4: np.ndarray

    @property
    def sigma(self) -> tuple:
        return self.canonical.sigma


def free_parameter_count(n: int) -> int:
    """Free entries of the canonical template: (n-1) sigmas + (n(2n+1) - n) in S4bar + omega4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sigmas = n - 1
    s4bar = n * (2 * n + 1) - n
    return sigmas + s4bar + 1


def williamson(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic diagonalization of a positive-definite 2n x 2n matrix.

    Returns (Fbar, sigma) with Fbar^T J Fbar = J and
    Fbar^T M Fbar = diag(sigma_1..sigma_n, sigma_1..sigma_n), sigma
    descending.  The sigma_i are the moduli of the (purely imaginary)
    eigenvalues of J M.  Built from M^{-1/2} and a real Schur form of
    M^{-1/2} J M^{-1/2}; both certificate identities are checked before
    returning.

    Raises
    ------
    NonPositiveDefinite
        If M is not symmetric positive definite.
    ToleranceFailure
        If the certificate residual exceeds 1e-8 (conditioning guard).
    """
    m = np.asarray(m, dtype=float)
    two_n = m.shape[0]
    if m.shape != (two_n, two_n) or two_n % 2:
        raise ValueError("expected a square matrix of even size")
    n = two_n // 2
    if not np.isfinite(m).all():
        raise NonPositiveDefinite("matrix has non-finite entries")
    if not negligible(maxabs(m - m.T), 1e-12, m):
        raise NonPositiveDefinite("matrix is not symmetric")
    w, v = np.linalg.eigh(m)
    if w.min() <= 0:
        raise NonPositiveDefinite(f"matrix is not positive definite (min eig {w.min():.3e})")
    j = standard_symplectic(n)
    mi2 = v @ np.diag(w ** -0.5) @ v.T
    k = mi2 @ j @ mi2
    t, q = schur(k, output="real")
    pairs = []
    for i in range(0, two_n, 2):
        b = t[i, i + 1]
        pairs.append((1.0 / abs(b), i, b > 0))
    order = np.argsort([-p[0] for p in pairs])
    o = np.zeros((two_n, two_n))
    sigma = np.zeros(n)
    for newk, oidx in enumerate(order):
        s, i, b_positive = pairs[oidx]
        sigma[newk] = s
        # orientation: want K(col_e, col_f) = -1/sigma in the (e, f) slot pair
        if b_positive:
            o[:, newk] = q[:, i + 1]
            o[:, n + newk] = q[:, i]
        else:
            o[:, newk] = q[:, i]
            o[:, n + newk] = q[:, i + 1]
    fbar = mi2 @ o @ np.diag(np.concatenate([np.sqrt(sigma), np.sqrt(sigma)]))
    cert1 = maxabs(fbar.T @ j @ fbar - j)
    cert2 = maxabs(fbar.T @ m @ fbar - np.diag(np.concatenate([sigma, sigma])))
    if not (negligible(cert1, 1e-8, m, sigma) and negligible(cert2, 1e-8, m, sigma)):
        raise ToleranceFailure(
            f"williamson certificate failed: symplectic {cert1:.2e}, diagonal {cert2:.2e}"
        )
    return fbar, sigma


def _center_pairings(s: np.ndarray) -> list:
    """Every (u1, v1) that kills t1 and t4 of an n = 1 metric with S2 = 0, smallest first.

    The step F1 = [[E, v1], [u1^T, 1]] has dual block F4 = det(F1) F1^{-T},
    so it moves S1 to F1^T S1 F1 and S4^{-1} to det(F1)^{-2} F1^T S4^{-1} F1.
    Both t1 and t4 vanish iff the first two columns of F1 are orthogonal to
    S1 l and to S4^{-1} l, l = (v1, 1) the last column: l is an eigenvector
    of the pencil (S4^{-1}, S1), and then u1 = -c[:2] / c[2] with c = S1 l.
    The eigenvectors l_k are S1-orthonormal, so sum_k l_k c_k^T = E and
    some l_k has l_z c_z != 0.  The (up to three) eigenvectors with
    l_z, c_z != 0 give reduced forms that differ by the center slot flips.
    """
    s1 = s[:3, :3]
    _, ells = eigh(np.linalg.inv(s[3:, 3:]), s1)
    out = []
    for ell in ells.T:
        c = s1 @ ell
        if ell[2] != 0 and c[2] != 0:
            out.append((-c[:2] / c[2], ell[:2] / ell[2]))
    return sorted(out, key=lambda uv: max(np.abs(uv[0]).max(), np.abs(uv[1]).max()))


def _center_pairing(s: np.ndarray, g: LieAlgebra) -> Automorphism:
    """Step 2 on a metric with S2 = 0: kill t1, and t4 too when n = 1."""
    n = g.n
    if n == 1:
        u1, v1 = _center_pairings(s)[0]
        return assemble(g, u1=u1, v1=v1)
    s1b, t1, _, _, _, _, _ = split_blocks(s, n)
    return assemble(g, v1=-np.linalg.solve(s1b, t1))


def reduce_with_diagnostics(s: np.ndarray, g: LieAlgebra) -> ReductionResult:
    """Run the four-step reduction and return whatever it achieves.

    The residual measures the distance of F^T S F from the reconstructed
    template including the center-pairing entries t4, which survive for
    n >= 2; t4 is returned separately so callers can distinguish the
    removable part of the residual (should be ~1e-12) from the structural
    one.
    """
    n = g.n
    d = 4 * n + 2
    m = 2 * n + 1
    s = np.asarray(s, dtype=float)
    if s.shape != (d, d):
        raise ValueError("metric dimension mismatch")
    if not np.isfinite(s).all():
        raise NonPositiveDefinite("metric has non-finite entries")
    if not negligible(maxabs(s - s.T), 1e-9, s):
        raise NonPositiveDefinite("metric is not symmetric")
    s = 0.5 * (s + s.T)   # drop pullback roundoff asymmetry
    if np.linalg.eigvalsh(s).min() <= 0:
        raise NonPositiveDefinite("metric is not positive definite")

    f_total = Automorphism(np.eye(d))
    cur = s.copy()

    # step 1: Schur-complement kill of S2
    s2 = cur[:m, m:]
    s4 = cur[m:, m:]
    f3 = -np.linalg.solve(s4, s2.T)
    step = assemble(g, F3=f3)
    f_total = f_total @ step
    cur = _sym(act(step, cur))

    # step 2: center-pairing elimination
    step = _center_pairing(cur, g)
    f_total = f_total @ step
    cur = _sym(act(step, cur))

    # step 3: Williamson + conformal scale (sigma_n -> 1) + z*-scale (omega1 -> 1)
    s1b, _, om1, _, _, _, _ = split_blocks(cur, n)
    fbar, sigma = williamson(s1b)
    fbar = fbar / np.sqrt(sigma[-1])
    f1 = 1.0 / np.sqrt(om1)
    step = assemble(g, Fbar1=fbar, f1=f1)
    f_total = f_total @ step
    cur = _sym(act(step, cur))

    # step 4: plane rotations; zero (S4bar)_{i,n+i} and order each plane's diagonal
    _, _, _, s4b, _, _, _ = split_blocks(cur, n)
    angles = np.zeros(n)
    for i in range(n):
        a, b, c = s4b[i, i], s4b[i, n + i], s4b[n + i, n + i]
        phi = 0.5 * np.arctan2(-2.0 * b, a - c)
        # the quarter-turn partner also zeroes b; pick the one with a' >= c'
        cos2, sin2 = np.cos(2 * phi), np.sin(2 * phi)
        a_new = (a + c) / 2 + ((a - c) / 2) * cos2 - b * sin2
        c_new = (a + c) - a_new
        angles[i] = phi if a_new >= c_new else phi + np.pi / 2
    step = symplectic_rotation(angles, g)
    f_total = f_total @ step
    cur = _sym(act(step, cur))

    s1b, t1, om1, s4b, t4, om4, s2 = split_blocks(cur, n)
    sigma_final = np.diag(s1b)[:n].copy()
    sigma_final[-1] = 1.0
    s4b_clean = 0.5 * (s4b + s4b.T)
    for i in range(n):
        s4b_clean[i, n + i] = 0.0
        s4b_clean[n + i, i] = 0.0
    canonical = CanonicalMetric(
        sigma=tuple(np.maximum.accumulate(sigma_final[::-1])[::-1]),
        S4bar=s4b_clean,
        omega4=float(om4),
    )
    residual = float(np.abs(cur - canonical.matrix()).max())
    return ReductionResult(
        canonical=canonical,
        automorphism=f_total,
        reduced=cur,
        residual=residual,
        t4=t4.copy(),
    )


def reduce_to_canonical(s: np.ndarray, g: LieAlgebra) -> tuple[CanonicalMetric, Automorphism]:
    """Full reduction to the diagonal template.

    Raises
    ------
    NonPositiveDefinite
        If s is not symmetric positive definite.
    ToleranceFailure
        If the residual against the reconstructed template exceeds 1e-6.
        For n >= 2 this is the generic outcome: the center-pairing vector
        t4 is invariant under the whole group and the template has no slot
        for it.  The exception carries the
        partial ReductionResult.
    """
    result = reduce_with_diagnostics(s, g)
    if not negligible(result.residual, 1e-6):
        raise ToleranceFailure(
            f"residual {result.residual:.3e} exceeds 1.0e-06; "
            f"center-pairing |t4| = {np.abs(result.t4).max():.3e} "
            "cannot be removed by the automorphism group for n >= 2",
            result=result,
        )
    if not is_automorphism(result.automorphism.matrix, g, tol=1e-12):
        raise ToleranceFailure("reducing map failed the automorphism check", result=result)
    return result.canonical, result.automorphism


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str                 # "equivalent" | "distinct" | "inconclusive"
    witness: Automorphism | None
    detail: dict

    def __bool__(self):
        return self.verdict == "equivalent"


def _signed_matrix(perm, sign) -> np.ndarray:
    """The signed permutation matrix with column j equal to sign[j] e_{perm[j]}."""
    out = np.zeros((len(perm), len(perm)))
    out[perm, np.arange(len(perm))] = sign
    return out


def _generators(g: LieAlgebra) -> list:
    """Integer generators of the residual finite group, each an exactly certified automorphism.

    In order:

    * the quarter turn of each plane i, e_i -> -f_i, f_i -> e_i with the
      same turn on (e*_i, f*_i): :func:`symplectic_rotation` at angle pi/2
      in that plane only;
    * the reflection Fbar1 = diag(E, -E), antisymplectic (conformal factor
      -1), which flips every f_i, e*_i and z:
      :func:`sign_reversing_automorphism`;
    * for n = 1 only, the center slot flips phi_e: e <-> z*, e* <-> -z,
      f* -> -f*, and phi_f with the roles of e and f.  They preserve the
      bracket table because z* pairs with a single plane; any second plane
      obstructs them.  On a reduced diagonal metric they swap the (e*, e*)
      resp. (f*, f*) entry with the (z, z) entry, so together with the
      quarter turns they realize the full permutation group of the three
      dual diagonal values.

    Each matrix is rounded to ints (within 1e-12) and passes the exact
    bracket test, so every product of generators is an exact automorphism.
    """
    n = g.n
    mats = [symplectic_rotation(np.where(np.arange(n) == i, np.pi / 2, 0.0), g).matrix
            for i in range(n)]
    mats.append(sign_reversing_automorphism(n, g).matrix)
    if n == 1:
        mats += [_signed_matrix(perm, (1, 1, 1, -1, -1, -1))
                 for perm in ((2, 1, 0, 5, 4, 3), (0, 2, 1, 3, 5, 4))]
    out = []
    for m in mats:
        m = to_float(m)
        x = np.rint(m).astype(int)
        if not negligible(maxabs(m - x), 1e-12) or not is_automorphism(fmat(x), g):
            raise ValueError("residual group generator is not an integer automorphism")
        out.append(x)
    return out


def _compose(a: tuple, b: tuple) -> tuple:
    """(perm, sign) of the product A @ B of signed permutations; a and b may be stacks."""
    (pa, sa), (pb, sb) = a, b
    return pa[..., pb], sb * sa[..., pb]


@cache
def _residual_group(g: LieAlgebra) -> tuple:
    """The residual finite group as signed permutations, in search order; built once per algebra.

    Every element maps each basis vector to plus or minus another, so it is
    stored as row k of (perms, signs), element[:, j] = signs[k, j]
    e_{perms[k, j]}.  Element k is rot(ks) (@ reflection) (@ center slot
    flip) of the :func:`_generators`, with rot(ks) the product of the k_i-th
    powers of the quarter turns: ks runs over product(range(4), repeat=n),
    then the reflection is off or on, then the flip is none, phi_e or phi_f
    (n = 1 only).  The products are index operations on the generators'
    (perm, sign).  The arrays are read-only, because the table is shared.

    For n >= 2 the table is the group.  At n = 1 its 24 rows are not closed
    under composition: they cover the 6 permutations, and the products of
    the generators make 48 signed permutations.  The missing sign patterns
    move only off-diagonal entries, and a reduction that reached the n = 1
    template is diagonal, so they matter only when a reduction missed it;
    then a miss of the search gives "inconclusive" in :func:`are_equivalent`,
    never a wrong "distinct".
    """
    n = g.n
    gens = [signed_permutation(x) for x in _generators(g)]
    ident = (np.arange(g.dim), np.ones(g.dim, dtype=int))
    layers = []
    for turn in gens[:n]:
        layers.append([ident])
        for _ in range(3):
            layers[-1].append(_compose(layers[-1][-1], turn))
    layers += [[ident, gens[n]], [ident, *gens[n + 1:]]]
    perms, signs = ident[0][None], ident[1][None]
    for layer in layers:
        lp, ls = (np.array(x) for x in zip(*layer))
        perms, signs = (x.reshape(-1, g.dim) for x in _compose((perms, signs), (lp, ls)))
    perms.flags.writeable = False
    signs.flags.writeable = False
    return perms, signs


def _residual_group_matches(r1: ReductionResult, r2: ReductionResult, g: LieAlgebra,
                            tol: float):
    """Search the residual finite group for an alignment of the reduced data.

    The stabilizer of the reduced form contains per-plane quarter turns and
    the antisymplectic reflection diag(E, -E) (conformal factor -1); both
    preserve the template constraints while permuting plane diagonals and
    flipping signs in S4bar and t4.  For n = 1 the two center slot flips
    extend this to all six arrangements of (S4bar diagonal, omega4).

    All these elements are signed permutations, tabulated once per algebra
    by :func:`_residual_group`, so a candidate W moves R to
    W^T R W = R[perm][:, perm] * outer(sign, sign), and it matches when
    every entry is within the bound of the other reduced form.  Three
    vectorized tests on parts of that comparison run in turn, each on the
    candidates that passed the one before:

    1. the diagonal, R[perm, perm] (the signs square to one);
    2. the dual block, rows and columns 2n+1..4n+1, which holds S4bar, t4
       and omega4 (the noncentral block is the same template
       diag(D(sigma), 1) in both forms once the sigmas match, so it rules
       out almost nothing);
    3. the whole congruence.

    The first two compare a subset of the entries of the third, with the
    same products and the same bound, so they only drop candidates that
    would fail it, and the candidates keep their table order.  The first
    match is therefore the first element of the table that matches, and it
    is returned as its signed permutation matrix W.  The signs multiply
    in place (by +-1, so exactly), and each stage holds one temporary of
    its moved entries.  The largest is usually the dual-block stage over
    the candidates with a matching diagonal, at most the whole table:
    512 * 81 floats at n = 4 and 2048 * 121 floats (about 2 MB) at n = 5.
    The whole congruence takes d^2 floats per survivor, as many as the
    table only for data that the whole group fixes on its diagonal and
    dual block (about 8 MB at n = 5).
    """
    perms, signs = _residual_group(g)
    a, b = r1.reduced, r2.reduced
    bound = tol * max(1.0, np.abs(b).max())
    keep = np.flatnonzero(np.abs(a[perms, perms] - np.diag(b)).max(axis=1) <= bound)
    # the dual block, then the whole congruence, on the survivors so far
    for rows in (slice(2 * g.n + 1, None), slice(None)):
        p, s = perms[keep, rows], signs[keep, rows]
        moved = a[p[:, :, None], p[:, None, :]]
        moved *= s[:, :, None]
        moved *= s[:, None, :]
        moved -= b[rows, rows]
        keep = keep[np.abs(moved, out=moved).max(axis=(1, 2)) <= bound]
    if keep.size:
        return Automorphism(_signed_matrix(perms[keep[0]], signs[keep[0]]))
    return None


# relative tolerance of are_equivalent's sigma comparison and data alignment
_EQUIV_TOL = 1e-6


def are_equivalent(s1: np.ndarray, s2: np.ndarray, g: LieAlgebra) -> EquivalenceResult:
    """Decide whether two positive-definite metrics lie on the same orbit.

    The sigma multiset is a complete scale-normalized invariant of the
    quotient action on the (e, f) block, so differing sigmas give a firm
    "distinct".  Matching sigmas with matching reduced data (up to the
    residual finite group of quarter turns, the reflection, and for n = 1
    the center slot flips) give "equivalent" with an explicit witness
    W satisfying act(W, s1) = s2.  Matching sigmas with differing data are
    "distinct" for n = 1 when both reductions reached the template (residual
    at most 1e-9 times the metric's scale), which is complete up to that
    group, and "inconclusive" otherwise: a reduction off the template proves
    nothing, for repeated sigmas a wider stabilizer can identify different
    templates, and for n >= 2 completeness of the partially reduced data is
    not established.
    """
    n = g.n
    r1 = reduce_with_diagnostics(s1, g)
    r2 = reduce_with_diagnostics(s2, g)
    sig1 = np.array(r1.sigma)
    sig2 = np.array(r2.sigma)
    detail = {"sigma1": r1.sigma, "sigma2": r2.sigma}
    if not negligible(maxabs(sig1 - sig2), _EQUIV_TOL, sig1, sig2):
        return EquivalenceResult("distinct", None, detail)
    gaps = np.abs(np.diff(sig1))
    repeated = bool(n > 1 and gaps.size and negligible(gaps.min(), 1e-9, sig1))
    detail["repeated_sigma"] = repeated
    rot = _residual_group_matches(r1, r2, g, _EQUIV_TOL)
    if rot is not None:
        w_mat = r1.automorphism.matrix @ rot.matrix @ np.linalg.inv(r2.automorphism.matrix)
        witness = Automorphism(w_mat)
        if is_automorphism(w_mat, g, tol=1e-9) and \
                negligible(maxabs(act(witness, s1) - s2), 10 * _EQUIV_TOL, s2):
            return EquivalenceResult("equivalent", witness, detail)
    reached = all(negligible(r.residual, 1e-9, s) for r, s in ((r1, s1), (r2, s2)))
    if repeated or n >= 2 or not reached:
        return EquivalenceResult("inconclusive", None, detail)
    return EquivalenceResult("distinct", None, detail)


def random_positive_definite(g: LieAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random SPD metric: A A^T + dim * E with N(0, 1) entries."""
    d = g.dim
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)
