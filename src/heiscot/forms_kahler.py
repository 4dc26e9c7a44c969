"""Closed J0-invariant 2-forms on T*h(2n+1) and the metrics they induce.

The Chevalley-Eilenberg differential of a left-invariant form is pure
structure-constant bookkeeping: d alpha(x, y) = -alpha([x, y]) on
1-forms, and the alternating three-term sum on 2-forms.  With the
bracket normalization used throughout this package ([e_i, f_i] = z,
[z*, e_i] = f*_i, [z*, f_i] = -e*_i) the 1-form table reads

    d e^i = d f^i = d zeta* = 0,
    d e^i_* = -f^i wedge zeta*,
    d f^i_* = +e^i wedge zeta*,
    d zeta  = -sum_i e^i wedge f^i.

A 2-form is J0-invariant when Omega(J0 x, J0 y) = Omega(x, y).  The
closed invariant forms are spanned by an explicit template
(:func:`build_omega`) with parameter blocks

    A1 (antisymmetric)  on e^i wedge e^j and f^i wedge f^j,
    A2 (symmetric)      on e^i wedge f^j,
    K  (antisymmetric)  coupling e^i wedge e^j_* and f^i wedge f^j_*,
    D  (symmetric)      coupling e^i wedge f^j_* and f^i wedge e^j_*,
    mu (scalar)         on -(1/2) sum (e^i wedge e^i_* + f^i wedge f^i_*)
                        + zeta* wedge zeta,

for a total of 2n^2 + 1 independent forms when n >= 2; the antisymmetric
part of the D-coupling fails closure, which is why D is symmetric.  For
n = 1 the space is five-dimensional: two extra closed invariant forms
c1 (e^1 wedge zeta* - f^1 wedge zeta) and c2 (f^1 wedge zeta* + e^1
wedge zeta) exist only there, where the wedge factors cannot meet a
second (e_j, f_j) plane.

Any nondegenerate member Omega turns J0 into a pseudo-Kahler structure
via S(x, y) = Omega(J0 x, y).  These metrics are Ricci-flat (both
summands of the nilpotent Ricci formula vanish separately) but never
flat for generic parameters; :func:`certify_pseudo_kahler` checks all of
this per instance in exact arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact
from ._exact import field, field_of, fmat, fzeros, maxabs, negligible, nullspace_sparse
from .curvature import (
    is_flat,
    levi_civita,
    ricci_from_riemann,
    ricci_nilpotent_summands,
    riemann,
    signature,
)
from .complex_structures import _j0_permutation, hermitian_defect, standard_complex_structure
from .lie_core import LieAlgebra, build_thn

__all__ = [
    "DegenerateOmega",
    "d_one_form",
    "d_two_form",
    "closure_defect",
    "is_closed",
    "invariance_defect",
    "j_invariant",
    "closed_invariant_space",
    "closed_invariant_dimension",
    "OmegaParams",
    "random_omega_params",
    "build_omega",
    "extract_omega_params",
    "matches_omega_template",
    "omega_parameter_count",
    "is_nondegenerate",
    "pseudo_kahler_metric",
    "certify_pseudo_kahler",
]


class DegenerateOmega(ValueError):
    """The 2-form is degenerate and induces no metric."""


def d_one_form(alpha: np.ndarray, g: LieAlgebra) -> np.ndarray:
    """Differential of a left-invariant 1-form: (d alpha)(x, y) = -alpha([x, y]).

    Returns the antisymmetric matrix of the 2-form; exact for object input.
    """
    alpha = np.asarray(alpha)
    if alpha.shape != (g.dim,):
        raise ValueError("covector dimension mismatch")
    fld = field_of(alpha)
    d = g.dim
    out = fld.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            acc = fld.scalar(0)
            for (k, v) in g.bracket_sparse(i, j):
                acc -= alpha[k] * fld.scalar(v)
            if acc != 0:
                out[i, j] = acc
                out[j, i] = -acc
    return out


def _d_two_form_triples(omega: np.ndarray, g: LieAlgebra) -> tuple[object, list]:
    """(field, [(a, b, c, (d Omega)(b_a, b_b, b_c)) for every triple a < b < c])."""
    omega = np.asarray(omega)
    d = g.dim
    if omega.shape != (d, d):
        raise ValueError("form dimension mismatch")
    fld = field_of(omega)
    out = []
    for a, b, c in itertools.combinations(range(d), 3):
        acc = fld.scalar(0)
        for (x, y, w, sgn) in ((a, b, c, -1), (a, c, b, 1), (b, c, a, -1)):
            for (k, v) in g.bracket_sparse(x, y):
                acc += sgn * fld.scalar(v) * omega[k, w]
        out.append((a, b, c, acc))
    return fld, out


def d_two_form(omega: np.ndarray, g: LieAlgebra) -> np.ndarray:
    """Differential of a 2-form as the rank-3 antisymmetric table

    (d Omega)(x, y, w) = -Omega([x,y], w) + Omega([x,w], y) - Omega([y,w], x).

    d of d_one_form is identically zero by the Jacobi identity.
    """
    fld, triples = _d_two_form_triples(omega, g)
    d = g.dim
    out = fld.zeros((d, d, d))
    for a, b, c, acc in triples:
        if acc == 0:
            continue
        out[a, b, c] = out[b, c, a] = out[c, a, b] = acc
        out[b, a, c] = out[a, c, b] = out[c, b, a] = -acc
    return out


def closure_defect(omega: np.ndarray, g: LieAlgebra):
    """max |d Omega| over basis triples; a Fraction for exact input, a float otherwise."""
    fld, triples = _d_two_form_triples(omega, g)
    return fld.scalar(max((abs(acc) for *_, acc in triples), default=Fraction(0)))


def is_closed(omega: np.ndarray, g: LieAlgebra, tol: float = 1e-10) -> bool:
    return negligible(closure_defect(omega, g), tol, max(1.0, float(np.abs(omega).max())))


def invariance_defect(omega: np.ndarray, j: np.ndarray):
    """max |J^T Omega J - Omega|; exact, over :class:`~heiscot._exact.SparseQ`,
    when both are exact."""
    return hermitian_defect(j, omega)


def j_invariant(omega: np.ndarray, j: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff Omega(Jx, Jy) = Omega(x, y) within tol (exact zero for object input)."""
    return negligible(invariance_defect(omega, j), tol,
                      max(1.0, float(np.abs(np.asarray(omega, dtype=float)).max())))


def closed_invariant_space(n: int) -> list[np.ndarray]:
    """Exact basis of {Omega antisymmetric : d Omega = 0, J0-invariant}.

    Solves the stacked homogeneous system over the upper-triangle entries
    with rational elimination; no tolerances are involved.  Dimensions:
    5, 9, 19, 33 for n = 1..4, i.e. 2n^2 + 1 for n >= 2 plus the two
    extra n = 1 forms.
    """
    g = build_thn(n)
    d = g.dim
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    vidx = {pq: k for k, pq in enumerate(pairs)}

    def omcoef(p, q):
        if p < q:
            return vidx[(p, q)], 1
        if p > q:
            return vidx[(q, p)], -1
        return None, 0

    rows = []
    for a, b, c in itertools.combinations(range(d), 3):
        row: dict[int, Fraction] = {}
        for (x, y, w, sgn) in ((a, b, c, -1), (a, c, b, 1), (b, c, a, -1)):
            for (k, v) in g.bracket_sparse(x, y):
                iv, s = omcoef(k, w)
                if s:
                    row[iv] = row.get(iv, Fraction(0)) + sgn * s * v
        row = {k: v for k, v in row.items() if v != 0}
        if row:
            rows.append(row)
    img, sgn = _j0_permutation(n)
    for p, q in pairs:
        row = {}
        iv, s = omcoef(img[p], img[q])
        if s:
            row[iv] = row.get(iv, Fraction(0)) + sgn[p] * sgn[q] * s
        iv, s = omcoef(p, q)
        if s:
            row[iv] = row.get(iv, Fraction(0)) - s
        row = {k: v for k, v in row.items() if v != 0}
        if row:
            rows.append(row)
    vecs = nullspace_sparse(rows, len(pairs))
    out = []
    for vec in vecs:
        m = fzeros((d, d))
        for (p, q), k in vidx.items():
            if vec[k] != 0:
                m[p, q] = vec[k]
                m[q, p] = -vec[k]
        out.append(m)
    return out


def closed_invariant_dimension(n: int) -> int:
    return len(closed_invariant_space(n))


def omega_parameter_count(n: int) -> int:
    """Free parameters of the template: 2n^2 + 1, plus 2 when n = 1."""
    return 2 * n * n + 1 + (2 if n == 1 else 0)


def _coerce_block(x, shape, fld):
    if x is None:
        return fld.zeros(shape)
    x = np.asarray(x)
    if x.shape != shape:
        raise ValueError(f"block shape {x.shape} != {shape}")
    return x


@dataclass(frozen=True)
class OmegaParams:
    """Parameters of a closed J0-invariant 2-form; see :func:`build_omega`.

    a1 : (n, n) antisymmetric, the e-e / f-f pair coefficients.
    a2 : (n, n) symmetric, the e-f coefficients.
    k : (n, n) antisymmetric cross coupling into the starred group.
    d : (n, n) symmetric cross coupling; a plain length-n vector is
        accepted and promoted to its diagonal matrix.
    mu : scalar weight of the pairing-shaped part.
    c1, c2 : the two extra coefficients, meaningful only for n = 1.
    """

    n: int
    a1: np.ndarray | None = None
    a2: np.ndarray | None = None
    k: np.ndarray | None = None
    d: np.ndarray | None = None
    mu: object = 0
    c1: object = 0
    c2: object = 0
    exact: bool = False

    def blocks(self):
        n = self.n
        fld = field(self.exact)
        a1 = _coerce_block(self.a1, (n, n), fld)
        a2 = _coerce_block(self.a2, (n, n), fld)
        k = _coerce_block(self.k, (n, n), fld)
        dm = self.d
        if dm is not None and np.asarray(dm).ndim == 1:
            vec = np.asarray(dm)
            dm = fld.zeros((n, n))
            for i in range(n):
                dm[i, i] = vec[i]
        dm = _coerce_block(dm, (n, n), fld)
        for name, b, sym in (("a1", a1, -1), ("a2", a2, 1), ("k", k, -1), ("d", dm, 1)):
            scale = max(1.0, float(np.abs(np.asarray(b, dtype=float)).max()))
            if not negligible(maxabs(b - sym * b.T), 1e-12, scale):
                kind = "antisymmetric" if sym < 0 else "symmetric"
                raise ValueError(f"{name} must be {kind}")
        if self.n > 1 and (self.c1 != 0 or self.c2 != 0):
            raise ValueError("c1, c2 exist only for n = 1")
        return a1, a2, k, dm


def random_omega_params(n: int, rng: np.random.Generator) -> OmegaParams:
    """Small random integer parameters, exact so that certificates are exact."""

    def mat(sym):
        raw = rng.integers(-4, 5, size=(n, n))
        return fmat(raw + sym * raw.T)

    mu = int(rng.integers(-4, 5)) or 1
    c1 = int(rng.integers(-3, 4)) if n == 1 else 0
    c2 = int(rng.integers(-3, 4)) if n == 1 else 0
    return OmegaParams(
        n=n,
        a1=mat(-1),
        a2=mat(1),
        k=mat(-1),
        d=mat(1),
        mu=Fraction(mu),
        c1=Fraction(c1),
        c2=Fraction(c2),
        exact=True,
    )


def build_omega(params: OmegaParams) -> np.ndarray:
    """Assemble the 2-form of the template and verify it on construction.

    The output is closed and J0-invariant; both are asserted (exactly in
    exact mode) before returning, so a successful call is a certificate.
    """
    n = params.n
    g = build_thn(n)
    d = g.dim
    fld = field(params.exact)
    a1, a2, k, dm = params.blocks()
    out = fld.zeros((d, d))
    e = list(range(n))
    f = list(range(n, 2 * n))
    zs = 2 * n
    es = list(range(2 * n + 1, 3 * n + 1))
    fs = list(range(3 * n + 1, 4 * n + 1))
    z = 4 * n + 1

    def w(a, b, v):
        out[a, b] += v
        out[b, a] -= v

    half = fld.scalar(1) / 2
    for i in range(n):
        for j in range(n):
            if i < j:
                w(e[i], e[j], a1[i, j])
                w(f[i], f[j], a1[i, j])
                w(e[i], es[j], k[i, j])
                w(e[j], es[i], -k[i, j])
                w(f[i], fs[j], k[i, j])
                w(f[j], fs[i], -k[i, j])
            if i <= j:
                w(e[i], f[j], a2[i, j])
                if i < j:
                    w(e[j], f[i], a2[i, j])
            w(e[i], fs[j], dm[i, j])
            w(f[i], es[j], -dm[i, j])
    for i in range(n):
        w(e[i], es[i], -params.mu * half)
        w(f[i], fs[i], -params.mu * half)
    w(zs, z, params.mu)
    if n == 1:
        w(e[0], zs, params.c1)
        w(f[0], z, -params.c1)
        w(f[0], zs, params.c2)
        w(e[0], z, params.c2)
    j0 = standard_complex_structure(n, exact=fld.exact)
    scale = max(1.0, float(np.abs(out).max()))
    assert negligible(closure_defect(out, g), 1e-10, scale)
    assert negligible(invariance_defect(out, j0), 1e-10, scale)
    return out


def extract_omega_params(omega: np.ndarray, n: int) -> OmegaParams:
    """Read the template coefficients back off a 2-form matrix.

    Inverts the slot layout of :func:`build_omega`; the result only
    reproduces ``omega`` when the form actually lies in the closed
    invariant space.  Raises ValueError when the designated slots carry
    data of the wrong symmetry type.
    """
    fld = field_of(omega)
    zero = fld.scalar(0)
    a1 = fld.zeros((n, n))
    a2 = fld.zeros((n, n))
    k = fld.zeros((n, n))
    dm = fld.zeros((n, n))
    zs = 2 * n
    z = 4 * n + 1
    es = 2 * n + 1
    fs = 3 * n + 1
    for i in range(n):
        for j in range(n):
            dm[i, j] = omega[i, fs + j]
            if i < j:
                a1[i, j] = omega[i, j]
                a1[j, i] = -a1[i, j]
                k[i, j] = omega[i, es + j]
                k[j, i] = -k[i, j]
            a2[i, j] = omega[i, n + j] if i <= j else omega[j, n + i]
    c1 = omega[0, zs] if n == 1 else zero
    c2 = omega[n, zs] if n == 1 else zero
    return OmegaParams(n=n, a1=a1, a2=a2, k=k, d=dm, mu=omega[zs, z],
                       c1=c1, c2=c2, exact=fld.exact)


def matches_omega_template(omega: np.ndarray, n: int, tol: float = 1e-10) -> bool:
    """True when the form is an instance of the closed invariant template."""
    try:
        rebuilt = build_omega(extract_omega_params(omega, n))
    except (ValueError, AssertionError):
        return False
    return negligible(maxabs(omega - rebuilt), tol, max(1.0, float(np.abs(omega).max())))


def is_nondegenerate(omega: np.ndarray, tol: float = 1e-12) -> bool:
    """Nonzero determinant; exact when the input is rational."""
    omega = np.asarray(omega)
    if _exact.is_exact(omega):
        return _exact.det(omega) != 0
    sv = np.linalg.svd(omega, compute_uv=False)
    return sv[-1] > tol * max(1.0, sv[0])


def pseudo_kahler_metric(omega: np.ndarray, n: int) -> np.ndarray:
    """S(x, y) = Omega(J0 x, y), i.e. the matrix J0^T Omega (= -J0 Omega).

    J0-invariance of Omega makes S symmetric and Hermitian for J0, and
    the form is recovered as Omega(x, y) = S(x, J0 y).  Raises
    DegenerateOmega when Omega has no inverse.
    """
    omega = np.asarray(omega)
    d = 4 * n + 2
    if omega.shape != (d, d):
        raise ValueError("form dimension mismatch")
    if not is_nondegenerate(omega):
        raise DegenerateOmega("the 2-form is degenerate")
    # (J0^T Omega)[c, q] = sgn_c Omega[img_c, q], J0 being a signed permutation
    img, sgn = _j0_permutation(n)
    s = np.array(sgn)[:, None] * omega[img]
    scale = max(1.0, float(np.abs(s).max()))
    assert negligible(maxabs(s - s.T), 1e-10, scale)
    j0 = standard_complex_structure(n, exact=_exact.is_exact(omega))
    assert negligible(hermitian_defect(j0, s), 1e-10, scale)
    return s


def certify_pseudo_kahler(params: OmegaParams) -> dict:
    """Full certificate for one parameter draw.

    Builds Omega, the metric, the connection and the curvature, and
    reports {nondegenerate, ricci_zero, summands_zero, flat, witness,
    signature}.  In exact mode every "zero" is an exact zero.  The
    witness is a nonzero curvature component (x, y, w, component index,
    value) with (x, y) = (e_1, f_1) preferred, present whenever the
    metric is not flat.

    Raises
    ------
    DegenerateOmega
        If the sampled form has no inverse.
    """
    n = params.n
    g = build_thn(n)
    omega = build_omega(params)
    s = pseudo_kahler_metric(omega, n)
    gamma = levi_civita(g, s)
    riem = riemann(g, gamma)
    ric1 = ricci_from_riemann(riem)
    one, two = ricci_nilpotent_summands(g, s)
    scale = max(1.0, float(np.abs(np.asarray(s, dtype=float)).max()) ** 2)

    def allzero(m):
        return negligible(maxabs(m), 1e-9, scale)

    flat = is_flat(riem)
    witness = None
    if not flat:
        blocks = [(0, n)] + [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
        for (i, j) in blocks:
            comp = riem[i, j]
            mags = np.abs(comp)
            if not negligible(mags.max(), 1e-10, 1.0):
                kk, ll = np.unravel_index(mags.argmax(), mags.shape)
                witness = (g.basis_names[i], g.basis_names[j], g.basis_names[kk],
                           g.basis_names[ll], comp[kk, ll])
                break
    return {
        "nondegenerate": True,
        "ricci_zero": allzero(ric1) and allzero(one + two),
        "summands_zero": allzero(one) and allzero(two),
        "routes_agree": allzero(ric1 - (one + two)),
        "flat": flat,
        "witness": witness,
        "signature": signature(s),
    }
