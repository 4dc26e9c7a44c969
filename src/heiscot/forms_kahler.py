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
from functools import cache

import numpy as np

from . import _exact
from ._exact import field, field_of, fmat, maxabs, negligible, signed_permutation, solution_space
from .curvature import (
    is_flat,
    levi_civita,
    ricci_from_riemann,
    ricci_nilpotent_summands,
    riemann,
    signature,
)
from .complex_structures import (_j0_invariance_equations, hermitian_defect,
                                 standard_complex_structure)
from .lie_core import LieAlgebra, build_thn

__all__ = [
    "DegenerateOmega",
    "d_one_form",
    "d_two_form",
    "closure_defect",
    "is_closed",
    "closed_invariant_space",
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


@cache
def _d_two_form_terms(g: LieAlgebra) -> tuple:
    """(a, b, c, terms) for every triple a < b < c, where
    (d Omega)(b_a, b_b, b_c) = sum coef Omega[k, w] over (k, w), coef in terms.

    Tabulated once per algebra: every closure check evaluates it."""
    return tuple((a, b, c, [((k, w), sgn * v)
                            for (x, y, w, sgn) in ((a, b, c, -1), (a, c, b, 1), (b, c, a, -1))
                            for (k, v) in g.bracket_sparse(x, y)])
                 for a, b, c in itertools.combinations(range(g.dim), 3))


def _d_two_form_triples(omega: np.ndarray, g: LieAlgebra) -> tuple[object, list]:
    """(field, [(a, b, c, (d Omega)(b_a, b_b, b_c)) for every triple a < b < c])."""
    omega = np.asarray(omega)
    d = g.dim
    if omega.shape != (d, d):
        raise ValueError("form dimension mismatch")
    fld = field_of(omega)
    out = []
    for a, b, c, terms in _d_two_form_terms(g):
        acc = fld.scalar(0)
        for pos, coef in terms:
            acc += fld.scalar(coef) * omega[pos]
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


def is_closed(omega: np.ndarray, g: LieAlgebra) -> bool:
    """d Omega = 0: exactly for exact input, else within 1e-10 relative to max |Omega|."""
    return negligible(closure_defect(omega, g), 1e-10, omega)


def closed_invariant_space(n: int) -> list[np.ndarray]:
    """Exact basis of {Omega antisymmetric : d Omega = 0, J0-invariant}.

    Solves the closure and J0-invariance equations over the antisymmetric
    units E_pq - E_qp, p < q, with rational elimination; no tolerances are
    involved.  Dimensions: 5, 9, 19, 33 for n = 1..4, i.e. 2n^2 + 1 for
    n >= 2 plus the two extra n = 1 forms.
    """
    g = build_thn(n)
    d = g.dim
    equations = itertools.chain((terms for *_, terms in _d_two_form_terms(g)),
                                _j0_invariance_equations(n))
    units = [{(p, q): 1, (q, p): -1} for p in range(d) for q in range(p + 1, d)]
    return solution_space(equations, units, (d, d))


def omega_parameter_count(n: int) -> int:
    """Free parameters of the template: 2n^2 + 1, plus 2 when n = 1."""
    return 2 * n * n + 1 + (2 if n == 1 else 0)


def _coerce_block(x, shape, fld):
    if x is None:
        return fld.zeros(shape)
    x = np.asarray(x)
    if x.shape != shape:
        raise ValueError(f"block shape {x.shape} != {shape}")
    return fld.array(x)


@dataclass(frozen=True)
class OmegaParams:
    """Parameters of a closed J0-invariant 2-form; see :func:`build_omega`.

    a1 : (n, n) antisymmetric, the e-e / f-f pair coefficients.
    a2 : (n, n) symmetric, the e-f coefficients.
    k : (n, n) antisymmetric cross coupling into the starred group.
    d : (n, n) symmetric cross coupling.
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

    @property
    def exact(self) -> bool:
        """Whether every block and scalar is exact; see :func:`heiscot._exact.field_of`."""
        return field_of(self.a1, self.a2, self.k, self.d, self.mu, self.c1, self.c2).exact

    def blocks(self):
        n = self.n
        fld = field(self.exact)
        a1 = _coerce_block(self.a1, (n, n), fld)
        a2 = _coerce_block(self.a2, (n, n), fld)
        k = _coerce_block(self.k, (n, n), fld)
        dm = _coerce_block(self.d, (n, n), fld)
        for name, b, sym in (("a1", a1, -1), ("a2", a2, 1), ("k", k, -1), ("d", dm, 1)):
            if not negligible(maxabs(b - sym * b.T), 1e-12, b):
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
    )


def _slots(n: int):
    """The template layout: each (name, index, (a, b), coef) puts
    coef * name[index] at Omega[a, b] and its negative at Omega[b, a].

    ``index`` is () for the scalars mu, c1 and c2.  The slots are distinct
    entries above the diagonal; each parameter's first slot has coef 1 and
    is the one :func:`extract_omega_params` reads the parameter from.
    """
    e, f, zs, es, fs, z = 0, n, 2 * n, 2 * n + 1, 3 * n + 1, 4 * n + 1
    yield "mu", (), (zs, z), 1
    for i, (x, xs) in itertools.product(range(n), ((e, es), (f, fs))):
        yield "mu", (), (x + i, xs + i), Fraction(-1, 2)
    for i, j in itertools.product(range(n), repeat=2):
        if i <= j:
            yield "a2", (i, j), (e + i, f + j), 1
        if i < j:
            yield "a2", (i, j), (e + j, f + i), 1
            for x, xs in ((e, es), (f, fs)):
                yield "a1", (i, j), (x + i, x + j), 1
                yield "k", (i, j), (x + i, xs + j), 1
                yield "k", (i, j), (x + j, xs + i), -1
        yield "d", (i, j), (e + i, fs + j), 1
        yield "d", (i, j), (f + i, es + j), -1
    if n == 1:
        yield "c1", (), (e, zs), 1
        yield "c1", (), (f, z), -1
        yield "c2", (), (f, zs), 1
        yield "c2", (), (e, z), 1


def build_omega(params: OmegaParams) -> np.ndarray:
    """Assemble the 2-form of the template and verify it on construction.

    The output is closed and J0-invariant; both are asserted (exactly in
    exact mode) before returning, so a successful call is a certificate.
    """
    n = params.n
    g = build_thn(n)
    fld = field(params.exact)
    values = dict(zip(("a1", "a2", "k", "d"), params.blocks()),
                  mu=fld.scalar(params.mu), c1=fld.scalar(params.c1), c2=fld.scalar(params.c2))
    out = fld.zeros((g.dim, g.dim))
    for name, index, (a, b), coef in _slots(n):
        v = coef * (values[name][index] if index else values[name])
        out[a, b] += v
        out[b, a] -= v
    j0 = standard_complex_structure(n, exact=fld.exact)
    assert negligible(closure_defect(out, g), 1e-10, out)
    assert negligible(hermitian_defect(j0, out), 1e-10, out)
    return out


def extract_omega_params(omega: np.ndarray, n: int) -> OmegaParams:
    """Read the template coefficients back off a 2-form matrix.

    Inverts the slot layout of :func:`build_omega`: each parameter is read
    from its first slot, a1 and k are completed as antisymmetric and a2 as
    symmetric matrices.  The result only reproduces ``omega`` when the form
    actually lies in the closed invariant space.
    """
    fld = field_of(omega)
    values = {name: fld.zeros((n, n)) for name in ("a1", "a2", "k", "d")}
    values.update(mu=fld.scalar(0), c1=fld.scalar(0), c2=fld.scalar(0))
    # in reverse, so that each parameter is written from its first slot last
    for name, index, ab, _ in reversed(list(_slots(n))):
        if index:
            values[name][index] = omega[ab]
        else:
            values[name] = omega[ab]
    below = np.tril_indices(n, -1)
    for name in ("a1", "k"):
        values[name][below] = -values[name].T[below]
    values["a2"][below] = values["a2"].T[below]
    return OmegaParams(n=n, **values)


def matches_omega_template(omega: np.ndarray, n: int) -> bool:
    """True when the form equals its rebuilt template instance, within 1e-10
    relative to max |Omega| (exactly for exact input)."""
    try:
        rebuilt = build_omega(extract_omega_params(omega, n))
    except (ValueError, AssertionError):
        return False
    return negligible(maxabs(omega - rebuilt), 1e-10, omega)


def is_nondegenerate(omega: np.ndarray) -> bool:
    """Nonzero determinant; exact when the input is rational, else the smallest
    singular value must exceed 1e-12 * max(1, largest); ValueError on a
    non-finite float entry."""
    omega = np.asarray(omega)
    if _exact.is_exact(omega):
        return _exact.det(omega) != 0
    _exact.require_finite(omega, "2-form")
    sv = np.linalg.svd(omega, compute_uv=False)
    return not negligible(sv[-1], 1e-12, sv)


def pseudo_kahler_metric(omega: np.ndarray, n: int) -> np.ndarray:
    """S(x, y) = Omega(J0 x, y), i.e. the matrix J0^T Omega (= -J0 Omega).

    J0-invariance of Omega makes S symmetric and Hermitian for J0, and
    the form is recovered as Omega(x, y) = S(x, J0 y).  Raises
    DegenerateOmega when Omega has no inverse and ValueError when a float
    Omega has a non-finite entry.
    """
    omega = np.asarray(omega)
    d = 4 * n + 2
    if omega.shape != (d, d):
        raise ValueError("form dimension mismatch")
    if not is_nondegenerate(omega):
        raise DegenerateOmega("the 2-form is degenerate")
    # (J0^T Omega)[c, q] = sgn_c Omega[img_c, q], J0 being a signed permutation
    img, sgn = signed_permutation(standard_complex_structure(n))
    s = np.array(sgn)[:, None] * omega[img]
    assert negligible(maxabs(s - s.T), 1e-10, s)
    j0 = standard_complex_structure(n, exact=_exact.is_exact(omega))
    assert negligible(hermitian_defect(j0, s), 1e-10, s)
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

    def allzero(m):
        return negligible(maxabs(m), 1e-9, s, power=2)

    flat = is_flat(riem)
    witness = None
    if not flat:
        blocks = [(0, n)] + [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
        for (i, j) in blocks:
            comp = riem[i, j]
            mags = np.abs(comp)
            if not negligible(mags.max(), 1e-10):
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
