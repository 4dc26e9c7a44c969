"""Ad-invariant symmetric bilinear forms on T*h(2n+1).

The duality pairing <x + phi, y + psi> = psi(x) + phi(y) is ad-invariant
for the coadjoint semidirect bracket, and it is essentially the only
invariant metric: the full space of ad-invariant symmetric forms is

    S = [[Sbar, alpha E], [alpha E, 0]]

in the (e, f, z* | e*, f*, z) splitting, with Sbar an arbitrary symmetric
(2n+1) x (2n+1) block and alpha a scalar, so the solution space has
dimension (2n+1)(2n+2)/2 + 1 and contains exactly one nondegeneracy class:
alpha != 0.  Every nondegenerate member is carried to the pairing itself
by an explicit automorphism (no residual scale: the conformal factor of
the group absorbs alpha), computed here in closed form.

Such a metric is bi-invariant, so nabla = ad/2; since the algebra is
two-step nilpotent, R(x,y) = -ad_{[x,y]}/4 = 0 and the metric is flat.
certify_flat checks both statements with the general curvature engine
rather than trusting the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _exact
from ._exact import SparseQ, ad, congruence_defect, field, field_of, is_exact, maxabs, negligible
from .automorphism import Automorphism, assemble
from .curvature import is_flat, levi_civita, riemann
from .lie_core import LieAlgebra, n_of

__all__ = [
    "pairing_metric",
    "ad_invariance_defect",
    "is_ad_invariant",
    "solution_space_dimension",
    "ad_invariant_solution_space",
    "template_defect",
    "random_ad_invariant",
    "NormalizedAdInvariant",
    "normalize_ad_invariant",
    "certify_flat",
]


def pairing_metric(n: int, exact: bool = False) -> np.ndarray:
    """The duality pairing as a (4n+2) x (4n+2) matrix: b_i paired with b_{m+i}, m = 2n+1."""
    d = 4 * n + 2
    m = 2 * n + 1
    fld = field(exact)
    p = fld.zeros((d, d))
    one = fld.scalar(1)
    for i in range(m):
        p[i, m + i] = one
        p[m + i, i] = one
    return p


def ad_invariance_defect(g: LieAlgebra, s: np.ndarray):
    """max |<[x,y],w> + <y,[x,w]>| over basis triples, i.e. max |ad_x^T s + s ad_x|.

    A Fraction for exact input, a float otherwise (NaN when s has a NaN).
    """
    if is_exact(s):
        sq = SparseQ.from_dense(s)
        return maxabs([(ax.T @ sq + sq @ ax).maxabs()
                       for ax in (ad(g, {x: 1}) for x in range(g.dim))])
    return maxabs([maxabs(ax.T @ s + s @ ax)
                   for ax in (g.structure_tensor[x].T.copy() for x in range(g.dim))])


def is_ad_invariant(g: LieAlgebra, s: np.ndarray) -> bool:
    """Zero defect, exactly for exact input, else within 1e-12 relative to max |s|."""
    return negligible(ad_invariance_defect(g, s), 1e-12, s)


def solution_space_dimension(n: int) -> int:
    """(2n+1)(2n+2)/2 + 1: a free symmetric block plus the pairing scale."""
    m = 2 * n + 1
    return m * (m + 1) // 2 + 1


def ad_invariant_solution_space(g: LieAlgebra) -> list[np.ndarray]:
    """Exact basis of {s symmetric : ad_x^T s + s ad_x = 0 for all x}.

    Returns a list of symmetric Fraction matrices.  One equation
    <[x,y],w> + <y,[x,w]> = 0 per x and y <= w, over the symmetric units
    E_ab + E_ba, a < b, and E_aa, in row-major order of the upper triangle.
    Only the pairs where [x, y] or [x, w] is nonzero give an equation, so
    only those are visited, in the same (x, y, w) order.
    """
    d = g.dim

    def equations():
        for x in range(d):
            hits = [y for y in range(d) if g.bracket_sparse(x, y)]
            for y in range(d):
                for w in (range(y, d) if y in hits else (w for w in hits if w >= y)):
                    eq = [((k, w), v) for (k, v) in g.bracket_sparse(x, y)]
                    eq += [((y, k), v) for (k, v) in g.bracket_sparse(x, w)]
                    yield eq

    # at a = b the two keys coincide, which leaves E_aa
    units = [{(a, b): 1, (b, a): 1} for a in range(d) for b in range(a, d)]
    return _exact.solution_space(equations(), units, (d, d))


def template_defect(s: np.ndarray) -> tuple[object, object]:
    """Distance of s from the block template [[Sbar, alpha E], [alpha E, 0]]; n = n_of(s).

    Returns (defect, alpha) with alpha read off the (e_1, e*_1) entry; the
    defect is a Fraction for exact input, a float otherwise.  Zero defect
    for every ad-invariant form; the check is what makes the template a
    theorem here rather than an ansatz.
    """
    m = 2 * n_of(s) + 1
    alpha = s[0, m]
    eye = field_of(s).eye(m)
    return max(maxabs(s[:m, m:] - alpha * eye), maxabs(s[m:, m:])), alpha


@cache
def _solution_basis(g: LieAlgebra) -> tuple[SparseQ, ...]:
    """:func:`ad_invariant_solution_space` of ``g`` as integer matrices, solved once."""
    return tuple(SparseQ.from_dense(b) for b in ad_invariant_solution_space(g))


def random_ad_invariant(g: LieAlgebra, rng: np.random.Generator) -> np.ndarray:
    """Random integer combination of the solution basis, as an exact matrix;
    resamples until alpha != 0.

    The basis is solved once per algebra and combined over ints.
    """
    basis = _solution_basis(g)
    d = g.dim
    m = 2 * g.n + 1
    for _ in range(64):
        coeffs = rng.integers(-4, 5, size=len(basis))
        acc = SparseQ({})
        for c, b in zip(coeffs.tolist(), basis):
            if c:
                acc = acc + c * b
        s = acc.dense((d, d))
        if s[0, m] != 0:
            return s
    raise RuntimeError("failed to draw a nondegenerate ad-invariant form")


@dataclass(frozen=True)
class NormalizedAdInvariant:
    """Witness that an ad-invariant metric is the pairing up to automorphism."""

    automorphism: Automorphism
    alpha: object
    residual: object


def normalize_ad_invariant(s: np.ndarray, g: LieAlgebra) -> NormalizedAdInvariant:
    """Automorphism F with F^T s F equal to the duality pairing.

    Writing s = [[Sbar, alpha E], [alpha E, 0]], the blocks

        Fbar1 = E, u1 = v1 = 0, f1 = 1/alpha, F3 = -Sbar F1 / (2 alpha)

    do it: the F3 term cancels Sbar against the cross pairing, and the
    induced F4 = diag(E/alpha, 1) rescales the cross block to E.  The
    residual max |F^T s F - pairing| is a Fraction for exact input, and
    then exactly zero; float input passes within 1e-12 relative to max |s|.

    Raises
    ------
    ValueError
        If s is not ad-invariant or is degenerate (alpha = 0).
    """
    n = g.n
    m = 2 * n + 1
    fld = field_of(s)
    if not is_ad_invariant(g, s):
        raise ValueError("matrix is not ad-invariant")
    defect, alpha = template_defect(s)
    if not negligible(defect, 1e-12, s):
        raise ValueError("matrix is ad-invariant but off-template; this cannot happen")
    if alpha == 0:
        raise ValueError("degenerate form: alpha = 0")

    one = fld.scalar(1)
    f1 = one / alpha
    f1_block = fld.eye(m)
    f1_block[m - 1, m - 1] = f1
    sbar = s[:m, :m]
    f3 = -(one / (2 * alpha)) * (sbar @ f1_block)
    aut = assemble(g, f1=f1, F3=f3)
    residual = congruence_defect(aut.matrix, s, pairing_metric(n, exact=fld.exact))
    if not negligible(residual, 1e-12, s):
        raise ValueError(f"normalization residual {residual} out of tolerance")
    return NormalizedAdInvariant(automorphism=aut, alpha=alpha, residual=residual)


def certify_flat(s: np.ndarray, g: LieAlgebra) -> dict:
    """Check nabla = ad/2 and R = 0 for an ad-invariant metric.

    Runs the generic Koszul/curvature pipeline, not the bi-invariant
    shortcut, and reports both defects.  Exact input certifies exactly (both
    defects are then Fractions); float input is flat at 1e-12.
    """
    fld = field_of(s)
    gamma = levi_civita(g, s)
    half = fld.scalar(1) / 2
    eye = fld.eye(g.dim)
    diff = np.array([gamma[i] - half * g.ad_matrix(eye[i]).T for i in range(g.dim)])
    riem = riemann(g, gamma)
    return {
        "half_ad_defect": maxabs(diff),
        "riemann_max": maxabs(riem),
        "flat": is_flat(riem, tol=1e-12),
    }
