"""The automorphism group of T*h(2n+1) in explicit block form.

Every automorphism is lower block triangular for the splitting
(noncentral | central) = (e, f, z* | e*, f*, z):

    F = [[F1, 0], [F3, F4]],     F1 = [[Fbar1, v1], [u1^T, f1]],

where Fbar1 is conformal symplectic (Fbar1^T J Fbar1 = f4 J with f4 != 0),
F3 is arbitrary, f1 != 0, and F4 is completely determined:

    F4 = [[f1 f4 Fbar1^{-T} - (J v1)(J u1)^T,  -f4 Fbar1^{-T} u1],
          [-f4 (Fbar1^{-1} v1)^T,               f4            ]].

The vector u1 is free only for n = 1.  For n >= 2 bracket preservation on
pairs ([e_i, f_j], z*) with i != j forces u1 = 0 (and with it v4 = 0): the
constraint couples u1 against every off-diagonal entry of J Fbar1, and only
in the 2x2 symplectic case does the coupling have full-rank solutions.
assemble() re-verifies the bracket identity on every call, so this is a
checked fact, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import _exact
from ._exact import field, field_of, maxabs, negligible, to_float
from .lie_core import LieAlgebra, standard_symplectic

__all__ = [
    "AutParams",
    "Automorphism",
    "assemble",
    "bracket_defect",
    "identity_params",
    "is_automorphism",
    "symplectic_rotation",
    "random_automorphism",
    "random_conformal_symplectic",
    "aut_parameter_dimension",
]


@dataclass(frozen=True)
class AutParams:
    """Free block data of an automorphism.

    Fbar1 : (2n, 2n) conformal symplectic matrix; fixes f4.
    u1, v1 : length-2n vectors (u1 must be zero unless n = 1).
    f1 : nonzero scalar.
    F3 : (2n+1, 2n+1) arbitrary matrix.
    """

    Fbar1: np.ndarray
    u1: np.ndarray
    v1: np.ndarray
    f1: object
    F3: np.ndarray

    @property
    def n(self) -> int:
        return self.Fbar1.shape[0] // 2

    @property
    def exact(self) -> bool:
        return _exact.is_exact(np.asarray(self.Fbar1))

    def f4(self, tol: float = 1e-12):
        """Conformal factor from Fbar1^T J Fbar1 = f4 J; raises if the identity fails."""
        n = self.n
        j = standard_symplectic(n, exact=self.exact)
        m = np.asarray(self.Fbar1).T @ j @ np.asarray(self.Fbar1)
        f4 = m[0, n] / j[0, n]
        if not negligible(maxabs(m - f4 * j), tol, max(1.0, np.abs(m).max())):
            raise ValueError("Fbar1 is not conformal symplectic")
        if f4 == 0:
            raise ValueError("conformal factor f4 must be nonzero")
        return f4


@dataclass(frozen=True)
class Automorphism:
    """A verified automorphism matrix, with block provenance when assembled."""

    matrix: np.ndarray
    n: int
    params: AutParams | None = None

    @property
    def exact(self) -> bool:
        return _exact.is_exact(self.matrix)

    def inverse(self) -> "Automorphism":
        return Automorphism(matrix=field_of(self.matrix).inv(self.matrix), n=self.n)

    def __matmul__(self, other: "Automorphism") -> "Automorphism":
        return Automorphism(matrix=self.matrix @ other.matrix, n=self.n)


def bracket_defect(m: np.ndarray, g: LieAlgebra):
    """max |M[b_i,b_j] - [Mb_i, Mb_j]| over basis pairs; Fraction in exact mode.

    Exact input compares M ad(b_i) with ad(Mb_i) M over :class:`SparseQ`.
    Float input evaluates every pair i < j at once from the i < j rows of
    the structure tensor C: M[b_i, b_j] is one product with M, and
    [Mb_i, Mb_j] = sum over the bracket pairs a < b of
    (M_ai M_bj - M_bi M_aj) [b_a, b_b], a second product.
    """
    if _exact.is_exact(m):
        sm = _exact.SparseQ.from_dense(m)
        cols = sm.T.rows
        worst = Fraction(0)
        for i in range(g.dim):
            # column j is M[b_i, b_j] - [Mb_i, Mb_j]; columns j <= i repeat
            # pairs already seen, up to sign, or vanish
            diff = sm @ _exact.ad(g, {i: 1}) - _exact.ad(g, cols.get(i, {}), sm.den) @ sm
            worst = max(worst, diff.maxabs())
        return worst
    iu, ju = _upper_pairs(g.dim)
    a, b = np.array(sorted({(i, j) for i, j, _, _ in g.constants}), dtype=int).reshape(-1, 2).T
    c = g.structure_tensor
    mt = m.T
    mi, mj = mt[iu], mt[ju]
    minors = mi[:, a] * mj[:, b] - mi[:, b] * mj[:, a]
    return _exact.maxabs(c[iu, ju] @ mt - minors @ c[a, b])


@cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of a d x d matrix."""
    return np.triu_indices(d, 1)


def is_automorphism(m: np.ndarray, g: LieAlgebra, tol: float = 1e-12) -> bool:
    """True iff m is invertible and preserves every basis bracket within tol (0 when exact)."""
    m = np.asarray(m)
    if m.shape != (g.dim, g.dim):
        raise ValueError("matrix dimension mismatch")
    singular = _exact.det(m) == 0 if _exact.is_exact(m) else abs(np.linalg.det(m)) < 1e-300
    if singular:
        return False
    return negligible(bracket_defect(m, g), tol, max(1.0, np.abs(m).max() ** 2))


def assemble(params: AutParams, g: LieAlgebra, tol: float = 1e-12) -> Automorphism:
    """Build the full (4n+2) x (4n+2) automorphism from block data.

    The determined blocks (F4, u4, v4, f4) are filled in and bracket
    preservation is re-verified before returning.  Exact inputs give an
    exact check; float inputs are checked at ``tol``.

    Raises
    ------
    ValueError
        If Fbar1 is not conformal symplectic, f1 = 0, F1 is singular,
        or the assembled matrix fails the bracket test (in particular
        for any nonzero u1 with n >= 2).
    """
    n = params.n
    if g.n != n or g.dim != 4 * n + 2:
        raise ValueError("algebra/params dimension mismatch")
    fld = field(params.exact)
    f4 = params.f4(tol=tol)
    f1 = params.f1
    if f1 == 0:
        raise ValueError("f1 must be nonzero")
    j = standard_symplectic(n, exact=fld.exact)
    fb1 = np.asarray(params.Fbar1)
    u1 = np.asarray(params.u1)
    v1 = np.asarray(params.v1)
    f3 = np.asarray(params.F3)

    fb1_inv = fld.inv(fb1)
    # det F1 = det(Fbar1) (f1 - u1^T Fbar1^{-1} v1); reject singular F1 early
    cross = u1 @ fb1_inv @ v1
    if negligible(f1 - cross, 1e-12, max(1.0, abs(float(f1)), abs(float(cross)))):
        raise ValueError("F1 block is singular (f1 - u1^T Fbar1^{-1} v1 = 0)")

    fb4 = f1 * f4 * fb1_inv.T - np.outer(j @ v1, j @ u1)
    v4 = -f4 * (fb1_inv.T @ u1)
    u4 = -f4 * (fb1_inv @ v1)

    d = 4 * n + 2
    m = 2 * n + 1
    out = fld.zeros((d, d))
    out[: 2 * n, : 2 * n] = fb1
    out[: 2 * n, 2 * n] = v1
    out[2 * n, : 2 * n] = u1
    out[2 * n, 2 * n] = f1
    out[m:, :m] = f3
    out[m : m + 2 * n, m : m + 2 * n] = fb4
    out[m : m + 2 * n, m + 2 * n] = v4
    out[m + 2 * n, m : m + 2 * n] = u4
    out[m + 2 * n, m + 2 * n] = f4

    defect = bracket_defect(out, g)
    if not negligible(defect, tol, max(1.0, float(np.abs(to_float(out)).max()) ** 2)):
        hint = ""
        if n >= 2 and any(x != 0 for x in u1):
            hint = " (u1 must vanish for n >= 2: the center-pairing constraints admit no nonzero solution)"
        raise ValueError(f"assembled matrix fails bracket preservation, defect {defect}{hint}")
    return Automorphism(matrix=out, n=n, params=params)


def identity_params(n: int, exact: bool = False) -> AutParams:
    fld = field(exact)
    return AutParams(
        Fbar1=fld.eye(2 * n),
        u1=fld.zeros(2 * n),
        v1=fld.zeros(2 * n),
        f1=fld.scalar(1),
        F3=fld.zeros((2 * n + 1, 2 * n + 1)),
    )


def symplectic_rotation(angles, g: LieAlgebra) -> Automorphism:
    """Plane rotations e_i -> cos a_i e_i - sin a_i f_i, f_i -> sin a_i e_i + cos a_i f_i.

    The induced dual block is the same rotation on (e*, f*); z* and z are
    fixed (f1 = f4 = 1, u1 = v1 = 0, F3 = 0).  These maps preserve both the
    symplectic pairing and the Euclidean inner product on span(e, f).
    """
    n = g.n
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (n,):
        raise ValueError(f"expected {n} angles")
    fb1 = np.zeros((2 * n, 2 * n))
    for i, a in enumerate(angles):
        c, s = np.cos(a), np.sin(a)
        fb1[i, i] = c
        fb1[n + i, i] = -s
        fb1[i, n + i] = s
        fb1[n + i, n + i] = c
    params = AutParams(
        Fbar1=fb1,
        u1=np.zeros(2 * n),
        v1=np.zeros(2 * n),
        f1=1.0,
        F3=np.zeros((2 * n + 1, 2 * n + 1)),
    )
    return assemble(params, g)


def random_conformal_symplectic(n: int, rng: np.random.Generator,
                                exact: bool = False) -> np.ndarray:
    """Random conformal symplectic matrix as lam * (product of symplectic transvections).

    A transvection E - c v (Jv)^T is exactly symplectic for every c and v,
    so integer draws give exact rational (even integer) samples; the overall
    scale lam contributes the conformal factor f4 = lam^2.
    """
    fld = field(exact)
    j = standard_symplectic(n, exact=exact)
    out = fld.eye(2 * n)
    for _ in range(3):
        v = fld.array(rng.integers(-2, 3, size=2 * n))
        c = fld.scalar(int(rng.integers(-1, 2))) / 2
        out = out @ (fld.eye(2 * n) - c * np.outer(v, j @ v))
    return fld.scalar(int(rng.integers(1, 4))) / 2 * out


def random_automorphism(n: int, g: LieAlgebra, seed: int | None = None,
                        rng: np.random.Generator | None = None,
                        exact: bool = False) -> Automorphism:
    """Seeded random automorphism; exact=True draws rational block data.

    For n >= 2, u1 is always zero (no other value assembles).
    Float draws are rejected while cond(F) > 3e4 so that pullback metrics
    keep roughly nine significant digits through downstream reductions.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    fld = field(exact)

    def vec(free: bool):
        vals = rng.integers(-2, 3, size=2 * n) if free else np.zeros(2 * n, dtype=int)
        return fld.array(vals) / 2

    for _ in range(64):
        fb1 = random_conformal_symplectic(n, rng, exact=exact)
        u1 = vec(n == 1)
        v1 = vec(True)
        f1_int = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
        f1 = fld.scalar(f1_int) / 2
        f3 = fld.array(rng.integers(-2, 3, size=(2 * n + 1, 2 * n + 1)))
        params = AutParams(Fbar1=fb1, u1=u1, v1=v1, f1=f1, F3=f3)
        try:
            aut = assemble(params, g)
        except ValueError:
            # f1 - u1^T Fbar1^{-1} v1 = 0 on a measure-zero set of draws
            continue
        if exact or np.linalg.cond(aut.matrix) <= 3e4:
            return aut
    raise RuntimeError("no acceptable draw in 64 tries; check the generator state")


def aut_parameter_dimension(n: int) -> int:
    """Dimension of the automorphism group computed from its free block data.

    conformal symplectic Fbar1: n(2n+1) + 1;  v1: 2n;  f1: 1;
    F3: (2n+1)^2;  u1: 2n for n = 1, zero otherwise.
    Equals len(derivation_algebra(build_thn(n))) for all n; the closed form
    6n^2 + 9n + 3 holds only at n = 1, where u1 survives.
    """
    base = (n * (2 * n + 1) + 1) + 2 * n + 1 + (2 * n + 1) ** 2
    return base + (2 * n if n == 1 else 0)
