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

The exact branches multiply no dense Fraction arrays: assemble,
bracket_defect, the composition of automorphisms and
random_conformal_symplectic scale their operands to Python ints over one
common denominator (fraction-free, as in Bareiss, Math. Comp. 22, 1968),
compute over ints, and build one Fraction per returned entry.  Every call
still verifies, in both fields: assemble checks the conformal factor, f1,
the singular F1 block and bracket preservation before it returns.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import _exact
from ._exact import SparseQ, field, field_of, maxabs, negligible
from .lie_core import LieAlgebra, standard_symplectic

__all__ = [
    "Automorphism",
    "assemble",
    "bracket_defect",
    "is_automorphism",
    "symplectic_rotation",
    "random_automorphism",
    "random_conformal_symplectic",
    "aut_parameter_dimension",
]


@dataclass(frozen=True)
class Automorphism:
    """A verified automorphism matrix."""

    matrix: np.ndarray

    def inverse(self) -> "Automorphism":
        return Automorphism(field_of(self.matrix).inv(self.matrix))

    def __matmul__(self, other: "Automorphism") -> "Automorphism":
        """The composition; over :class:`SparseQ` when both matrices are exact."""
        a, b = self.matrix, other.matrix
        if _exact.is_exact(a) and _exact.is_exact(b):
            product = SparseQ.from_dense(a) @ SparseQ.from_dense(b)
            return Automorphism(product.dense((len(a), b.shape[1])))
        return Automorphism(a @ b)


def bracket_defect(m: np.ndarray, g: LieAlgebra):
    """max |M[b_i,b_j] - [Mb_i, Mb_j]| over basis pairs; Fraction in exact mode.

    Exact input is scaled to ints over one denominator (:class:`SparseQ`),
    and the defect of every pair i < j is summed as ints over that
    denominator squared times the structure constants' one: M[b_i, b_j]
    reads the columns of M at the brackets of g, and [Mb_i, Mb_j] the
    products M_ai M_bj of the rows a, b of each nonzero bracket [b_a, b_b].
    One Fraction is built at the end.  Float input evaluates every pair
    i < j at once from the i < j rows of the structure tensor C:
    M[b_i, b_j] is one product with M, and [Mb_i, Mb_j] = sum over the
    bracket pairs a < b of (M_ai M_bj - M_bi M_aj) [b_a, b_b], a second
    product, with the minors gathered from M through flat indices.
    :func:`assemble` runs this check on every matrix it builds.
    """
    if _exact.is_exact(m):
        mq = SparseQ.from_dense(m)
        rows, cols, den = mq.rows, mq.T.rows, mq.den
        dc, table = g.int_constants
        # acc[i, j, k]: component k of den^2 dc (M[b_i, b_j] - [Mb_i, Mb_j]), i < j
        acc: defaultdict = defaultdict(int)
        for (a, b), terms in table.items():
            if a > b:
                continue
            for c, u in terms:
                for k, y in cols.get(c, {}).items():
                    acc[a, b, k] += den * u * y
            # M_ai M_bj [b_a, b_b] is part of [Mb_i, Mb_j] = -[Mb_j, Mb_i]
            for i, x in rows.get(a, {}).items():
                for j, y in rows.get(b, {}).items():
                    if i < j:
                        for c, u in terms:
                            acc[i, j, c] -= x * y * u
                    elif i > j:
                        for c, u in terms:
                            acc[j, i, c] += x * y * u
        return Fraction(max(map(abs, acc.values()), default=0), den * den * dc)
    ai, bj, bi, aj, c_upper, c_pairs = _pair_tables(g)[2:]
    mf = m.ravel()
    minors = mf[ai] * mf[bj] - mf[bi] * mf[aj]
    return _exact.maxabs(c_upper @ m.T - minors @ c_pairs)


@cache
def _pair_tables(g: LieAlgebra) -> tuple:
    """Index tables of the float bracket kernels, built once per algebra.

    ``(iu, ju, ai, bj, bi, aj, c_upper, c_pairs)``: (iu, ju) are the pairs
    i < j of the basis and (a, b) the sorted pairs with a nonzero bracket;
    ai[p, q] = a[q] d + iu[p] is the flat index of M[a_q, i_p] (likewise
    bj, bi and aj), and c_upper = C[iu, ju], c_pairs = C[a, b] are the
    matching rows of the structure tensor C.  The arrays are read-only,
    because the cache shares them.
    """
    d = g.dim
    iu, ju = np.triu_indices(d, 1)
    a, b = np.array(sorted({(i, j) for i, j, _, _ in g.constants}), dtype=int).reshape(-1, 2).T
    c = g.structure_tensor
    flat = [row * d + col[:, None] for row, col in ((a, iu), (b, ju), (b, iu), (a, ju))]
    out = (iu, ju, *flat, c[iu, ju], c[a, b])
    for arr in out:
        arr.flags.writeable = False
    return out


@cache
def _symplectic(n: int, exact: bool) -> np.ndarray:
    """Read-only J of :func:`standard_symplectic`, built once per n: float64,
    or (exact) an object array of Python ints."""
    j = standard_symplectic(n)
    if exact:
        j = j.astype(int).astype(object)
    j.flags.writeable = False
    return j


def is_automorphism(m: np.ndarray, g: LieAlgebra, tol: float = 1e-12) -> bool:
    """True iff m is invertible and preserves every basis bracket within tol (0 when exact)."""
    m = np.asarray(m)
    if m.shape != (g.dim, g.dim):
        raise ValueError("matrix dimension mismatch")
    singular = _exact.det(m) == 0 if _exact.is_exact(m) else abs(np.linalg.det(m)) < 1e-300
    if singular:
        return False
    return negligible(bracket_defect(m, g), tol, m, power=2)


def _check_conformal(conformal: bool, f4) -> None:
    """The two rejections of Fbar1, in the order :func:`assemble` tests them."""
    if not conformal:
        raise ValueError("Fbar1 is not conformal symplectic")
    if f4 == 0:
        raise ValueError("conformal factor f4 must be nonzero")


def _fill_exact(out: np.ndarray, n: int, fb1, u1, v1, f1) -> None:
    """Check the blocks and write F4bar, v4, u4, f4 into ``out``, over ints.

    Fbar1 = B / D, u1 = U / e, v1 = V / e, f1 = a / b and
    Fbar1^{-1} = I / di, with B, U, V, I int arrays.  Then
    B^T J B = D^2 f4 J, and each determined block is an int array over one
    denominator, turned into Fractions once.
    """
    k = 2 * n
    j = _symplectic(n, exact=True)
    if fb1 is None:
        bm, dd = np.eye(k, dtype=int).astype(object), 1
    else:
        bm, dd = _exact.to_ints(fb1)
    top, bot = bm[:n], bm[n:]
    w = bot.T @ top - top.T @ bot
    # w = D^2 f4 J, and J[0, n] = -1
    w0 = -w[0, n]
    _check_conformal(not (w != w0 * j).any(), w0)
    if f1 == 0:
        raise ValueError("f1 must be nonzero")
    inv_b, di = (bm, 1) if fb1 is None else _exact.to_ints(_exact.inv(fb1))
    uv, e = _exact.to_ints(np.concatenate([u1, v1]))
    uu, vv = uv[:k], uv[k:]
    a, b = int(f1.numerator), int(f1.denominator)
    # det F1 = det(Fbar1) (f1 - u1^T Fbar1^{-1} v1); reject singular F1 early
    if a * e * e * di == b * (uu @ inv_b @ vv):
        raise ValueError("F1 block is singular (f1 - u1^T Fbar1^{-1} v1 = 0)")
    m = k + 1
    # F4bar over b D^2 di e^2, v4 and u4 over D^2 di e, f4 over D^2
    scale = dd * dd * di
    out[m : m + k, m : m + k] = _exact.from_ints(
        a * w0 * e * e * inv_b.T - b * scale * np.outer(j @ vv, j @ uu), b * scale * e * e)
    out[m : m + k, m + k] = _exact.from_ints(-w0 * (inv_b.T @ uu), scale * e)
    out[m + k, m : m + k] = _exact.from_ints(-w0 * (inv_b @ vv), scale * e)
    out[m + k, m + k] = Fraction(w0, dd * dd)


def _fill_float(out: np.ndarray, n: int, fb1, u1, v1, f1) -> None:
    """Check the blocks and write F4bar, v4, u4, f4 into ``out`` in float64."""
    k = 2 * n
    m = k + 1
    j = _symplectic(n, exact=False)
    if fb1 is None:
        fb1 = out[:k, :k]
    c = fb1.T @ j @ fb1
    f4 = c[0, n] / j[0, n]
    _check_conformal(negligible(maxabs(c - f4 * j), 1e-12, c), f4)
    if f1 == 0:
        raise ValueError("f1 must be nonzero")
    fb1_inv = np.linalg.inv(fb1)
    # det F1 = det(Fbar1) (f1 - u1^T Fbar1^{-1} v1); reject singular F1 early
    cross = u1 @ fb1_inv @ v1
    if negligible(f1 - cross, 1e-12, f1, cross):
        raise ValueError("F1 block is singular (f1 - u1^T Fbar1^{-1} v1 = 0)")
    fb4 = out[m : m + k, m : m + k]
    np.multiply(f1 * f4, fb1_inv.T, out=fb4)
    fb4 -= np.outer(j @ v1, j @ u1)
    out[m : m + k, m + k] = -f4 * (fb1_inv.T @ u1)
    out[m + k, m : m + k] = -f4 * (fb1_inv @ v1)
    out[m + k, m + k] = f4


def assemble(g: LieAlgebra, *, Fbar1=None, u1=None, v1=None, f1=1, F3=None) -> Automorphism:
    """Build the full (4n+2) x (4n+2) automorphism of g = T*h(2n+1) from block data.

    Fbar1 : (2n, 2n) conformal symplectic matrix; fixes f4.
    u1, v1 : length-2n vectors (u1 must be zero unless n = 1).
    f1 : nonzero scalar.
    F3 : (2n+1, 2n+1) arbitrary matrix.

    A block left out is the identity's (Fbar1 = Id, f1 = 1, the others 0).
    The determined blocks (F4, u4, v4, f4) are filled in and bracket
    preservation is re-verified on every call before returning.  The
    blocks given choose the field (:func:`heiscot._exact.field_of`): exact
    blocks give an exact automorphism and check; if any block is float,
    all are coerced to float and checked at 1e-12.  The exact branch
    computes f4 and its conformal check, the singular-F1 test and the
    determined blocks over Python ints, each block over one common
    denominator, and builds their Fractions once; Fbar1^{-1} is
    :func:`heiscot._exact.inv`.  The float branch reads J from a cache and
    writes the blocks into the result.

    Raises
    ------
    ValueError
        If g is not T*h(2n+1), a block has the wrong shape, Fbar1 is not
        conformal symplectic, f1 = 0, F1 is singular, or the assembled
        matrix fails the bracket test (in particular for any nonzero u1
        with n >= 2).
    """
    n = g.n
    if n is None or g.dim != 4 * n + 2:
        raise ValueError("algebra dimension mismatch: assemble needs T*h(2n+1)")
    k = 2 * n
    m = k + 1
    shapes = {"Fbar1": (k, k), "u1": (k,), "v1": (k,), "f1": (), "F3": (m, m)}
    for name, block in zip(shapes, (Fbar1, u1, v1, f1, F3)):
        if block is not None and np.shape(block) != shapes[name]:
            raise ValueError(f"block {name} has shape {np.shape(block)}, "
                             f"expected {shapes[name]} for n = {n}")
    fld = field_of(Fbar1, u1, v1, f1, F3)
    fb1 = None if Fbar1 is None else fld.array(Fbar1)
    u1 = fld.zeros(k) if u1 is None else fld.array(u1)
    v1 = fld.zeros(k) if v1 is None else fld.array(v1)
    f1 = fld.scalar(f1)
    out = fld.zeros((2 * m, 2 * m))
    out[:k, :k] = fld.eye(k) if fb1 is None else fb1
    out[:k, k] = v1
    out[k, :k] = u1
    out[k, k] = f1
    if F3 is not None:
        out[m:, :m] = fld.array(F3)
    (_fill_exact if fld.exact else _fill_float)(out, n, fb1, u1, v1, f1)

    defect = bracket_defect(out, g)
    if not negligible(defect, 1e-12, out, power=2):
        hint = ""
        if n >= 2 and any(x != 0 for x in u1):
            hint = " (u1 must vanish for n >= 2: the center-pairing constraints admit no nonzero solution)"
        raise ValueError(f"assembled matrix fails bracket preservation, defect {defect}{hint}")
    return Automorphism(out)


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
    return assemble(g, Fbar1=fb1)


def random_conformal_symplectic(n: int, rng: np.random.Generator,
                                exact: bool = False) -> np.ndarray:
    """Random conformal symplectic matrix as lam * (product of symplectic transvections).

    A transvection E - c v (Jv)^T is exactly symplectic for every c and v,
    so integer draws give exact rational (even integer) samples; the overall
    scale lam contributes the conformal factor f4 = lam^2.  With c in
    {-1/2, 0, 1/2}, each factor is applied to an int matrix X over 2^t as
    the rank-one update 2X - 2c (Xv)(Jv)^T over 2^(t+1), O(d^2) where the
    dense product is O(d^3); lam in {1/2, 1, 3/2} leaves the result over
    16.  Each update multiplies the largest numerator by at most 2 + 8n, so the
    ints stay far inside int64 (below 10^6 at n = 5), and the float result
    is the same ints over 16.
    """
    j = standard_symplectic(n).astype(np.int64)
    x = np.eye(2 * n, dtype=np.int64)
    for _ in range(3):
        v = rng.integers(-2, 3, size=2 * n)
        c = int(rng.integers(-1, 2))
        x = 2 * x - c * np.outer(x @ v, j @ v)
    x = int(rng.integers(1, 4)) * x
    return _exact.from_ints(x, 16) if exact else x / 16


def random_automorphism(n: int, g: LieAlgebra, rng: np.random.Generator,
                        exact: bool = False) -> Automorphism:
    """Random automorphism drawn from rng; exact=True draws rational block data.

    For n >= 2, u1 is always zero (no other value assembles).
    Float draws are rejected while cond(F) > 3e4 so that pullback metrics
    keep roughly nine significant digits through downstream reductions.
    """
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
        try:
            aut = assemble(g, Fbar1=fb1, u1=u1, v1=v1, f1=f1, F3=f3)
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
