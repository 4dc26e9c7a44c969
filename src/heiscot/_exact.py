"""Exact rational linear algebra on numpy object arrays of Fractions.

Structural claims (dimension counts, solution-space identities, inertia)
must not depend on floating-point rank decisions, so everything here runs
over ``fractions.Fraction``.  Matrices are numpy arrays with ``dtype=object``;
numpy's ``@`` and elementwise arithmetic work on those, while inversion,
nullspaces and inertia are implemented below.

The sparse row format used by :func:`nullspace_sparse` is a dict mapping
column index to a nonzero Fraction; systems arising from structure constants
are extremely sparse and dense elimination would waste most of its work.

:class:`SparseQ` is the product kernel behind the exact curvature and
bracket checks: a rational matrix held as dict-of-rows Python ints over one
common denominator.  Products, sums and the ad action then run over ints
(Bareiss's fraction-free idea, Math. Comp. 22, 1968) and touch only the
nonzero entries; Fractions appear again only when a result is converted
back to a dense array.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

__all__ = [
    "fr",
    "fmat",
    "fvec",
    "feye",
    "fzeros",
    "is_exact",
    "to_float",
    "inv",
    "solve",
    "det",
    "rank_sparse",
    "nullspace_sparse",
    "ldl_inertia",
    "SparseQ",
    "ad",
]


def fr(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


def fmat(rows) -> np.ndarray:
    """Build a dtype=object matrix of Fractions from a nested sequence."""
    rows = [[fr(x) for x in row] for row in rows]
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def fvec(entries) -> np.ndarray:
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = fr(x)
    return out


def fzeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def feye(d: int) -> np.ndarray:
    out = fzeros((d, d))
    for i in range(d):
        out[i, i] = Fraction(1)
    return out


def is_exact(a) -> bool:
    return isinstance(a, np.ndarray) and a.dtype == object


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float)


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse by Gauss-Jordan elimination.

    Raises
    ------
    ZeroDivisionError
        If the matrix is singular.
    """
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("inv expects a square matrix")
    work = a.copy()
    out = feye(d)
    for col in range(d):
        piv = next((r for r in range(col, d) if work[r, col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular over the rationals")
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            out[[col, piv]] = out[[piv, col]]
        p = work[col, col]
        work[col] = work[col] / p
        out[col] = out[col] / p
        for r in range(d):
            if r != col and work[r, col] != 0:
                f = work[r, col]
                work[r] = work[r] - f * work[col]
                out[r] = out[r] - f * out[col]
    return out


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return inv(a) @ b


def det(a: np.ndarray) -> Fraction:
    """Exact determinant by fraction-free-ish row elimination."""
    d = a.shape[0]
    work = a.copy()
    out = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if work[r, col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[[col, piv]] = work[[piv, col]]
            out = -out
        p = work[col, col]
        out *= p
        for r in range(col + 1, d):
            if work[r, col] != 0:
                work[r] = work[r] - (work[r, col] / p) * work[col]
    return out


def _eliminate(rows):
    """Forward elimination of sparse dict rows; returns {pivot_col: row}."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col in pivots:
                piv = pivots[col]
                f = row[col] / piv[col]
                for cc, vv in piv.items():
                    nv = row.get(cc, Fraction(0)) - f * vv
                    if nv:
                        row[cc] = nv
                    elif cc in row:
                        del row[cc]
            else:
                pivots[col] = row
                break
    return pivots


def rank_sparse(rows) -> int:
    """Exact rank of a system given as an iterable of sparse dict rows."""
    return len(_eliminate(rows))


def nullspace_sparse(rows, nvars: int) -> list[np.ndarray]:
    """Exact nullspace basis of a sparse homogeneous system.

    Parameters
    ----------
    rows : iterable of dict
        Each row maps column index to a nonzero Fraction coefficient.
    nvars : int
        Number of variables (columns).

    Returns
    -------
    list of numpy object arrays
        One length-``nvars`` Fraction vector per free variable; the basis
        produced by setting each free variable to 1 in the reduced system.
    """
    pivots = _eliminate(rows)
    # back substitution to reduced row echelon form
    cols = sorted(pivots)
    for idx in range(len(cols) - 1, -1, -1):
        col = cols[idx]
        piv = pivots[col]
        piv = {k: v / piv[col] for k, v in piv.items()}
        pivots[col] = piv
        for col2 in cols[:idx]:
            r2 = pivots[col2]
            if col in r2:
                f = r2[col]
                for cc, vv in piv.items():
                    nv = r2.get(cc, Fraction(0)) - f * vv
                    if nv:
                        r2[cc] = nv
                    elif cc in r2:
                        del r2[cc]
                pivots[col2] = r2
    free = [j for j in range(nvars) if j not in pivots]
    basis = []
    for fcol in free:
        vec = fzeros(nvars)
        vec[fcol] = Fraction(1)
        for pcol, row in pivots.items():
            if fcol in row:
                vec[pcol] = -row[fcol]
        basis.append(vec)
    return basis


def ldl_inertia(s: np.ndarray) -> tuple[int, int, int]:
    """Exact inertia (p, q, z) of a symmetric rational matrix.

    Symmetric elimination with rational pivots; a congruence at every step,
    so the signature is preserved (Sylvester).  When the remaining diagonal
    vanishes but an off-diagonal entry does not, the row/column addition
    trick manufactures a nonzero diagonal pivot (valid in characteristic 0).
    """
    d = s.shape[0]
    work = s.copy()
    alive = list(range(d))
    p = q = z = 0
    while alive:
        piv_i = next((i for i in alive if work[i, i] != 0), None)
        if piv_i is None:
            pair = next(
                ((i, j) for ii, i in enumerate(alive) for j in alive[ii + 1:] if work[i, j] != 0),
                None,
            )
            if pair is None:
                z += len(alive)
                break
            i, j = pair
            work[i, :] = work[i, :] + work[j, :]
            work[:, i] = work[:, i] + work[:, j]
            piv_i = i
        pv = work[piv_i, piv_i]
        if pv > 0:
            p += 1
        else:
            q += 1
        alive.remove(piv_i)
        for r in alive:
            if work[r, piv_i] != 0:
                f = work[r, piv_i] / pv
                work[r, :] = work[r, :] - f * work[piv_i, :]
                work[:, r] = work[:, r] - f * work[:, piv_i]
    return p, q, z


class SparseQ:
    """Rational matrix ``rows[r][c] / den`` with Python-int entries.

    Absent entries are zero and ``den`` is one positive int shared by every
    entry, so sums and products run over ints and touch only the nonzero
    entries.  Nothing is reduced until :meth:`dense` builds Fractions, which
    therefore equal the dense Fraction computation entry by entry.  Row and
    column keys are the integer indices of the dense matrix.
    """

    __slots__ = ("rows", "den")

    def __init__(self, rows: dict, den: int = 1):
        self.rows = rows
        self.den = den

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SparseQ":
        """Scale a 2-D exact array by the lcm of its denominators."""
        rows = {}
        for r, line in enumerate(a.tolist()):
            row = {c: x for c, x in enumerate(line) if x}
            if row:
                rows[r] = row
        den = lcm(*(x.denominator for row in rows.values() for x in row.values()))
        for row in rows.values():
            for c, x in row.items():
                row[c] = x.numerator * (den // x.denominator)
        return cls(rows, den)

    def dense(self, shape: tuple) -> np.ndarray:
        """Dense Fraction array of the given shape."""
        out = fzeros(shape)
        for r, row in self.rows.items():
            for c, v in row.items():
                if v:
                    out[r, c] = Fraction(v, self.den)
        return out

    @property
    def T(self) -> "SparseQ":
        out: dict = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v
        return SparseQ(out, self.den)

    def __matmul__(self, other: "SparseQ") -> "SparseQ":
        out = {}
        right = other.rows
        for r, row in self.rows.items():
            acc: dict = {}
            for k, v in row.items():
                for c, w in right.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            if acc:
                out[r] = acc
        return SparseQ(out, self.den * other.den)

    def __add__(self, other: "SparseQ") -> "SparseQ":
        den = lcm(self.den, other.den)
        out = (den // self.den) * self
        scale = den // other.den
        for r, row in other.rows.items():
            acc = out.rows.setdefault(r, {})
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + scale * v
        return SparseQ(out.rows, den)

    def __rmul__(self, c) -> "SparseQ":
        """Scalar multiple by an int or a Fraction."""
        num, den = c.numerator, c.denominator
        return SparseQ({r: {k: num * v for k, v in row.items()} for r, row in self.rows.items()},
                       self.den * den)

    def __sub__(self, other: "SparseQ") -> "SparseQ":
        return self + (-1) * other

    def maxabs(self) -> Fraction:
        """max |entry|, exactly."""
        return Fraction(max((abs(v) for row in self.rows.values() for v in row.values()),
                            default=0), self.den)

    def trace_of_product(self, other: "SparseQ") -> Fraction:
        """tr(self @ other), exactly, without forming the product."""
        acc = 0
        for r, row in self.rows.items():
            for k, v in row.items():
                acc += v * other.rows.get(k, {}).get(r, 0)
        return Fraction(acc, self.den * other.den)


def ad(g, x: dict, den: int = 1) -> SparseQ:
    """Matrix of ad(v) for v = sum_i x[i] b_i / den: column j holds [v, b_j].

    ``g`` is a :class:`~heiscot.lie_core.LieAlgebra`; its structure
    constants enter through ``bracket_sparse``, over their common
    denominator, so ``x`` holds ints.
    """
    dc = lcm(*(c.denominator for *_, c in g.constants))
    rows: dict = {}
    for i, xi in x.items():
        if not xi:
            continue
        for j in range(g.dim):
            for k, c in g.bracket_sparse(i, j):
                row = rows.setdefault(k, {})
                row[j] = row.get(j, 0) + xi * c.numerator * (dc // c.denominator)
    return SparseQ(rows, den * dc)
