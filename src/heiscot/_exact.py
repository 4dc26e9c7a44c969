"""Exact rational linear algebra on numpy object arrays of Fractions.

Structural claims (dimension counts, solution-space identities, inertia)
must not depend on floating-point rank decisions, so everything here runs
over ``fractions.Fraction``.  Matrices are numpy arrays with ``dtype=object``;
numpy's ``@`` and elementwise arithmetic work on those, while inversion,
determinants, nullspaces and inertia are implemented below.  :func:`inv`
and :func:`det` are fraction-free: each row is scaled to ints by the lcm
of its denominators, eliminated over ints with exact division (Bareiss,
Math. Comp. 22, 1968), and Fractions are built once per output entry.

The sparse row format used by :func:`nullspace_sparse` is a dict mapping
column index to a nonzero Fraction; systems arising from structure constants
are extremely sparse and dense elimination would waste most of its work.

:class:`SparseQ` is the product kernel behind the exact curvature and
bracket checks: a rational matrix held as dict-of-rows Python ints over one
common denominator.  Products, sums and the ad action then run over ints
(Bareiss's fraction-free idea, Math. Comp. 22, 1968) and touch only the
nonzero entries; Fractions appear again only when a result is converted
back to a dense array.  :func:`congruence_defect` (max |F^T S F - P|) runs
on it, and :func:`maxabs` is the one max-|entry| helper of the package:
exact on object arrays, float otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

__all__ = [
    "fr",
    "fmat",
    "fvec",
    "feye",
    "fzeros",
    "is_exact",
    "to_float",
    "maxabs",
    "inv",
    "solve",
    "det",
    "rank_sparse",
    "nullspace_sparse",
    "ldl_inertia",
    "SparseQ",
    "ad",
    "congruence_defect",
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


def maxabs(a):
    """max |entry| of an array: exact on object input, a float otherwise; 0 when empty.

    Object input skips its zero entries, so an all-zero array gives Fraction(0).
    """
    a = np.asarray(a)
    if is_exact(a):
        return max((abs(x) for x in a.ravel().tolist() if x), default=Fraction(0))
    return float(np.abs(a).max()) if a.size else 0.0


def congruence_defect(f: np.ndarray, s: np.ndarray, p: np.ndarray):
    """max |F^T S F - P|; exact, over :class:`SparseQ`, when all three are exact."""
    if is_exact(f) and is_exact(s) and is_exact(p):
        fq = SparseQ.from_dense(f)
        return (fq.T @ SparseQ.from_dense(s) @ fq - SparseQ.from_dense(p)).maxabs()
    return maxabs(f.T @ s @ f - p)


def _int_rows(a: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """(rows, scales) of a square exact matrix: rows[i] = a[i] * scales[i] as ints,
    scales[i] the lcm of row i's denominators.  ValueError if not square."""
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("expected a square matrix")
    rows, scales = [], []
    for line in a.tolist():
        sc = lcm(*(x.denominator for x in line))
        rows.append([x.numerator * (sc // x.denominator) for x in line])
        scales.append(sc)
    return rows, scales


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse by fraction-free Gauss-Jordan elimination over ints.

    With A = diag(1/s) B for int B, eliminating [B | I] with Bareiss's exact
    division keeps every entry an int minor of B and ends at
    [D I | D B^{-1}], D = +-det B; so A^{-1}[i, j] = (D B^{-1})[i, j] s_j / D.

    Raises
    ------
    ValueError
        If the matrix is not square.
    ZeroDivisionError
        If the matrix is singular.
    """
    rows, scales = _int_rows(a)
    d = len(rows)
    # row r holds columns col..d-1 of the left block, then the right block;
    # after step col the left column col is p e_col and is dropped
    work = [row + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if work[r][0]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular over the rationals")
        work[col], work[piv] = work[piv], work[col]
        prow = work[col]
        p = prow[0]
        tail = prow[1:]
        for r, row in enumerate(work):
            f = row[0]
            if r == col:
                work[r] = tail
            elif f:
                work[r] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
            else:
                work[r] = [p * x // prev for x in row[1:]]
        prev = p
    out = np.empty((d, d), dtype=object)
    for i, row in enumerate(work):
        out[i] = [Fraction(x * sc, prev) for x, sc in zip(row, scales)]
    return out


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return inv(a) @ b


def det(a: np.ndarray) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination over ints:
    det A = det B / prod s_i for A = diag(1/s) B with B an int matrix.

    Raises
    ------
    ValueError
        If the matrix is not square.
    """
    work, scales = _int_rows(a)
    d = len(work)
    # after step col the rows below the pivot drop their (now zero) first entry
    sign, prev = 1, 1
    for col in range(d):
        piv = next((r for r in range(col, d) if work[r][0]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        prow = work[col]
        p = prow[0]
        tail = prow[1:]
        for r in range(col + 1, d):
            row = work[r]
            f = row[0]
            work[r] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
        prev = p
    return Fraction(sign * prev, prod(scales))


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
    constants enter as ints through ``g.int_constants``, so ``x`` holds ints.
    """
    dc, table = g.int_constants
    rows: dict = {}
    for i, xi in x.items():
        if not xi:
            continue
        for j in range(g.dim):
            for k, u in table.get((i, j), ()):
                row = rows.setdefault(k, {})
                row[j] = row.get(j, 0) + xi * u
    return SparseQ(rows, den * dc)
