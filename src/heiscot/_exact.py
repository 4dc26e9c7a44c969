"""Exact rational linear algebra on numpy object arrays of Fractions.

Structural claims (dimension counts, solution-space identities, inertia)
must not depend on floating-point rank decisions, so everything here is
exact.  Matrices are numpy arrays with ``dtype=object``; numpy's ``@`` and
elementwise arithmetic work on those, while inversion, determinants,
nullspaces and inertia are implemented below.

Every elimination runs over Python ints, fraction-free after Bareiss
(Math. Comp. 22, 1968), and Fractions are built only for returned values.
:func:`inv` and :func:`det` share one Gauss-Jordan pass over rows scaled to
ints by the lcm of their denominators.  :func:`rank_sparse`,
:func:`rowspace_sparse` and :func:`nullspace_sparse` share one reduction
to reduced row echelon form of sparse rows (dicts mapping column index to
a nonzero rational coefficient; systems arising from structure constants
are extremely sparse and dense elimination would waste most of its work);
a float coefficient is a ``TypeError``.  :func:`ldl_inertia` eliminates
symmetrically over ints after scaling by one common denominator.

:func:`solution_space` is the one way the package states an exact
solution space: linear equations on the entries of a matrix (or vector),
over a list of unknown directions, each a matrix given by its nonzero
entries.  It maps the equations to sparse rows over the unknowns, solves
them with :func:`nullspace_sparse` and returns the basis as matrices.  The
center, the derivation algebra, the ad-invariant forms, the closed
J0-invariant 2-forms and the J0-invariant template metrics are all
stated this way.

:class:`SparseQ` is the product kernel behind the exact curvature and
bracket checks: a rational matrix held as dict-of-rows Python ints over one
common denominator.  Products, sums and the ad action then run over ints
and touch only the nonzero entries; Fractions appear again only when a
result is converted back to a dense array.  :func:`congruence_defect`
(max |F^T S F - P|) runs on it, and :func:`maxabs` is the one max-|entry|
helper of the package: exact on object arrays, float otherwise.

Arithmetic follows the input's type, and the choice is made here, once:
the operands choose the field.  :func:`field_of` returns :data:`EXACT`
(Fraction object arrays) when every operand is exact, an object array or
a :class:`numbers.Rational` scalar, and :data:`FLOAT` (float64) as soon as
one is a float or a float array, so a float never becomes a Fraction.
Only constructors that build from nothing name their field, with
:func:`field` (from a flag).  Both fields share one interface: ``zeros``,
``eye``, ``scalar`` and ``array`` coercion, ``inv`` and ``solve``.
Every zero test goes through :func:`negligible`, which also owns the
tolerance scale: an exact defect must be exactly zero and its operands are
never sized; a float one must lie within ``tol`` times the size of its
operands.  Outside it stay only tests of another kind: SVD rank and
condition cutoffs, strict absolute floors, ``signature``,
``is_automorphism``'s determinant floor, the residual-group search's
vectorized bound and ``curvature.is_flat``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

__all__ = [
    "fr",
    "fmat",
    "feye",
    "fzeros",
    "is_exact",
    "to_float",
    "require_finite",
    "EXACT",
    "FLOAT",
    "field",
    "field_of",
    "negligible",
    "maxabs",
    "inv",
    "solve",
    "det",
    "rank_sparse",
    "rowspace_sparse",
    "nullspace_sparse",
    "solution_space",
    "ldl_inertia",
    "SparseQ",
    "ad",
    "congruence_defect",
    "signed_permutation",
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
    """dtype=object array of Fractions with the shape of a nested sequence or
    array of ints, Fractions or 'p/q' strings; floats are rejected."""
    a = np.asarray(rows)
    out = np.empty(a.shape, dtype=object)
    for idx, x in np.ndenumerate(a):
        out[idx] = fr(x)
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


def require_finite(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first non-finite entries of a float array."""
    bad = np.argwhere(~np.isfinite(a)).tolist()
    if bad:
        more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
        raise ValueError(f"{what} has non-finite entries at {[tuple(i) for i in bad[:4]]}{more}")


class _ExactField:
    """Exact arithmetic: numpy object arrays of Fractions."""

    exact = True
    zeros = staticmethod(fzeros)
    eye = staticmethod(feye)
    scalar = Fraction
    array = staticmethod(fmat)

    @staticmethod
    def inv(a: np.ndarray) -> np.ndarray:
        # the module-level inv, looked up at call time, so that a wrapper
        # installed on it (the benchmark's tracer) sees every call
        return inv(a)

    @staticmethod
    def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return solve(a, b)


class _FloatField:
    """Float arithmetic: float64 arrays and numpy's linear algebra."""

    exact = False
    zeros = staticmethod(np.zeros)
    eye = staticmethod(np.eye)
    scalar = float
    array = staticmethod(to_float)
    inv = staticmethod(np.linalg.inv)
    solve = staticmethod(np.linalg.solve)


EXACT = _ExactField()
FLOAT = _FloatField()


def field(exact: bool):
    """:data:`EXACT` or :data:`FLOAT`."""
    return EXACT if exact else FLOAT


def field_of(*operands):
    """:data:`EXACT` when every operand that is not None is exact (an object
    array or a :class:`numbers.Rational` scalar: int, Fraction, numpy int),
    else :data:`FLOAT`."""
    return field(all(isinstance(x, numbers.Rational) or is_exact(np.asarray(x))
                     for x in operands if x is not None))


def negligible(defect, tol: float, *operands, power: int = 1) -> bool:
    """Whether a defect counts as zero.

    An exact defect (a :class:`numbers.Rational`: Fraction, int, numpy int)
    must equal 0, and nothing else is evaluated.  Any other defect must
    satisfy ``abs(float(defect)) <= tol * scale`` (which a NaN fails), with
    ``scale = max(1, max |entry| of each operand) ** power``: the size of
    the arrays the defect was computed from, to the degree it grows with them.
    A guard ``if not negligible(...): raise`` therefore raises on NaN.
    """
    if isinstance(defect, numbers.Rational):
        return defect == 0
    size = abs(float(defect))
    # the scale is at least 1, so a defect within tol needs no scale
    return size <= tol or size <= tol * max([1.0, *(float(maxabs(x)) for x in operands)]) ** power


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


def signed_permutation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) with m[:, j] = sign[j] e_{perm[j]}, as int arrays.

    Raises ValueError unless m is exactly a signed permutation matrix:
    square, one nonzero entry per column, equal to +1 or -1, and one per row.
    """
    m = np.asarray(m)
    d = len(m)
    cols, perm = np.nonzero(m.T)
    sign = m[perm, cols]
    if m.shape != (d, d) or not np.array_equal(cols, np.arange(d)) \
            or not np.array_equal(np.sort(perm), np.arange(d)) or not all(abs(x) == 1 for x in sign):
        raise ValueError("matrix is not a signed permutation")
    return perm, sign.astype(int)


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


def _gauss_jordan(work: list[list[int]]) -> tuple[int, int]:
    """Bareiss fraction-free Gauss-Jordan elimination of square-led int rows,
    in place: every row is reduced against every pivot with exact division
    by the previous one, and then drops its first entry, so the rows of
    [B | I] end as those of p B^{-1}.  Rows of B alone (no identity block)
    are only reduced below each pivot, forward Bareiss, since nothing reads
    the rows above.  Returns (sign of the row swaps, last pivot p), so
    det B = sign * p; (0, 0) when B is singular."""
    d = len(work)
    jordan = bool(work) and len(work[0]) > d
    sign, prev = 1, 1
    for col in range(d):
        piv = next((r for r in range(col, d) if work[r][0]), None)
        if piv is None:
            return 0, 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            sign = -sign
        prow = work[col]
        p = prow[0]
        tail = prow[1:]
        for r in range(0 if jordan else col, d):
            row = work[r]
            f = row[0]
            if r == col:
                work[r] = tail
            elif f:
                work[r] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
            else:
                work[r] = [p * x // prev for x in row[1:]]
        prev = p
    return sign, prev


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse: with A = diag(1/s) B for int B, [B | I] eliminates to
    [p I | p B^{-1}], so A^{-1}[i, j] = (p B^{-1})[i, j] s_j / p.

    Raises
    ------
    ValueError
        If the matrix is not square.
    ZeroDivisionError
        If the matrix is singular.
    """
    rows, scales = _int_rows(a)
    d = len(rows)
    work = [row + [int(i == j) for j in range(d)] for i, row in enumerate(rows)]
    _, p = _gauss_jordan(work)
    if not p:
        raise ZeroDivisionError("matrix is singular over the rationals")
    out = np.empty((d, d), dtype=object)
    for i, row in enumerate(work):
        out[i] = [Fraction(x * sc, p) for x, sc in zip(row, scales)]
    return out


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return inv(a) @ b


def det(a: np.ndarray) -> Fraction:
    """Exact determinant, det B / prod s_i for A = diag(1/s) B, by forward
    Bareiss: the elimination of :func:`inv` without its identity block.

    Raises
    ------
    ValueError
        If the matrix is not square.
    """
    work, scales = _int_rows(a)
    sign, p = _gauss_jordan(work)
    return Fraction(sign * p, prod(scales))


def _cancel(row: dict, prow: dict, col: int) -> dict:
    """p row - f prow, p = prow[col] and f = row[col] over their gcd, so
    column col cancels; zero entries dropped, divided by its content."""
    g = gcd(prow[col], row[col])
    p, f = prow[col] // g, row[col] // g
    out = {c: p * v for c, v in row.items()}
    for c, v in prow.items():
        out[c] = out.get(c, 0) - f * v
    out = {c: v for c, v in out.items() if v}
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _rref(rows) -> dict[int, dict[int, int]]:
    """Fraction-free reduced row echelon form of sparse rational rows.

    Each row is scaled to ints by the lcm of its denominators and reduced
    by :func:`_cancel`.  Returns {pivot column: int row}: the pivot is the
    row's least column and is zero in every other row, so row / row[pivot]
    is the unique reduced row echelon form.  TypeError on a coefficient
    that is not a :class:`numbers.Rational` (a float, say).
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if not all(isinstance(v, numbers.Rational) for v in row.values()):
            raise TypeError("exact elimination needs rational coefficients")
        sc = lcm(*(int(v.denominator) for v in row.values()))
        row = {c: int(v.numerator) * (sc // int(v.denominator)) for c, v in row.items() if v}
        # pivot rows vanish in each other's pivot columns: cancelling one brings in no other
        for col in [c for c in row if c in pivots]:
            row = _cancel(row, pivots[col], col)
        if row:
            col = min(row)
            for pcol, prow in pivots.items():
                if col in prow:
                    pivots[pcol] = _cancel(prow, row, col)
            pivots[col] = row
    return pivots


def rank_sparse(rows) -> int:
    """Exact rank of a system given as an iterable of sparse dict rows."""
    return len(_rref(rows))


def rowspace_sparse(rows, nvars: int) -> list[np.ndarray]:
    """Reduced row echelon basis of the span of sparse rational rows: one
    length-``nvars`` Fraction vector per pivot, in pivot order, pivot entry 1."""
    basis = []
    for col, row in sorted(_rref(rows).items()):
        vec = fzeros(nvars)
        for c, v in row.items():
            vec[c] = Fraction(v, row[col])
        basis.append(vec)
    return basis


def nullspace_sparse(rows, nvars: int) -> list[np.ndarray]:
    """Exact nullspace basis of a sparse homogeneous system.

    Parameters
    ----------
    rows : iterable of dict
        Each row maps column index to a nonzero rational coefficient
        (Fraction or int).
    nvars : int
        Number of variables (columns).

    Returns
    -------
    list of numpy object arrays
        One length-``nvars`` Fraction vector per free variable; the basis
        produced by setting each free variable to 1 in the reduced system.
    """
    pivots = _rref(rows)
    basis = []
    for fcol in (j for j in range(nvars) if j not in pivots):
        vec = fzeros(nvars)
        vec[fcol] = Fraction(1)
        for pcol, row in pivots.items():
            if fcol in row:
                vec[pcol] = Fraction(-row[fcol], row[pcol])
        basis.append(vec)
    return basis


def solution_space(equations, directions, shape) -> list[np.ndarray]:
    """Exact basis of the X = sum_k x_k D_k that satisfy every equation.

    Parameters
    ----------
    equations : iterable of iterables of (position, coefficient)
        Each states sum coefficient * X[position] = 0, with rational
        coefficients; a position may repeat within an equation.
    directions : list of dict
        ``directions[k]`` is D_k, the matrix that unknown k stands for, as
        {position: rational} over its nonzero entries (mostly +-1).
        Positions no direction touches are zero in every X.
    shape : tuple
        The shape of X; positions are indices into an array of that shape.

    Returns
    -------
    list of numpy object arrays
        sum_k vec[k] D_k for each vector of the :func:`nullspace_sparse`
        basis of the equations over the unknowns, in that order.
    """
    touching: dict = {}
    for k, dk in enumerate(directions):
        for pos, v in dk.items():
            touching.setdefault(pos, []).append((k, v))
    rows = []
    for eq in equations:
        row: dict = {}
        for pos, coef in eq:
            for k, v in touching.get(pos, ()):
                row[k] = row.get(k, 0) + coef * v
        row = {k: c for k, c in row.items() if c}
        if row:
            rows.append(row)
    out = []
    # a list, looked up at call time: the benchmark's tracer wraps this name and counts rows
    for vec in nullspace_sparse(rows, len(directions)):
        x = fzeros(shape)
        for k, c in enumerate(vec.tolist()):
            if c:
                for pos, v in directions[k].items():
                    x[pos] += c * v
        out.append(x)
    return out


def ldl_inertia(s: np.ndarray) -> tuple[int, int, int]:
    """Exact inertia (p, q, z) of a symmetric rational matrix.

    S is scaled to ints by one positive common denominator, and each pivot
    pv = A_kk is eliminated symmetrically: the Schur complement times
    |pv|, sign(pv) (pv A_rc - A_rk A_kc), divided by its content.  Every
    step is a congruence or a positive scaling, so the signature is
    preserved (Sylvester).  When the remaining diagonal vanishes but an
    off-diagonal entry A_ij does not, adding row and column j to row and
    column i makes the pivot 2 A_ij (valid in characteristic 0).
    """
    d = s.shape[0]
    den = lcm(*(x.denominator for x in s.ravel().tolist()))
    a = [[x.numerator * (den // x.denominator) for x in line] for line in s.tolist()]
    p = q = 0
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j]),
                        None)
            if pair is None:
                break
            k, j = pair
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        pv = a[k][k]
        if pv > 0:
            p, sg = p + 1, 1
        else:
            q, sg = q + 1, -1
        ak = [row[k] for row in a]
        rest = [r for r in range(len(a)) if r != k]
        a = [[sg * (pv * a[r][c] - ak[r] * ak[c]) for c in rest] for r in rest]
        g = gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return p, q, d - p - q


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
