"""Structure constants for the Heisenberg algebra and its cotangent algebra.

The cotangent algebra T*h(2n+1) is the semidirect product h ltimes h* by the
coadjoint action ad*(x)(phi) = -phi([x, .]).  With the basis ordered as

    e_1..e_n, f_1..f_n, z*, e*_1..e*_n, f*_1..f*_n, z        (dim 4n+2)

the nonzero brackets are

    [e_i, f_i] = z,    [z*, e_i] = f*_i,    [z*, f_i] = -e*_i.

The signs on the z* brackets are the ones forced by the coadjoint action once
[e_i, f_i] = z is fixed; they are exactly the signs that make the duality
pairing <x + phi, y + psi> = phi(y) + psi(x) an ad-invariant metric, which is
the property everything downstream relies on.  Under this convention the
symplectic pairing that the automorphism theory sees on span(e, f) is
omega(x, y) = (Jx)^T y with J = [[0, -E], [E, 0]].

All structural computations (Jacobi, center, derivations) run over exact
rationals; floats only appear when a caller asks for the dense float tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm

import numpy as np

from . import _exact
from ._exact import field

__all__ = [
    "LieAlgebra",
    "build_heisenberg",
    "build_thn",
    "cotangent_algebra",
    "cotangent_reorder_permutation",
    "relabel",
    "standard_symplectic",
    "derivation_algebra",
    "n_of",
]


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by sparse structure constants.

    Parameters
    ----------
    dim : int
        Dimension of the underlying vector space.
    constants : tuple of (i, j, k, Fraction)
        Entries with i < j only; [b_i, b_j] = sum_k c_ijk b_k and the
        antisymmetric counterpart is implied.
    basis_names : tuple of str
    n : int or None
        The Heisenberg parameter when the algebra is h(2n+1) or T*h(2n+1).
    """

    dim: int
    constants: tuple
    basis_names: tuple
    n: int | None = None

    def __post_init__(self):
        for (i, j, k, v) in self.constants:
            if not (0 <= i < j < self.dim and 0 <= k < self.dim):
                raise ValueError(f"bad structure-constant index ({i},{j},{k})")
            if not isinstance(v, Fraction):
                raise TypeError("structure constants must be Fractions")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Hash of the fields, computed once: the algebra keys the ``functools.cache`` tables."""
        return hash((self.dim, self.constants, self.basis_names, self.n))

    @cached_property
    def _lookup(self) -> dict:
        """(i, j) -> list of (k, value), both orientations."""
        table: dict = {}
        for (i, j, k, v) in self.constants:
            table.setdefault((i, j), []).append((k, v))
            table.setdefault((j, i), []).append((k, -v))
        return table

    @cached_property
    def int_constants(self) -> tuple:
        """The structure constants as ints over their common denominator.

        ``(dc, table)``: ``table[i, j]`` lists the (k, u) with
        [b_i, b_j] = sum u b_k / dc, in both orientations and in the order
        of :attr:`_lookup`.  The exact kernels (``_exact.ad``, the
        Nijenhuis pass) run on these ints.
        """
        dc = lcm(*(v.denominator for *_, v in self.constants))
        table = {ij: [(k, v.numerator * (dc // v.denominator)) for (k, v) in terms]
                 for ij, terms in self._lookup.items()}
        return dc, table

    @cached_property
    def structure_tensor(self) -> np.ndarray:
        """Dense float tensor C with C[i, j, k] = c_ijk.

        The float kernels (``bracket``, ``ad_matrix``, the Nijenhuis routes,
        bracket preservation, the h-form of the complex normalization)
        contract it with vectors and matrices instead of walking the
        constants in Python.  Read-only, because the algebra and its caches
        are shared.
        """
        c = np.zeros((self.dim, self.dim, self.dim))
        for (i, j, k, v) in self.constants:
            c[i, j, k] += float(v)
            c[j, i, k] -= float(v)
        c.flags.writeable = False
        return c

    def bracket_sparse(self, i: int, j: int) -> tuple:
        """Nonzero terms of [b_i, b_j] as (index, Fraction) pairs."""
        return tuple(self._lookup.get((i, j), ()))

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bracket of two coordinate vectors; exact iff both inputs are object arrays.

        Float (and mixed or int) input is ad(a) b, with ad(a) contracted
        from :attr:`structure_tensor` as in :meth:`ad_matrix`.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != (self.dim,) or b.shape != (self.dim,):
            raise ValueError("element dimension mismatch")
        if _exact.is_exact(a) and _exact.is_exact(b):
            y = _exact.SparseQ.from_dense(b[:, None])
            return (self._ad_sparse(a) @ y).dense((self.dim, 1)).ravel()
        return self._ad_float(a) @ np.asarray(b, dtype=float)

    def ad_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of ad(a): column j is [a, b_j].

        Exact input runs on :class:`SparseQ`; any other input contracts a
        with the structure tensor, ad(a)[k, j] = sum_i a_i C[i, j, k], in
        one float64 product.
        """
        a = np.asarray(a)
        if a.shape != (self.dim,):
            raise ValueError("element dimension mismatch")
        if _exact.is_exact(a):
            return self._ad_sparse(a).dense((self.dim, self.dim))
        return self._ad_float(a)

    def _ad_float(self, a: np.ndarray) -> np.ndarray:
        """ad(a) as a float64 matrix, (a @ C.reshape(d, d*d)).reshape(d, d).T."""
        d = self.dim
        c = self.structure_tensor.reshape(d, d * d)
        return (np.asarray(a, dtype=float) @ c).reshape(d, d).T

    def _ad_sparse(self, a: np.ndarray) -> "_exact.SparseQ":
        """ad(a) of an exact coordinate vector as a sparse integer matrix."""
        x = _exact.SparseQ.from_dense(a[None, :])
        return _exact.ad(self, x.rows.get(0, {}), x.den)

    def center(self) -> list[np.ndarray]:
        """Exact basis of the center, as Fraction coordinate vectors: the v with
        sum_j c_ij^k v_j = 0 for every i and k, over the unit vectors."""
        eqs = []
        for i in range(self.dim):
            byk: dict = {}
            for j in range(self.dim):
                for (k, v) in self._lookup.get((i, j), ()):
                    byk.setdefault(k, []).append((j, v))
            eqs += byk.values()
        return _exact.solution_space(eqs, [{j: 1} for j in range(self.dim)], (self.dim,))

    def derived_subalgebra(self) -> list[np.ndarray]:
        """Exact basis of [g, g] (span of all basis brackets): its reduced row
        echelon basis, one Fraction vector per pivot with pivot entry 1."""
        vecs = [{k: v for (k, v) in self._lookup[(i, j)] if v} for (i, j, _, _) in self.constants]
        return _exact.rowspace_sparse(vecs, self.dim)

    def jacobi_defect(self) -> Fraction:
        """Max |coefficient| of the cyclic Jacobi sum over all basis triples; 0 iff Jacobi holds."""
        worst = Fraction(0)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc: dict = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for (m, v) in self._lookup.get((b, c), ()):
                            for (l, w) in self._lookup.get((a, m), ()):
                                acc[l] = acc.get(l, 0) + v * w
                    worst = max([worst, *map(abs, acc.values())])
        return worst

    def is_two_step_nilpotent(self) -> bool:
        """True iff [g, [g, g]] = 0, checked exhaustively over basis brackets."""
        for (i, j, _, _) in self.constants:
            for a in range(self.dim):
                inner: dict = {}
                for (k, v) in self._lookup[(i, j)]:
                    for (l, w) in self._lookup.get((a, k), ()):
                        inner[l] = inner.get(l, 0) + v * w
                if any(inner.values()):
                    return False
        return True


def build_heisenberg(n: int) -> LieAlgebra:
    """Heisenberg algebra h(2n+1): basis e_1..e_n, f_1..f_n, z with [e_i, f_i] = z."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 * n + 1
    constants = tuple((i, n + i, 2 * n, Fraction(1)) for i in range(n))
    names = tuple(
        [f"e{i+1}" for i in range(n)] + [f"f{i+1}" for i in range(n)] + ["z"]
    )
    return LieAlgebra(dim=dim, constants=constants, basis_names=names, n=n)


@cache
def build_thn(n: int) -> LieAlgebra:
    """Cotangent algebra T*h(2n+1), dim 4n+2, in the basis order documented above.

    Nonzero brackets: [e_i, f_i] = z, [z*, e_i] = f*_i, [z*, f_i] = -e*_i.
    Two-step nilpotent; center = derived subalgebra = span(e*_i, f*_i, z).
    Memoized: every call with the same n returns the same (frozen) algebra,
    so its cached tables are built once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 4 * n + 2
    zs = 2 * n
    z = 4 * n + 1
    constants = []
    for i in range(n):
        e, f, es, fs = i, n + i, 2 * n + 1 + i, 3 * n + 1 + i
        constants.append((e, f, z, Fraction(1)))
        # zs < e, f never holds in this ordering; store with sorted indices
        constants.append((e, zs, fs, Fraction(-1)))   # [e_i, z*] = -f*_i
        constants.append((f, zs, es, Fraction(1)))    # [f_i, z*] = e*_i
    names = tuple(
        [f"e{i+1}" for i in range(n)]
        + [f"f{i+1}" for i in range(n)]
        + ["z*"]
        + [f"e*{i+1}" for i in range(n)]
        + [f"f*{i+1}" for i in range(n)]
        + ["z"]
    )
    return LieAlgebra(dim=dim, constants=tuple(sorted(constants)), basis_names=names, n=n)


def n_of(a) -> int:
    """n of a (4n+2) x (4n+2) operand, n >= 1; ValueError naming the shape of any other."""
    shape = np.shape(a)
    d = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
    if d < 6 or d % 4 != 2:
        raise ValueError(f"operand of shape {shape} is not (4n+2) x (4n+2) for any n >= 1")
    return (d - 2) // 4


def _merged(constants) -> tuple:
    """Constants (i, j, k, v) as LieAlgebra stores them: each oriented to
    i < j with its sign, duplicates summed, zeros dropped, sorted."""
    merged: dict = {}
    for (i, j, k, v) in constants:
        if i > j:
            i, j, v = j, i, -v
        merged[(i, j, k)] = merged.get((i, j, k), Fraction(0)) + v
    return tuple((i, j, k, v) for (i, j, k), v in sorted(merged.items()) if v)


def cotangent_algebra(g: LieAlgebra) -> LieAlgebra:
    """Semidirect product g ltimes g* by the coadjoint action.

    Basis: g's basis followed by the dual basis.  Brackets:
    [x, y] as in g; [x, b^j] = ad*(x) b^j with ad*(x)(phi) = -phi([x, .]);
    [g*, g*] = 0.  For g = h(2n+1) the result equals build_thn(n) after the
    reordering permutation from :func:`cotangent_reorder_permutation`.
    """
    d = g.dim
    constants = list(g.constants)
    # [b_i, b^j]: (ad*(b_i) b^j)(b_m) = -b^j([b_i, b_m]) = -c_im^j
    for (i, m), terms in g._lookup.items():
        for (j, v) in terms:
            # contributes -v * b^m to [b_i, b^j]
            a, b = i, d + j
            constants.append((a, b, d + m, -v))
    names = tuple(list(g.basis_names) + [f"{s}*" for s in g.basis_names])
    return LieAlgebra(dim=2 * d, constants=_merged(constants), basis_names=names, n=g.n)


def cotangent_reorder_permutation(n: int) -> list[int]:
    """perm[i] = position in build_thn order of basis vector i of cotangent_algebra(h).

    cotangent_algebra(build_heisenberg(n)) orders the basis as
    (e, f, z, e*, f*, z*); build_thn uses (e, f, z*, e*, f*, z).  The two
    differ by swapping z and z*.
    """
    perm = list(range(4 * n + 2))
    perm[2 * n] = 4 * n + 1
    perm[4 * n + 1] = 2 * n
    return perm


def relabel(g: LieAlgebra, perm: list[int]) -> LieAlgebra:
    """Reindex basis vectors: new index of old b_i is perm[i]; names move along."""
    out = _merged((perm[i], perm[j], perm[k], v) for (i, j, k, v) in g.constants)
    names = [None] * g.dim
    for i, s in enumerate(g.basis_names):
        names[perm[i]] = s
    return LieAlgebra(dim=g.dim, constants=out, basis_names=tuple(names), n=g.n)


def standard_symplectic(n: int, exact: bool = False) -> np.ndarray:
    """The 2n x 2n matrix J = [[0, -E], [E, 0]]; J^2 = -E, J^T = -J."""
    fld = field(exact)
    j = fld.zeros((2 * n, 2 * n))
    one = fld.scalar(1)
    for i in range(n):
        j[i, n + i] = -one
        j[n + i, i] = one
    return j


def derivation_algebra(g: LieAlgebra) -> list[np.ndarray]:
    """Exact basis of Der(g): all D with D[b_i,b_j] = [Db_i,b_j] + [b_i,Db_j].

    One equation per pair i < j and component l, over the d^2 unit
    matrices E_lm in row-major order.  Returns dtype=object matrices.
    """
    d = g.dim
    lookup = g._lookup

    def equations():
        for i in range(d):
            for j in range(i + 1, d):
                # component l of D[b_i,b_j] - [Db_i,b_j] - [b_i,Db_j]
                eqs = [[((l, k), v) for (k, v) in lookup.get((i, j), ())] for l in range(d)]
                for m in range(d):
                    for (l, v) in lookup.get((m, j), ()):
                        eqs[l].append(((m, i), -v))
                    for (l, v) in lookup.get((i, m), ()):
                        eqs[l].append(((m, j), -v))
                yield from eqs

    units = [{(l, m): 1} for l in range(d) for m in range(d)]
    return _exact.solution_space(equations(), units, (d, d))
