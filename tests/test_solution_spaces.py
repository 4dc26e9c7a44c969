"""The exact solution spaces against row-by-row references.

Each reference below assembles its sparse system by hand, one row per
equation with its own unknown index map, and turns the nullspace vectors
back into matrices itself, the way the builders did before they stated
their conditions through ``_exact.solution_space``.  The reduced row
echelon form is unique for a given column order, so the same unknowns and
the same row span must give the same basis: entry by entry, in Fractions.
"""

import itertools
from fractions import Fraction

import pytest

from heiscot._exact import fzeros, nullspace_sparse, signed_permutation
from heiscot.adinvariant import ad_invariant_solution_space
from heiscot.complex_structures import standard_complex_structure
from heiscot.forms_kahler import closed_invariant_space
from heiscot.lie_core import build_thn, derivation_algebra


def _ref_derivations(g):
    d = g.dim
    lookup = g._lookup
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            for l in range(d):
                row: dict = {}
                for (k, v) in lookup.get((i, j), ()):
                    row[l * d + k] = row.get(l * d + k, Fraction(0)) + v
                for m in range(d):
                    for (kk, v) in lookup.get((m, j), ()):
                        if kk == l:
                            row[m * d + i] = row.get(m * d + i, Fraction(0)) - v
                    for (kk, v) in lookup.get((i, m), ()):
                        if kk == l:
                            row[m * d + j] = row.get(m * d + j, Fraction(0)) - v
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return [vec.reshape(d, d) for vec in nullspace_sparse(rows, d * d)]


def _ref_ad_invariant(g):
    d = g.dim
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    idx = {p: k for k, p in enumerate(pairs)}

    def sidx(a, b):
        return idx[(a, b)] if a <= b else idx[(b, a)]

    rows = []
    for x in range(d):
        for y in range(d):
            for w in range(y, d):
                row: dict = {}
                for (k, v) in g.bracket_sparse(x, y):
                    row[sidx(k, w)] = row.get(sidx(k, w), Fraction(0)) + v
                for (k, v) in g.bracket_sparse(x, w):
                    row[sidx(y, k)] = row.get(sidx(y, k), Fraction(0)) + v
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    basis = []
    for vec in nullspace_sparse(rows, len(pairs)):
        s = fzeros((d, d))
        for k, (a, b) in enumerate(pairs):
            s[a, b] = s[b, a] = vec[k]
        basis.append(s)
    return basis


def _ref_closed_invariant(n):
    g = build_thn(n)
    d = g.dim
    pairs = [(p, q) for p in range(d) for q in range(p + 1, d)]
    vidx = {pq: k for k, pq in enumerate(pairs)}

    def omcoef(p, q):
        if p == q:
            return None, 0
        return (vidx[(p, q)], 1) if p < q else (vidx[(q, p)], -1)

    rows = []
    for a, b, c in itertools.combinations(range(d), 3):
        row: dict = {}
        for (x, y, w, sgn) in ((a, b, c, -1), (a, c, b, 1), (b, c, a, -1)):
            for (k, v) in g.bracket_sparse(x, y):
                iv, s = omcoef(k, w)
                if s:
                    row[iv] = row.get(iv, Fraction(0)) + sgn * s * v
        rows.append(row)
    img, sgn = signed_permutation(standard_complex_structure(n))
    for p, q in pairs:
        row = {}
        for (iv, s), c in ((omcoef(img[p], img[q]), int(sgn[p] * sgn[q])), (omcoef(p, q), -1)):
            if s:
                row[iv] = row.get(iv, 0) + c * s
        rows.append(row)
    rows = [row for row in ({k: v for k, v in row.items() if v} for row in rows) if row]
    basis = []
    for vec in nullspace_sparse(rows, len(pairs)):
        m = fzeros((d, d))
        for (p, q), k in vidx.items():
            m[p, q], m[q, p] = vec[k], -vec[k]
        basis.append(m)
    return basis


def _assert_same(got, ref):
    assert len(got) == len(ref) > 0
    for x, y in zip(got, ref):
        assert x.shape == y.shape
        assert all(type(u) is Fraction and u == v for u, v in zip(x.ravel(), y.ravel()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivation_algebra_matches_reference(algebras, n):
    _assert_same(derivation_algebra(algebras[n]), _ref_derivations(algebras[n]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ad_invariant_space_matches_reference(algebras, n):
    _assert_same(ad_invariant_solution_space(algebras[n]), _ref_ad_invariant(algebras[n]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_invariant_space_matches_reference(n):
    _assert_same(closed_invariant_space(n), _ref_closed_invariant(n))
