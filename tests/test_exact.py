"""Exact rational linear algebra helpers."""

from fractions import Fraction

import numpy as np
import pytest

from heiscot import _exact
from heiscot._exact import (
    det,
    feye,
    fmat,
    fr,
    inv,
    is_exact,
    ldl_inertia,
    nullspace_sparse,
    rank_sparse,
    rowspace_sparse,
    signed_permutation,
    solution_space,
    solve,
    to_float,
)


def test_fr_rejects_floats():
    with pytest.raises(TypeError):
        fr(0.5)
    assert fr(3) == Fraction(3)
    assert fr(Fraction(1, 3)) == Fraction(1, 3)


def test_inv_and_solve_roundtrip():
    a = fmat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    ai = inv(a)
    assert (to_float(a @ ai) == np.eye(3)).all()
    b = fmat([[1], [0], [2]])
    x = solve(a, b)
    assert (to_float(a @ x - b) == 0).all()


def test_inv_singular_raises():
    a = fmat([[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        inv(a)


def test_det_matches_cofactor_oracle():
    a = fmat([[1, 2, 3], [0, 4, 5], [1, 0, 6]])
    # 1*(24-0) - 2*(0-5) + 3*(0-4) = 24 + 10 - 12
    assert det(a) == Fraction(22)


def test_nullspace_sparse_known_kernel():
    # x + y = 0, y + z = 0  ->  kernel spanned by (1, -1, 1)
    rows = [{0: fr(1), 1: fr(1)}, {1: fr(1), 2: fr(1)}]
    basis = nullspace_sparse(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] == v[2] != 0


def test_det_of_permutations_and_singular_matrices():
    swap = fmat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert det(swap) == -1
    assert det(fmat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])) == 1
    assert det(fmat([[1, 2], [2, 4]])) == 0
    assert det(fmat([[0, 1], [0, 3]])) == 0
    assert det(fmat([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)


# 3x + y + 7z = 0, x + 2y + 5z = 0, and their sum: rank 2, kernel (-9/5, -8/5, 1)
INT_ROWS = [{0: 3, 1: 1, 2: 7}, {0: 1, 1: 2, 2: 5}, {0: 4, 1: 3, 2: 12}]


@pytest.mark.parametrize("kind", [Fraction, int, np.int64])
def test_sparse_solvers_are_exact_for_any_rational_coefficients(kind):
    rows = [{c: kind(v) for c, v in row.items()} for row in INT_ROWS]
    assert rank_sparse(rows) == 2
    (v,) = nullspace_sparse(rows, 3)
    assert v.tolist() == [Fraction(-9, 5), Fraction(-8, 5), Fraction(1)]
    assert all(type(x) is Fraction for x in v)
    assert [r.tolist() for r in rowspace_sparse(rows, 3)] == [
        [1, 0, Fraction(9, 5)], [0, 1, Fraction(8, 5)]]


def test_sparse_solvers_reject_float_coefficients():
    rows = [{0: 3.0, 1: 1, 2: 7}, {0: 1, 1: 2, 2: 5}]
    with pytest.raises(TypeError):
        nullspace_sparse(rows, 3)
    with pytest.raises(TypeError):
        rank_sparse(rows)


def test_nullspace_sparse_rational_rows_and_zero_rows():
    # (1/2) x - (1/3) y = 0 and a row that cancels to zero: kernel (2/3, 1, 0), (0, 0, 1)
    rows = [{0: Fraction(1, 2), 1: Fraction(-1, 3)}, {0: Fraction(3), 1: Fraction(-2)}]
    basis = nullspace_sparse(rows, 3)
    assert [v.tolist() for v in basis] == [[Fraction(2, 3), 1, 0], [0, 0, 1]]
    assert rank_sparse(rows) == 1


def test_ldl_inertia_signature():
    a = fmat([[2, 0, 0], [0, -3, 0], [0, 0, 0]])
    assert ldl_inertia(a) == (1, 1, 1)
    b = fmat([[0, 1], [1, 0]])   # hyperbolic plane, needs a pivot swap
    assert ldl_inertia(b) == (1, 1, 0)


def test_is_exact_discriminates():
    assert is_exact(feye(2))
    assert not is_exact(np.eye(2))


def _eig_inertia(s):
    w = np.linalg.eigvalsh(to_float(s))
    tol = 1e-9 * max(1.0, np.abs(w).max())
    return int((w > tol).sum()), int((w < -tol).sum()), int((np.abs(w) <= tol).sum())


def _seeded_symmetric(seed):
    """Q^T D Q for an integer D (zeros included) and a unimodular integer Q,
    then on every third seed an all-zero-diagonal hyperbolic form [[0, B], [B^T, 0]]."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    if seed % 3 == 2:
        b = rng.integers(-2, 3, size=(d, d))
        z = np.zeros((d, d), dtype=int)
        return np.block([[z, b], [b.T, z]])
    upper = np.eye(d, dtype=int) + np.triu(rng.integers(-1, 2, size=(d, d)), 1)
    lower = np.eye(d, dtype=int) + np.tril(rng.integers(-1, 2, size=(d, d)), -1)
    q = upper @ lower
    return q.T @ np.diag(rng.integers(-3, 4, size=d)) @ q


@pytest.mark.parametrize("seed", range(24))
def test_ldl_inertia_matches_eigenvalue_signs(seed):
    s = _seeded_symmetric(seed)
    expected = _eig_inertia(s)
    p, q, z = expected
    assert ldl_inertia(fmat(s.tolist())) == expected
    # a positive rational rescaling keeps the inertia, a negative one swaps p and q
    assert ldl_inertia(Fraction(3, 7) * fmat(s.tolist())) == expected
    assert ldl_inertia(Fraction(-5, 2) * fmat(s.tolist())) == (q, p, z)


def test_signed_permutation_reads_exact_and_float_matrices_and_rejects_the_rest():
    m = np.array([[0, -1, 0], [0, 0, 1], [1, 0, 0]])
    for a in (m, m.astype(float), fmat(m.tolist())):
        perm, sign = signed_permutation(a)
        assert perm.tolist() == [2, 0, 1] and sign.tolist() == [1, -1, 1]
        assert sign.dtype.kind == "i"
    for bad in (2 * m, m + 1e-15, m[:2], m[[0, 0, 2]], np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]])):
        with pytest.raises(ValueError):
            signed_permutation(bad)


def _same_basis(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape
        and all(type(u) is Fraction and u == v for u, v in zip(x.ravel(), y.ravel()))
        for x, y in zip(xs, ys))


def test_solution_space_ignores_equation_order_and_repeats():
    # X on a 3 x 3 grid of unit directions, tied by X00 = X11 + X22, X11 = 2 X01, X02 = X12
    units = [{(i, j): 1} for i in range(3) for j in range(3)]
    eqs = [[((0, 0), 1), ((1, 1), -1), ((2, 2), -1)], [((1, 1), 1), ((0, 1), Fraction(-2))],
           [((0, 2), 1), ((1, 2), -1)]]
    basis = solution_space(eqs, units, (3, 3))
    assert len(basis) == 6
    rng = np.random.default_rng(5)
    for _ in range(5):
        shuffled = [eqs[i] for i in rng.permutation(3)] + [eqs[i] for i in rng.integers(0, 3, 4)]
        shuffled = [[eq[i] for i in rng.permutation(len(eq))] for eq in shuffled]
        assert _same_basis(solution_space(iter(shuffled), units, (3, 3)), basis)
    for x in basis:
        assert x[0, 0] == x[1, 1] + x[2, 2] and x[1, 1] == 2 * x[0, 1] and x[0, 2] == x[1, 2]


def test_solution_space_drops_positions_no_direction_touches():
    # only the diagonal is free; terms on off-diagonal positions are zero and vanish
    units = [{(i, i): 1} for i in range(3)]
    eqs = [[((0, 0), 1), ((0, 1), 5)], [((1, 2), 1)], [((1, 1), 1), ((2, 2), 1), ((2, 0), -3)]]
    basis = solution_space(eqs, units, (3, 3))
    kept = [[((1, 1), 1), ((2, 2), 1)], [((0, 0), 1)]]
    assert _same_basis(basis, solution_space(kept, units, (3, 3)))
    assert len(basis) == 1 and basis[0].tolist() == [[0, 0, 0], [0, -1, 0], [0, 0, 1]]
    # equations on untouched positions alone constrain nothing
    free = solution_space([[((0, 1), 1), ((2, 1), 4)]], units, (3, 3))
    assert _same_basis(free, [fmat(np.diag(row)) for row in np.eye(3, dtype=int)])


def test_solution_space_reads_two_entry_directions():
    # symmetric units E_ab + E_ba on a 2 x 2 grid, with X01 = X00 and X11 = -2 X10
    units = [{(0, 0): 1}, {(0, 1): 1, (1, 0): 1}, {(1, 1): 1}]
    basis = solution_space([[((0, 1), 1), ((0, 0), -1)], [((1, 1), 1), ((1, 0), 2)]], units, (2, 2))
    assert len(basis) == 1
    # the free unknown is the last one, X11 = 1
    half = Fraction(-1, 2)
    assert basis[0].tolist() == [[half, half], [half, 1]]
    # antisymmetric units read the sign of the entry they meet
    anti = [{(0, 1): 1, (1, 0): -1}]
    assert solution_space([[((1, 0), 1)]], anti, (2, 2)) == []
    free = solution_space([[((1, 0), 1), ((0, 1), 1)]], anti, (2, 2))
    assert len(free) == 1 and free[0].tolist() == [[0, 1], [-1, 0]]
