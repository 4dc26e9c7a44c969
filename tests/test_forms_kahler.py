"""Closed invariant 2-forms and the pseudo-Kahler metrics they induce."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscot._exact import fzeros, to_float
from heiscot.complex_structures import is_hermitian, standard_complex_structure
from heiscot.curvature import is_flat, levi_civita, ricci_from_riemann, riemann, signature
from heiscot.forms_kahler import (
    DegenerateOmega,
    OmegaParams,
    build_omega,
    certify_pseudo_kahler,
    closed_invariant_space,
    closure_defect,
    d_one_form,
    d_two_form,
    is_closed,
    omega_parameter_count,
    pseudo_kahler_metric,
    random_omega_params,
)
from heiscot.lie_core import build_thn

# frozen from the exact cochain solve; the closed form 2n^2 + 1 (n >= 2)
# and the two extra n = 1 solutions were cross-checked entry by entry
TRUE_DIMS = {1: 5, 2: 9, 3: 19, 4: 33}


def _covec(d, i):
    v = fzeros(d)
    v[i] = Fraction(1)
    return v


@pytest.mark.parametrize("n", [1, 2])
def test_differential_of_basis_covectors(algebras, n):
    """d e^i = d f^i = d zeta* = 0; the starred covectors pick up the
    bracket terms with the signs fixed by [z*, e_i] = f*_i."""
    g = algebras[n]
    d = g.dim
    zs, z = 2 * n, d - 1
    for i in range(n):
        assert not np.any(to_float(d_one_form(_covec(d, i), g)))
        assert not np.any(to_float(d_one_form(_covec(d, n + i), g)))
    assert not np.any(to_float(d_one_form(_covec(d, zs), g)))
    for i in range(n):
        de = d_one_form(_covec(d, 2 * n + 1 + i), g)   # e*_i component
        # d e^i_* = -f^i wedge zeta*: coefficient at (f_i, z*) is -1
        assert de[n + i, zs] == -1 and de[zs, n + i] == 1
        df = d_one_form(_covec(d, 3 * n + 1 + i), g)
        assert df[i, zs] == 1 and df[zs, i] == -1
    dz = d_one_form(_covec(d, z), g)
    for i in range(n):
        assert dz[i, n + i] == -1


@pytest.mark.parametrize("n", [1, 2])
def test_d_squared_zero(algebras, rng, n):
    g = algebras[n]
    d = g.dim
    for _ in range(5):
        alpha = np.array([Fraction(int(x)) for x in rng.integers(-3, 4, size=d)], dtype=object)
        dd = d_two_form(d_one_form(alpha, g), g)
        assert not np.any(to_float(dd))


@pytest.mark.parametrize("n", sorted(TRUE_DIMS))
def test_closed_invariant_dimension(n):
    space = closed_invariant_space(n)
    assert len(space) == TRUE_DIMS[n]
    assert omega_parameter_count(n) == TRUE_DIMS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_space_members_closed_and_invariant(algebras, n):
    g = algebras[n]
    j0 = standard_complex_structure(n, exact=True)
    for w in closed_invariant_space(n):
        assert closure_defect(w, g) == 0
        assert is_closed(w, g)
        assert is_hermitian(j0, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_template_spans_space(n):
    """Every abstract solution is an exact template instance: stacking the
    template directions onto the solved basis does not raise the rank."""
    from heiscot._exact import rank_sparse

    space = closed_invariant_space(n)
    rows = []
    for w in space:
        iu = np.triu_indices(w.shape[0], k=1)
        rows.append({c: v for c, v in enumerate(w[iu]) if v != 0})
    assert rank_sparse(rows) == len(space)

    demo = random_omega_params(n, np.random.default_rng(0))
    w = build_omega(demo)
    iu = np.triu_indices(w.shape[0], k=1)
    rows.append({c: v for c, v in enumerate(w[iu]) if v != 0})
    assert rank_sparse(rows) == len(space)


def test_omega_params_validation():
    # a1 must be antisymmetric; a nonzero 1x1 block is not
    with pytest.raises(ValueError):
        OmegaParams(n=1, a1=np.array([[1.0]])).blocks()
    # the two extra coefficients exist only at n = 1
    with pytest.raises(ValueError):
        OmegaParams(n=2, c1=1.0).blocks()
    # d is an (n, n) matrix; a length-n vector is not promoted to a diagonal
    with pytest.raises(ValueError, match="block shape"):
        OmegaParams(n=2, d=np.array([1.0, 2.0])).blocks()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_omega_is_a_domain_error(bad):
    with pytest.raises(ValueError, match=r"2-form has non-finite entries at \[\(0, 0\), .* and 32 more"):
        pseudo_kahler_metric(np.full((6, 6), bad), 1)


@pytest.mark.parametrize("n", [1, 2])
def test_build_omega_closed_invariant_exact(algebras, rng, n):
    g = algebras[n]
    j0 = standard_complex_structure(n, exact=True)
    for _ in range(5):
        params = random_omega_params(n, rng)
        w = build_omega(params)
        assert closure_defect(w, g) == 0
        assert is_hermitian(j0, w)
        assert (w + w.T == 0).all()


def test_degenerate_omega_rejected():
    params = OmegaParams(n=1, mu=Fraction(0))   # zero form
    w = build_omega(params)
    with pytest.raises(DegenerateOmega):
        pseudo_kahler_metric(w, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_metric_roundtrip_sign(n):
    """S(x, y) = Omega(J0 x, y) and Omega(x, y) = S(x, J0 y)."""
    params = OmegaParams(n=n, mu=Fraction(1))
    w = build_omega(params)
    s = pseudo_kahler_metric(w, n)
    j0 = standard_complex_structure(n, exact=True)
    assert (s == s.T).all()
    assert (w == s @ j0).all()          # Omega(x, y) = S(x, J0 y)
    assert (s == j0.T @ w).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_metric_certificate(n):
    params = OmegaParams(n=n, mu=Fraction(1))
    rep = certify_pseudo_kahler(params)
    assert rep["nondegenerate"] and rep["ricci_zero"] and rep["summands_zero"]
    assert rep["routes_agree"] and not rep["flat"]
    assert rep["signature"] == (2 * n + 2, 2 * n, 0)
    name_x, name_y, name_in, name_out, value = rep["witness"]
    assert (name_x, name_y) == ("e1", "f1")
    assert value != 0


@pytest.mark.parametrize("n", [1, 2])
def test_random_certificates(rng, n):
    done = 0
    while done < 4:
        params = random_omega_params(n, rng)
        try:
            rep = certify_pseudo_kahler(params)
        except DegenerateOmega:
            continue
        done += 1
        assert rep["ricci_zero"] and rep["summands_zero"] and rep["routes_agree"]


def test_nonflat_witness_value():
    """R(e1, f1) e1 = 2 e*_1 for the unit mu form, exactly."""
    params = OmegaParams(n=1, mu=Fraction(1))
    w = build_omega(params)
    s = pseudo_kahler_metric(w, 1)
    g = build_thn(1)
    riem = riemann(g, levi_civita(g, s))
    out = riem[0, 1, 0]
    expect = fzeros(6)
    expect[3] = Fraction(2)
    assert (out == expect).all()


@settings(max_examples=10, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
def test_mu_scaling_stays_ricci_flat(c1, c2, mu):
    params = OmegaParams(n=1, mu=Fraction(mu), c1=Fraction(c1), c2=Fraction(c2))
    try:
        rep = certify_pseudo_kahler(params)
    except DegenerateOmega:
        return
    assert rep["ricci_zero"] and rep["routes_agree"]
