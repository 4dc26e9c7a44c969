"""Integrable complex structures: the deformation family and normalization."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscot._exact import feye, to_float
from heiscot.adinvariant import pairing_metric
from heiscot.automorphism import is_automorphism, random_automorphism
from heiscot.complex_structures import (
    FamilyParams,
    IntegrableFamily,
    NotInFamily,
    NotIntegrable,
    anticommuting_block,
    hermitian_defect,
    hermitian_metric_space,
    integrability_report,
    is_abelian_complex_structure,
    is_hermitian,
    is_integrable,
    match_family,
    nijenhuis,
    nijenhuis_defect,
    normalize_complex_structure,
    sign_reversing_automorphism,
    signed_plane_member,
    solve_integrable_family,
    standard_complex_structure,
)
from heiscot.lie_core import build_thn


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reference_structure_shape(algebras, n):
    j0 = standard_complex_structure(n, exact=True)
    d = 4 * n + 2
    assert (to_float(j0 @ j0) == -np.eye(d)).all()
    assert (j0 + j0.T == 0).all(), "antisymmetric"
    assert (to_float(j0 @ j0.T) == np.eye(d)).all(), "orthogonal"
    # corner convention: J0 z = z*, J0 z* = -z
    assert j0[2 * n, d - 1] == 1 and j0[d - 1, 2 * n] == -1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reference_structure_integrable_exact(algebras, n):
    g = algebras[n]
    j0 = standard_complex_structure(n, exact=True)
    rep = integrability_report(j0, g)
    assert rep["integrable"]
    assert rep["pairwise_defect"] == 0
    assert rep["operator_defect"] == 0
    assert rep["routes_agree"]


def test_nonintegrable_control(algebras):
    """Flipping one diagonal block sign breaks the torsion identity.

    J with J1 = -Jbar, J4 = +Jbar and the same corner squares to -1 but
    has Nijenhuis tensor of norm exactly 2; a correct integrability test
    must reject it.
    """
    g = algebras[1]
    j0 = to_float(standard_complex_structure(1, exact=True))
    bad = j0.copy()
    bad[:2, :2] *= -1.0
    assert np.abs(bad @ bad + np.eye(6)).max() == 0
    assert not is_integrable(bad, g)
    assert nijenhuis_defect(bad, g) == 2.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_family_members_integrable(algebras, rng, n):
    g = algebras[n]
    fam = solve_integrable_family(n)
    for _ in range(12):
        params, j = fam.sample(rng)
        assert is_integrable(j, g)
        back = match_family(j, n)
        assert back is not None and back.epsilon == params.epsilon


def test_family_rejects_zero_corner():
    with pytest.raises(ValueError):
        FamilyParams(epsilon=1, n2=0.0, jbar3=None)
    with pytest.raises(ValueError):
        FamilyParams(epsilon=2, n2=1.0, jbar3=None)


@pytest.mark.parametrize("n", [1, 2])
def test_anticommuting_block_property(algebras, rng, n):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    blk = anticommuting_block(a, b)
    jbar = np.zeros((2 * n, 2 * n))
    jbar[:n, n:] = -np.eye(n)
    jbar[n:, :n] = np.eye(n)
    assert np.abs(blk @ jbar + jbar @ blk).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signs_are_one_orbit(algebras, n):
    g = algebras[n]
    j0 = standard_complex_structure(n, exact=True)
    r = sign_reversing_automorphism(n, g)
    lhs = r.matrix @ (-j0)
    rhs = j0 @ r.matrix
    assert (lhs == rhs).all(), "R conjugates J0 to -J0"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization_template_route_exact(algebras, n):
    """Family members with exact data are conjugated to epsilon J0 exactly."""
    g = algebras[n]
    fam = IntegrableFamily(n)
    for eps in (1, -1):
        j = fam.member(eps, Fraction(3, 2))
        res = normalize_complex_structure(to_float(j), g)
        assert res.epsilon == eps
        assert res.route == "template"
        assert float(res.residual) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization_fifty_samples(algebras, rng, n):
    g = algebras[n]
    fam = solve_integrable_family(n)
    count = {1: 0, -1: 0}
    for _ in range(50 if n == 1 else 20):
        params, j = fam.sample(rng)
        res = normalize_complex_structure(j, g)
        assert float(res.residual) <= 1e-9 * max(1.0, np.abs(j).max())
        assert res.epsilon == params.epsilon
        count[res.epsilon] += 1
    assert count[1] > 0 and count[-1] > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization_of_conjugates(algebras, rng, n):
    """Conjugating by an automorphism hides the template; the adapted-basis
    route must still land on the reference structure."""
    g = algebras[n]
    fam = solve_integrable_family(n)
    for _ in range(6):
        _, j = fam.sample(rng)
        f = random_automorphism(n, g, rng=rng, exact=False)
        jc = np.linalg.solve(f.matrix, np.asarray(j) @ f.matrix)
        assert integrability_report(jc, g, tol=1e-7)["integrable"]
        res = normalize_complex_structure(jc, g)
        assert float(res.residual) <= 1e-9 * max(1.0, np.abs(jc).max())


def test_normalization_rejects_nonintegrable(algebras):
    g = algebras[1]
    bad = to_float(standard_complex_structure(1, exact=True))
    bad[:2, :2] *= -1.0
    with pytest.raises(NotIntegrable):
        normalize_complex_structure(bad, g)


@pytest.mark.parametrize("n", [2, 3])
def test_mixed_sign_member_escapes_family_orbit(algebras, n):
    """Integrable structures outside the orbit of +-J0 exist for n >= 2.

    Per-plane rotations with mixed signs square to -1 and satisfy the
    integrability identity, but the associated Hermitian-type form is
    indefinite, so no automorphism can carry them to the reference
    structure.  This kills uniqueness of the complex structure for n >= 2.
    """
    g = algebras[n]
    signs = [1] * n
    signs[-1] = -1
    jm = signed_plane_member(n, signs)
    assert is_integrable(jm, g)
    with pytest.raises(NotInFamily):
        normalize_complex_structure(jm, g)
    # conjugation cannot hide the obstruction
    f = random_automorphism(n, g, rng=np.random.default_rng(5), exact=False)
    jc = np.linalg.solve(f.matrix, np.asarray(jm) @ f.matrix)
    with pytest.raises(NotInFamily):
        normalize_complex_structure(jc, g)


def test_uniform_sign_member_is_in_orbit(algebras):
    # all-minus rotations give -J0 itself, which is in the family orbit
    g = algebras[2]
    jm = signed_plane_member(2, [-1, -1])
    res = normalize_complex_structure(jm, g)
    assert float(res.residual) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_nijenhuis_naturality(seed, data):
    """N_{F^{-1}JF}(a, b) = F^{-1} N_J(Fa, Fb) for automorphisms F.

    Checked exactly with rational F; this is the identity that makes
    integrability conjugation-invariant.  It needs F to preserve the
    bracket, a general linear map changes the torsion.
    """
    from heiscot._exact import inv

    g = build_thn(1)
    j0 = standard_complex_structure(1, exact=True)
    f = random_automorphism(1, g, rng=np.random.default_rng(seed), exact=True).matrix
    fi = inv(f)
    jc = fi @ j0 @ f
    a = np.array([Fraction(data.draw(st.integers(-2, 2))) for _ in range(6)], dtype=object)
    b = np.array([Fraction(data.draw(st.integers(-2, 2))) for _ in range(6)], dtype=object)
    lhs = nijenhuis(jc, a, b, g)
    rhs = fi @ nijenhuis(j0, f @ a, f @ b, g)
    assert (lhs == rhs).all()


@pytest.mark.parametrize("n,dim", [(1, 1), (2, 5), (3, 11)])
def test_hermitian_space_dimension(n, dim):
    sp = hermitian_metric_space(n)
    assert sp.dimension == dim == n * n + n - 1
    assert sp.expected_dimension == dim


@pytest.mark.parametrize("n", [1, 2])
def test_hermitian_space_members(algebras, n):
    g = algebras[n]
    j0 = standard_complex_structure(n, exact=True)
    sp = hermitian_metric_space(n)
    assert hermitian_defect(j0, sp.particular) == 0
    for v in sp.directions:
        assert hermitian_defect(j0, sp.particular + v) == 0
        assert (v == v.T).all()


def test_pairing_not_hermitian(algebras):
    """The duality pairing fails J0-compatibility by exactly 2.

    The defect is concentrated on the (z*, z) entries: the pairing
    couples z* with z while J0 sends the pair to (-z, z*).
    """
    for n in (1, 2, 3):
        j0 = standard_complex_structure(n, exact=True)
        p = pairing_metric(n, exact=True)
        assert hermitian_defect(j0, p) == 2
        assert not is_hermitian(j0, p)


@pytest.mark.parametrize("n", [1, 2])
def test_abelian_false_with_witness(algebras, n):
    g = algebras[n]
    j0 = standard_complex_structure(n, exact=True)
    flag, witness = is_abelian_complex_structure(j0, g)
    assert flag is False
    assert witness == ("e1", "z*")
