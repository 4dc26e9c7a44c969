"""The arithmetic layer: the two fields and the one zero test, ``negligible``.

Every exact predicate must decide with ``== 0``.  A perturbation of
10^-400 underflows to 0.0 in float, so a predicate that rounds an exact
defect through float accepts the perturbed input; each one below must
reject it and accept the unperturbed one.
"""

from fractions import Fraction

import numpy as np
import pytest

from heiscot import _exact
from heiscot._exact import EXACT, FLOAT, feye, field, field_of, fmat, negligible
from heiscot.adinvariant import normalize_ad_invariant, pairing_metric
from heiscot.automorphism import AutParams, assemble, identity_params, is_automorphism
from heiscot.complex_structures import (
    IntegrableFamily,
    integrability_report,
    is_abelian_complex_structure,
    is_hermitian,
    is_integrable,
    match_family,
    matches_hermitian_family,
    standard_complex_structure,
)
from heiscot.forms_kahler import (
    OmegaParams,
    build_omega,
    is_closed,
    j_invariant,
    matches_omega_template,
)
from heiscot.lie_core import build_thn

TINY = Fraction(1, 10 ** 400)


@pytest.mark.parametrize("kind", [Fraction, int, np.int64])
def test_negligible_exact_defects_must_be_zero(kind):
    assert negligible(kind(0), 0.0, 1.0)
    # at and inside the float boundary tol * scale = 1: an exact defect must be 0
    assert not negligible(kind(1), 0.5, 2.0)
    assert not negligible(kind(-1), 10.0, 10.0)


def test_negligible_rational_below_float_resolution():
    assert float(TINY) == 0.0
    assert not negligible(TINY, 1e-10, 1.0)


@pytest.mark.parametrize("kind", [float, np.float64])
def test_negligible_float_boundary_is_tol_times_scale(kind):
    tol, scale = 1e-10, 3.0
    bound = tol * scale
    assert negligible(kind(bound), tol, scale)
    assert negligible(kind(-bound), tol, scale)
    assert not negligible(kind(np.nextafter(bound, 1.0)), tol, scale)
    assert not negligible(kind("nan"), tol, scale)


def test_field_choice_and_constructors():
    assert field(True) is EXACT and field(False) is FLOAT
    assert field_of(fmat([[1]])) is EXACT and field_of(np.eye(2)) is FLOAT
    a = EXACT.array(np.array([[2, 1], [1, 1]]))
    assert all(type(x) is Fraction for x in a.ravel())
    assert (EXACT.inv(a) == fmat([[1, -1], [-1, 2]])).all()
    assert (EXACT.solve(a, EXACT.eye(2)) == EXACT.inv(a)).all()
    assert EXACT.scalar(1) / 2 == Fraction(1, 2) and FLOAT.scalar(1) / 2 == 0.5
    assert FLOAT.array(a).dtype == float
    assert (FLOAT.inv(FLOAT.array(a)) == np.linalg.inv(np.array([[2.0, 1.0], [1.0, 1.0]]))).all()
    with pytest.raises(TypeError):
        EXACT.array(np.array([0.5]))


def test_exact_field_calls_the_module_inv_at_call_time(monkeypatch):
    calls = []
    real = _exact.inv
    monkeypatch.setattr(_exact, "inv", lambda a: calls.append(a) or real(a))
    EXACT.inv(feye(2))
    EXACT.solve(feye(2), feye(2))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# every predicate on negligible, each given a perturbation eps (0 or TINY)


def _rejects(build) -> bool:
    try:
        build()
    except (ValueError, AssertionError):
        return True
    return False


def _j0(n, eps, at):
    j = standard_complex_structure(n, exact=True)
    j[at] += eps
    return j


def _omega(eps, at):
    om = build_omega(OmegaParams(n=1, mu=Fraction(1), exact=True))
    om[at] += eps
    om[at[::-1]] -= eps
    return om


def _member(eps):
    jbar3 = fmat([[1, 2], [2, -1]])
    jbar3[0, 0] += eps
    return IntegrableFamily(1).member(1, Fraction(3, 2), jbar3, exact=True)


def _params(n, eps, block, at):
    p = identity_params(n, exact=True)
    fields = {"Fbar1": p.Fbar1, "u1": p.u1, "v1": p.v1, "f1": p.f1, "F3": p.F3}
    fields[block] = fields[block].copy()
    fields[block][at] += eps
    return AutParams(**fields)


def _metric(eps, at, base=None):
    s = feye(6) if base is None else base
    s[at] += eps
    return s


ACCEPTS = {
    "is_integrable": lambda eps: is_integrable(_j0(1, eps, (0, 2)), build_thn(1)),
    "IntegrableFamily.member": lambda eps: not _rejects(lambda: _member(eps)),
    "match_family": lambda eps: match_family(_j0(1, eps, (0, 2)), 1) is not None,
    "is_hermitian": lambda eps: is_hermitian(standard_complex_structure(1, exact=True),
                                             _metric(eps, (0, 0))),
    "matches_hermitian_family": lambda eps: matches_hermitian_family(_metric(eps, (5, 5)), 1),
    "is_abelian_complex_structure": lambda eps: is_abelian_complex_structure(
        _metric(eps, (0, 0)), build_thn(1))[0],
    "is_closed": lambda eps: is_closed(_omega(eps, (2, 5)), build_thn(1)),
    "j_invariant": lambda eps: j_invariant(_omega(eps, (0, 5)),
                                           standard_complex_structure(1, exact=True)),
    "matches_omega_template": lambda eps: matches_omega_template(_omega(eps, (0, 5)), 1),
    "OmegaParams.blocks": lambda eps: not _rejects(
        lambda: OmegaParams(n=1, a1=fmat([[0]]) + eps, exact=True).blocks()),
    "AutParams.f4": lambda eps: not _rejects(lambda: _params(2, eps, "Fbar1", (0, 0)).f4()),
    "assemble": lambda eps: not _rejects(
        lambda: assemble(_params(2, eps, "u1", 0), build_thn(2))),
    "is_automorphism": lambda eps: is_automorphism(_metric(eps, (5, 5)), build_thn(1)),
    "normalize_ad_invariant": lambda eps: not _rejects(
        lambda: normalize_ad_invariant(_metric(eps, (5, 5), pairing_metric(1, exact=True)),
                                       build_thn(1))),
}


@pytest.mark.parametrize("name", sorted(ACCEPTS))
def test_exact_predicate_sees_a_defect_below_float_resolution(name):
    accepts = ACCEPTS[name]
    assert accepts(0), "the unperturbed exact input is accepted"
    assert not accepts(TINY), "a nonzero exact defect is rejected"


def test_integrability_report_exact_defects_stay_exact():
    rep = integrability_report(_j0(1, TINY, (0, 2)), build_thn(1))
    assert rep["almost_complex_defect"] > 0 and rep["pairwise_defect"] > 0
    assert rep["routes_agree"] == (rep["pairwise_defect"] == rep["operator_defect"])
    assert not rep["integrable"]
