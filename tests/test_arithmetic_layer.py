"""The arithmetic layer: the two fields and the one zero test, ``negligible``.

Every exact predicate must decide with ``== 0``.  A perturbation of
10^-400 underflows to 0.0 in float, so a predicate that rounds an exact
defect through float accepts the perturbed input; each one below must
reject it and accept the unperturbed one.  An entry of 10^400 overflows
float, so a predicate that sizes a float tolerance for exact input raises
``OverflowError``; each one must decide such input instead.
"""

from fractions import Fraction

import numpy as np
import pytest

from heiscot import _exact
from heiscot._exact import EXACT, FLOAT, feye, field, field_of, fmat, fzeros, negligible
from heiscot.adinvariant import normalize_ad_invariant, pairing_metric
from heiscot.automorphism import assemble, is_automorphism
from heiscot.complex_structures import (
    IntegrableFamily,
    anticommuting_block,
    integrability_report,
    is_abelian_complex_structure,
    is_hermitian,
    is_integrable,
    match_family,
    matches_hermitian_family,
    signed_plane_member,
    standard_complex_structure,
)
from heiscot.curvature import is_flat, levi_civita, riemann
from heiscot.forms_kahler import (
    OmegaParams,
    build_omega,
    is_closed,
    matches_omega_template,
)
from heiscot.lie_core import build_thn

TINY = Fraction(1, 10 ** 400)
HUGE = 10 ** 400


@pytest.mark.parametrize("kind", [Fraction, int, np.int64])
def test_negligible_exact_defects_must_be_zero(kind):
    assert negligible(kind(0), 0.0, 1.0)
    # at and inside the float boundary tol * scale = 1: an exact defect must be 0
    assert not negligible(kind(1), 0.5, 2.0)
    assert not negligible(kind(-1), 10.0, 10.0)


def test_negligible_rational_below_float_resolution():
    assert float(TINY) == 0.0
    assert not negligible(TINY, 1e-10, 1.0)


def test_negligible_exact_defect_never_sizes_its_operands():
    assert negligible(Fraction(0), 1e-10, fmat([[HUGE]]), power=3)
    assert not negligible(TINY, 1e-10, fmat([[HUGE]]), power=3)


@pytest.mark.parametrize("kind", [float, np.float64])
def test_negligible_float_boundary_is_tol_times_scale(kind):
    # scale = max(1, max |entry| of each operand) ** power = 3.0 ** 2
    tol, operands, power = 1e-10, (np.array([[0.5, -3.0]]), 2.0), 2
    bound = tol * 3.0 ** 2
    assert negligible(kind(bound), tol, *operands, power=power)
    assert negligible(kind(-bound), tol, *operands, power=power)
    assert not negligible(kind(np.nextafter(bound, 1.0)), tol, *operands, power=power)
    assert not negligible(kind("nan"), tol, *operands, power=power)
    # no operand, or only small ones: the scale is 1
    assert negligible(kind(tol), tol) and negligible(kind(tol), tol, np.array([0.25]))
    assert not negligible(kind(np.nextafter(tol, 1.0)), tol, np.array([0.25]), power=3)


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
# every exact zero test, each given a perturbation eps (0 or TINY)


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
    om = build_omega(OmegaParams(n=1, mu=Fraction(1)))
    om[at] += eps
    om[at[::-1]] -= eps
    return om


def _member(eps):
    jbar3 = fmat([[1, 2], [2, -1]])
    jbar3[0, 0] += eps
    return IntegrableFamily(1).member(1, Fraction(3, 2), jbar3)


def _identity_blocks(n):
    """Every block of the identity automorphism, exact."""
    return {"Fbar1": feye(2 * n), "u1": fzeros(2 * n), "v1": fzeros(2 * n),
            "f1": Fraction(1), "F3": fzeros((2 * n + 1, 2 * n + 1))}


def _blocks(n, eps, block, at):
    blocks = _identity_blocks(n)
    blocks[block][at] += eps
    return blocks


def _metric(eps, at, base=None):
    s = feye(6) if base is None else base
    s[at] += eps
    return s


def _curvature_tensor(eps):
    riem = fzeros((6, 6, 6, 6))
    riem[0, 1, 2, 3] += eps
    return riem


ACCEPTS = {
    "is_integrable": lambda eps: is_integrable(_j0(1, eps, (0, 2)), build_thn(1)),
    "IntegrableFamily.member": lambda eps: not _rejects(lambda: _member(eps)),
    "match_family": lambda eps: match_family(_j0(1, eps, (0, 2))) is not None,
    "is_hermitian": lambda eps: is_hermitian(standard_complex_structure(1, exact=True),
                                             _metric(eps, (0, 0))),
    "matches_hermitian_family": lambda eps: matches_hermitian_family(_metric(eps, (5, 5))),
    "is_abelian_complex_structure": lambda eps: is_abelian_complex_structure(
        _metric(eps, (0, 0)), build_thn(1))[0],
    "is_closed": lambda eps: is_closed(_omega(eps, (2, 5)), build_thn(1)),
    "omega_is_hermitian": lambda eps: is_hermitian(standard_complex_structure(1, exact=True),
                                                   _omega(eps, (0, 5))),
    "matches_omega_template": lambda eps: matches_omega_template(_omega(eps, (0, 5))),
    "OmegaParams.blocks": lambda eps: not _rejects(
        lambda: OmegaParams(n=1, a1=fmat([[0]]) + eps).blocks()),
    "assemble.f4": lambda eps: not _rejects(
        lambda: assemble(build_thn(2), **_blocks(2, eps, "Fbar1", (0, 0)))),
    "assemble": lambda eps: not _rejects(
        lambda: assemble(build_thn(2), **_blocks(2, eps, "u1", 0))),
    "is_automorphism": lambda eps: is_automorphism(_metric(eps, (5, 5)), build_thn(1)),
    "is_flat": lambda eps: is_flat(_curvature_tensor(eps)),
    "normalize_ad_invariant": lambda eps: not _rejects(
        lambda: normalize_ad_invariant(_metric(eps, (5, 5), pairing_metric(1, exact=True)),
                                       build_thn(1))),
}


@pytest.mark.parametrize("name", sorted(ACCEPTS))
def test_exact_predicate_sees_a_defect_below_float_resolution(name):
    accepts = ACCEPTS[name]
    assert accepts(0), "the unperturbed exact input is accepted"
    assert not accepts(TINY), "a nonzero exact defect is rejected"


def _huge_member(jbar3=None):
    return IntegrableFamily(1).member(1, HUGE, jbar3)


# each predicate on an input with entries of size 10^400, and its verdict
SCALED = {
    # a family member (n2 = 10^400) is integrable, and matches the family
    "is_integrable": (lambda: is_integrable(_huge_member(), build_thn(1)), True),
    "IntegrableFamily.member": (
        lambda: not _rejects(lambda: _huge_member(HUGE * fmat([[1, 2], [2, -1]]))), True),
    "match_family": (
        lambda: match_family(_huge_member(HUGE * fmat([[1, 2], [2, -1]]))) is not None, True),
    # J0 is orthogonal, so every multiple of Id is Hermitian
    "is_hermitian": (lambda: is_hermitian(standard_complex_structure(1, exact=True),
                                          HUGE * feye(6)), True),
    # omega4 = 10^400, not 1
    "matches_hermitian_family": (lambda: matches_hermitian_family(HUGE * feye(6)), False),
    # [10^400 x, 10^400 y] = 10^800 [x, y] differs from [x, y] on a bracketing pair
    "is_abelian_complex_structure": (
        lambda: is_abelian_complex_structure(HUGE * feye(6), build_thn(1))[0], False),
    # closure, J0-invariance and the template are linear in Omega (mu = 10^400)
    "is_closed": (lambda: is_closed(HUGE * _omega(0, (0, 5)), build_thn(1)), True),
    "omega_is_hermitian": (lambda: is_hermitian(standard_complex_structure(1, exact=True),
                                                HUGE * _omega(0, (0, 5))), True),
    "matches_omega_template": (lambda: matches_omega_template(HUGE * _omega(0, (0, 5))), True),
    # a2 = [[10^400]] is symmetric, as a2 must be
    "OmegaParams.blocks": (
        lambda: not _rejects(lambda: OmegaParams(n=1, a2=fmat([[HUGE]])).blocks()),
        True),
    # Fbar1 = 10^400 Id is conformal symplectic (f4 = 10^800), and assembles,
    # alone and with every other block given
    "assemble.f4": (lambda: not _rejects(lambda: assemble(build_thn(2), Fbar1=HUGE * feye(4))),
                    True),
    "assemble": (lambda: not _rejects(lambda: assemble(
        build_thn(2), **{**_identity_blocks(2), "Fbar1": HUGE * feye(4)})), True),
    # 10^400 Id maps [x, y] to 10^400 [x, y], not to 10^800 [x, y]
    "is_automorphism": (lambda: is_automorphism(HUGE * feye(6), build_thn(1)), False),
    # the identity metric is not flat, so neither is 10^400 times its curvature
    "is_flat": (lambda: is_flat(HUGE * riemann(build_thn(1), levi_civita(build_thn(1), feye(6)))),
                False),
    # 10^400 times the pairing is ad-invariant with alpha = 10^400
    "normalize_ad_invariant": (lambda: not _rejects(
        lambda: normalize_ad_invariant(HUGE * pairing_metric(1, exact=True), build_thn(1))), True),
}


def test_every_predicate_has_a_scaled_case():
    assert set(SCALED) == set(ACCEPTS)


@pytest.mark.parametrize("name", sorted(SCALED))
def test_exact_predicate_decides_on_input_beyond_float_range(name):
    decide, expected = SCALED[name]
    assert decide() is expected


def test_integrability_report_exact_defects_stay_exact():
    rep = integrability_report(_j0(1, TINY, (0, 2)), build_thn(1))
    assert rep["almost_complex_defect"] > 0 and rep["pairwise_defect"] > 0
    assert rep["routes_agree"] == (rep["pairwise_defect"] == rep["operator_defect"])
    assert not rep["integrable"]


# ---------------------------------------------------------------------------
# the operands choose the field: exact only when every operand is exact


def test_field_of_reads_every_operand():
    assert field_of(Fraction(1, 3), 2, np.int64(3), fmat([[1]]), None) is EXACT
    assert field_of(fmat([[1]]), Fraction(1, 3), 0.5) is FLOAT
    assert field_of(fmat([[1]]), np.eye(2)) is FLOAT
    assert field_of(np.array([1, 2])) is FLOAT


def _block(kind):
    return fmat([[1, 2], [2, -1]]) if kind == "exact" else np.array([[1.0, 2.0], [2.0, -1.0]])


def _aut(kind):
    f3 = fzeros((5, 5)) if kind != "float" else np.zeros((5, 5))
    f3[0, 1] = Fraction(1, 3) if kind != "float" else 1 / 3
    return assemble(build_thn(2), F3=f3, f1=0.5 if kind == "mixed" else 1).matrix


# each builder on exact, float and mixed operands ("mixed": at least one float)
FIELD_RULE = {
    "signed_plane_member": {
        "exact": lambda: signed_plane_member((1, -1), Fraction(1, 3)),
        "float": lambda: signed_plane_member((1, -1), 1 / 3),
    },
    "anticommuting_block": {
        "exact": lambda: anticommuting_block(fmat([[1]]), fmat([[2]])),
        "float": lambda: anticommuting_block(np.array([[1.0]]), np.array([[2.0]])),
        "mixed": lambda: anticommuting_block(fmat([[1]]), np.array([[2.0]])),
    },
    "IntegrableFamily.member": {
        "exact": lambda: IntegrableFamily(1).member(1, Fraction(1, 3), _block("exact")),
        "float": lambda: IntegrableFamily(1).member(1, 0.1, _block("float")),
        "mixed": lambda: IntegrableFamily(1).member(1, Fraction(1, 3), _block("float")),
    },
    "build_omega": {
        "exact": lambda: build_omega(OmegaParams(n=2, mu=Fraction(1, 3), a2=feye(2))),
        "float": lambda: build_omega(OmegaParams(n=2, mu=0.1, a2=np.eye(2))),
        "mixed": lambda: build_omega(OmegaParams(n=2, mu=0.1, a2=feye(2))),
    },
    "assemble": {kind: (lambda kind=kind: _aut(kind)) for kind in ("exact", "float", "mixed")},
}


@pytest.mark.parametrize("name, kind", [(name, kind) for name, cases in FIELD_RULE.items()
                                        for kind in cases])
def test_the_operands_choose_the_field(name, kind):
    out = FIELD_RULE[name][kind]()
    if kind == "exact":
        assert out.dtype == object and all(type(x) is Fraction for x in out.ravel())
    else:
        assert out.dtype == np.float64


def test_exact_and_mixed_operands_keep_their_values():
    assert IntegrableFamily(1).member(1, Fraction(1, 3))[2, 5] == Fraction(1, 3)
    assert build_omega(OmegaParams(n=2, mu=Fraction(1, 3)))[4, 9] == Fraction(1, 3)
    # a float corner is not certified as an exact Fraction
    j = IntegrableFamily(2).member(1, 0.1)
    assert j[4, 9] == 0.1 and type(integrability_report(j, build_thn(2))["pairwise_defect"]) is not Fraction
    mixed = assemble(build_thn(2), Fbar1=feye(4), F3=fzeros((5, 5)), f1=0.5).matrix
    assert mixed.dtype == np.float64 and mixed[4, 4] == 0.5
    assert not OmegaParams(n=2, mu=Fraction(1), c1=0.0).exact
