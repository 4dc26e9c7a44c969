"""Structure constants, ideals and derivations of T*h(2n+1)."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscot._exact import feye, fzeros
from heiscot.adinvariant import template_defect
from heiscot.cli import _metric_checks
from heiscot.complex_structures import match_family, matches_hermitian_family, signed_plane_member
from heiscot.forms_kahler import extract_omega_params, matches_omega_template, pseudo_kahler_metric
from heiscot.lie_core import (
    LieAlgebra,
    build_heisenberg,
    build_thn,
    cotangent_algebra,
    cotangent_reorder_permutation,
    derivation_algebra,
    n_of,
    relabel,
)
from heiscot.metric_moduli import split_blocks

# independent recomputation of dim Der by brute force at small n froze these
DER_DIMS = {1: 18, 2: 41, 3: 78, 4: 127}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_table(algebras, n):
    g = algebras[n]
    d = 4 * n + 2
    zs, z = 2 * n, d - 1
    e = feye(d)
    for i in range(n):
        ei, fi = i, n + i
        es, fs = 2 * n + 1 + i, 3 * n + 1 + i
        v = g.bracket(e[ei], e[fi])
        assert v[z] == 1 and sum(x != 0 for x in v) == 1
        v = g.bracket(e[zs], e[ei])
        assert v[fs] == 1 and sum(x != 0 for x in v) == 1
        v = g.bracket(e[zs], e[fi])
        assert v[es] == -1 and sum(x != 0 for x in v) == 1
    # cross-plane products vanish
    if n >= 2:
        assert not any(g.bracket(e[0], e[n + 1]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_and_nilpotency(algebras, n):
    g = algebras[n]
    assert g.jacobi_defect() == 0
    assert g.is_two_step_nilpotent()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_center_equals_derived(algebras, n):
    g = algebras[n]
    center = g.center()
    derived = g.derived_subalgebra()
    assert len(center) == len(derived) == 2 * n + 1
    cm = np.array([[float(x) for x in v] for v in center])
    dm = np.array([[float(x) for x in v] for v in derived])
    # same span: stacking does not raise the rank
    assert np.linalg.matrix_rank(np.vstack([cm, dm])) == 2 * n + 1
    # the span is exactly (e*, f*, z)
    assert (np.abs(cm[:, : 2 * n + 1]) == 0).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cotangent_construction_reproduces_table(n):
    h = build_heisenberg(n)
    cot = relabel(cotangent_algebra(h), cotangent_reorder_permutation(n))
    assert cot.constants == build_thn(n).constants


@pytest.mark.parametrize("n", sorted(DER_DIMS))
def test_derivation_dimension(n):
    assert len(derivation_algebra(build_thn(n))) == DER_DIMS[n]


def _unit(d, i):
    v = np.empty(d, dtype=object)
    v[:] = Fraction(0)
    v[i] = Fraction(1)
    return v


def test_derivations_are_derivations(algebras):
    for g in (algebras[1], algebras[2]):
        d = g.dim
        for dm in derivation_algebra(g):
            for i in range(d):
                for j in range(i + 1, d):
                    lhs = dm @ g.bracket(_unit(d, i), _unit(d, j))
                    rhs = g.bracket(dm[:, i], _unit(d, j)) + g.bracket(_unit(d, i), dm[:, j])
                    assert (lhs == rhs).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.data())
def test_bracket_bilinear_antisymmetric(a, b, data):
    g = build_thn(1)
    d = g.dim
    x = np.array([Fraction(data.draw(st.integers(-3, 3))) for _ in range(d)], dtype=object)
    y = np.array([Fraction(data.draw(st.integers(-3, 3))) for _ in range(d)], dtype=object)
    w = np.array([Fraction(data.draw(st.integers(-3, 3))) for _ in range(d)], dtype=object)
    assert (g.bracket(x, y) + g.bracket(y, x) == 0).all()
    lhs = g.bracket(Fraction(a) * x + Fraction(b) * y, w)
    rhs = Fraction(a) * g.bracket(x, w) + Fraction(b) * g.bracket(y, w)
    assert (lhs == rhs).all()


def test_two_step_bracket_into_center(algebras):
    g = algebras[2]
    e = feye(g.dim)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            v = g.bracket(e[i], e[j])
            assert not any(v[: 2 * 2 + 1]), "brackets must land in the center"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_thn_is_shared_and_read_only(n):
    g = build_thn(n)
    assert build_thn(n) is g
    c = g.structure_tensor
    with pytest.raises(ValueError):
        c[0, n, 4 * n + 1] = 2.0
    assert c[0, n, 4 * n + 1] == 1.0 and g.structure_tensor is c


def ref_jacobi_defect(g):
    """The dense-vector jacobi_defect: one Fraction vector per basis triple."""
    worst = Fraction(0)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                acc = fzeros(g.dim)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for (m, v) in g._lookup.get((b, c), ()):
                        for (l, w) in g._lookup.get((a, m), ()):
                            acc[l] += v * w
                worst = max(worst, max((abs(x) for x in acc), default=Fraction(0)))
    return worst


def ref_is_two_step_nilpotent(g):
    """The dense-vector is_two_step_nilpotent: one Fraction vector per (constant, basis vector)."""
    for (i, j, _, _) in g.constants:
        for a in range(g.dim):
            inner = fzeros(g.dim)
            for (k, v) in g._lookup[(i, j)]:
                for (l, w) in g._lookup.get((a, k), ()):
                    inner[l] += v * w
            if any(x != 0 for x in inner):
                return False
    return True


def _table(dim, brackets):
    return LieAlgebra(dim=dim, constants=tuple(sorted((i, j, k, Fraction(v)) for i, j, k, v in brackets)),
                      basis_names=tuple(f"b{i}" for i in range(dim)))


# a bracket table that breaks Jacobi (defect 1/2), and the 4-dimensional
# filiform algebra [e0, e1] = e2, [e0, e2] = e3, a Lie algebra that is 3-step nilpotent
NOT_LIE = _table(4, [(0, 1, 2, 1), (1, 2, 3, Fraction(1, 2)), (0, 2, 3, Fraction(-2, 3)), (0, 3, 1, 1)])
FILIFORM = _table(4, [(0, 1, 2, 1), (0, 2, 3, 1)])


@pytest.mark.parametrize("g", [NOT_LIE, FILIFORM, build_thn(1), build_thn(2), build_heisenberg(2)],
                         ids=["not_lie", "filiform", "thn1", "thn2", "h5"])
def test_predicates_agree_with_dense_references(g):
    defect = g.jacobi_defect()
    assert type(defect) is Fraction and defect == ref_jacobi_defect(g)
    assert g.is_two_step_nilpotent() is ref_is_two_step_nilpotent(g)


def test_predicates_see_a_broken_table_and_a_third_step():
    assert NOT_LIE.jacobi_defect() == Fraction(1, 2)
    assert FILIFORM.jacobi_defect() == 0
    assert not FILIFORM.is_two_step_nilpotent()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_of_reads_n_off_the_shape(n):
    assert n_of(np.zeros((4 * n + 2, 4 * n + 2))) == n
    assert n_of(fzeros((4 * n + 2, 4 * n + 2))) == n


# every function that reads n off its matrix operand
READS_N = {
    "template_defect": template_defect,
    "split_blocks": split_blocks,
    "match_family": match_family,
    "matches_hermitian_family": matches_hermitian_family,
    "extract_omega_params": extract_omega_params,
    "matches_omega_template": matches_omega_template,
    "pseudo_kahler_metric": pseudo_kahler_metric,
    "cli._metric_checks": lambda s: _metric_checks(s, 1e-9),
}


@pytest.mark.parametrize("shape", [(7, 7), (6, 5), (2, 2)])
@pytest.mark.parametrize("name", sorted(READS_N))
def test_operand_of_no_thn_shape_is_a_domain_error(name, shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        READS_N[name](np.zeros(shape))


def test_signed_plane_member_needs_a_sign():
    with pytest.raises(ValueError, match="signs"):
        signed_plane_member(())
