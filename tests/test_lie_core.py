"""Structure constants, ideals and derivations of T*h(2n+1)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscot._exact import feye
from heiscot.lie_core import (
    build_heisenberg,
    build_thn,
    cotangent_algebra,
    cotangent_reorder_permutation,
    derivation_algebra,
    relabel,
)

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
