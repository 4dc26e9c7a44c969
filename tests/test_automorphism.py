"""Block parametrization of Aut(T*h(2n+1))."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscot._exact import feye, field, fmat, fzeros
from heiscot.automorphism import (
    assemble,
    aut_parameter_dimension,
    bracket_defect,
    is_automorphism,
    random_automorphism,
    random_conformal_symplectic,
    symplectic_rotation,
)
from heiscot.lie_core import build_thn, derivation_algebra, standard_symplectic


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_assemblies_are_exact_automorphisms(algebras, rng, n):
    g = algebras[n]
    for _ in range(8):
        a = random_automorphism(n, g, rng=rng, exact=True)
        assert bracket_defect(a.matrix, g) == 0
        assert is_automorphism(a.matrix, g)


@pytest.mark.parametrize("n", [1, 2])
def test_group_closure(algebras, rng, n):
    g = algebras[n]
    a = random_automorphism(n, g, rng=rng, exact=True)
    b = random_automorphism(n, g, rng=rng, exact=True)
    assert is_automorphism((a @ b).matrix, g)
    assert is_automorphism(a.inverse().matrix, g)
    prod = a.matrix @ a.inverse().matrix
    assert (prod == feye(g.dim)).all()


def test_u1_free_only_for_n1(algebras):
    # n = 1: a nonzero u1 assembles; n = 2: the same shape is rejected
    g1 = algebras[1]
    u1 = fzeros(2)
    u1[0] = Fraction(1)
    a = assemble(g1, u1=u1)
    assert is_automorphism(a.matrix, g1)

    g2 = algebras[2]
    u1 = fzeros(4)
    u1[0] = Fraction(1)
    with pytest.raises(ValueError):
        assemble(g2, u1=u1)


@pytest.mark.parametrize("n,expected", [(1, 18), (2, 41), (3, 78), (4, 127)])
def test_parameter_dimension_matches_derivations(n, expected):
    assert aut_parameter_dimension(n) == expected
    if n <= 3:
        assert len(derivation_algebra(build_thn(n))) == expected


def test_antisymplectic_factor_allowed(algebras):
    # diag(E, -E) on (e, f) has conformal factor -1 and still assembles
    g = algebras[2]
    fb1 = feye(4)
    fb1[2, 2] = Fraction(-1)
    fb1[3, 3] = Fraction(-1)
    a = assemble(g, Fbar1=fb1)
    assert a.matrix[-1, -1] == -1 and type(a.matrix[-1, -1]) is Fraction
    assert is_automorphism(a.matrix, g)


def test_rotation_is_automorphism(algebras):
    g = algebras[2]
    r = symplectic_rotation([0.3, -1.2], g)
    assert is_automorphism(r.matrix, g, tol=1e-12)


def test_f1_zero_rejected(algebras):
    g = algebras[1]
    with pytest.raises(ValueError):
        assemble(g, f1=Fraction(0))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_assembled_from_random_blocks(data):
    # integer symplectic data: shears and a swap generate honest samples
    g = build_thn(1)
    a = Fraction(data.draw(st.integers(-3, 3)))
    b = Fraction(data.draw(st.integers(-3, 3)))
    fb1 = feye(2)
    fb1[0, 1] = a          # upper shear
    lower = feye(2)
    lower[1, 0] = b
    fb1 = fb1 @ lower
    u1 = fmat([data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))])
    v1 = fmat([data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))])
    f1 = Fraction(data.draw(st.integers(1, 3)))
    f3 = fzeros((3, 3))
    f3[0, 1] = Fraction(data.draw(st.integers(-2, 2)))
    try:
        aut = assemble(g, Fbar1=fb1, u1=u1, v1=v1, f1=f1, F3=f3)
    except ValueError:
        return   # degenerate F1 block, a measure-zero configuration
    assert bracket_defect(aut.matrix, g) == 0


def _transvection_product(n, rng, exact):
    """The earlier draw: dense products of the transvections, same rng calls."""
    fld = field(exact)
    j = standard_symplectic(n, exact=exact)
    out = fld.eye(2 * n)
    for _ in range(3):
        v = fld.array(rng.integers(-2, 3, size=2 * n))
        c = fld.scalar(int(rng.integers(-1, 2))) / 2
        out = out @ (fld.eye(2 * n) - c * np.outer(v, j @ v))
    return fld.scalar(int(rng.integers(1, 4))) / 2 * out


@pytest.mark.parametrize("exact,seeds", [(False, 200), (True, 50)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_one_transvections_equal_dense_products(n, exact, seeds):
    # the float entries are small dyadic rationals, so neither form rounds
    for seed in range(seeds):
        got = random_conformal_symplectic(n, np.random.default_rng(seed), exact=exact)
        ref = _transvection_product(n, np.random.default_rng(seed), exact)
        if exact:
            assert got.dtype == object and all(isinstance(x, Fraction) for x in got.flat)
            assert (got == ref).all()
        else:
            assert got.dtype == float and got.tobytes() == ref.tobytes()
