"""One builder for the complex-structure family, and one comparison to match it.

``signed_plane_member`` lays out every structure of the block family; J0
and ``IntegrableFamily.member`` are calls into it, and ``match_family``
rebuilds the member that J names and compares every entry.  The
references below are the earlier per-builder layouts and the earlier
block-list matcher, kept here so that the shared builder is checked
entry by entry and dtype by dtype against them, and so that the three
entries the block list never looked at stay covered.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import field, field_of, inv, maxabs, negligible
from heiscot.automorphism import random_automorphism
from heiscot.complex_structures import (
    FamilyParams,
    IntegrableFamily,
    anticommuting_block,
    match_family,
    signed_plane_member,
    standard_complex_structure,
)
from heiscot.lie_core import build_thn, standard_symplectic

# ---------------------------------------------------------------------------
# references: the separate layouts and the block-list matcher


def ref_standard(n, exact=False):
    if n < 1:
        raise ValueError("n must be >= 1")
    d = 4 * n + 2
    fld = field(exact)
    jb = standard_symplectic(n, exact=exact)
    out = fld.zeros((d, d))
    one = fld.scalar(1)
    out[: 2 * n, : 2 * n] = jb
    out[2 * n + 1 : 4 * n + 1, 2 * n + 1 : 4 * n + 1] = jb
    out[2 * n, d - 1] = one
    out[d - 1, 2 * n] = -one
    return out


def ref_member(n, epsilon, n2, jbar3=None, exact=False):
    d = 4 * n + 2
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if n2 == 0:
        raise ValueError("n2 must be nonzero")
    fld = field(exact)
    n2 = fld.scalar(n2)
    jb = standard_symplectic(n, exact=exact)
    out = fld.zeros((d, d))
    out[: 2 * n, : 2 * n] = epsilon * jb
    out[2 * n + 1 : 4 * n + 1, 2 * n + 1 : 4 * n + 1] = epsilon * jb
    out[2 * n, d - 1] = n2
    out[d - 1, 2 * n] = -(1 / n2)
    if jbar3 is not None:
        jbar3 = np.asarray(jbar3)
        if not negligible(maxabs(jbar3 @ jb + jb @ jbar3), 1e-10, jbar3):
            raise ValueError("jbar3 must anticommute with the plane rotation")
        out[2 * n + 1 : 4 * n + 1, : 2 * n] = jbar3
    return out


def ref_signed(n, signs, n2=1.0, exact=False):
    signs = tuple(signs)
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be n entries of +-1")
    d = 4 * n + 2
    m = 2 * n + 1
    fld = field(exact)
    out = fld.zeros((d, d))
    n2 = fld.scalar(n2)
    for i, s in enumerate(signs):
        s = fld.scalar(s)
        out[n + i, i] = s
        out[i, n + i] = -s
        out[m + n + i, m + i] = s
        out[m + i, m + n + i] = -s
    out[2 * n, d - 1] = n2
    out[d - 1, 2 * n] = -(1 / n2)
    return out


def ref_match(j, n, tol=1e-10):
    j = np.asarray(j)
    d = 4 * n + 2
    m = 2 * n + 1
    fld = field_of(j)
    jb = standard_symplectic(n, exact=fld.exact)

    def iszero(block):
        return negligible(maxabs(block), tol, j)

    eps_entry = j[n, 0]
    if negligible(eps_entry - 1, tol, j):
        epsilon = 1
    elif negligible(eps_entry + 1, tol, j):
        epsilon = -1
    else:
        return None
    n2 = j[2 * n, d - 1]
    if negligible(n2, tol, j):
        return None
    corner_free = j[:m, m:].copy()
    corner_free[-1, -1] = corner_free[-1, -1] * 0
    checks = [
        j[: 2 * n, : 2 * n] - epsilon * jb,
        j[m : m + 2 * n, m : m + 2 * n] - epsilon * jb,
        j[: 2 * n, 2 * n],
        j[2 * n, : 2 * n],
        corner_free,
        j[d - 1, : 2 * n],
        j[m : m + 2 * n, 2 * n],
        np.asarray([j[d - 1, 2 * n] + fld.scalar(1) / n2]),
        j[m : m + 2 * n, d - 1],
    ]
    if not all(iszero(block) for block in checks):
        return None
    jbar3 = j[m : m + 2 * n, : 2 * n]
    if not iszero(jbar3 @ jb + jb @ jbar3):
        return None
    return FamilyParams(epsilon=epsilon, n2=n2, jbar3=jbar3.copy())


def missed_by_ref(n):
    """The entries no block of ``ref_match`` covers: J z* on z*, J z off (e, f, z*)."""
    d = 4 * n + 2
    m = 2 * n + 1
    return {(2 * n, 2 * n), (d - 1, d - 1)} | {(d - 1, c) for c in range(m, m + 2 * n)}


# ---------------------------------------------------------------------------
# helpers


def same_matrix(a, b):
    """Entrywise equal with the same dtype; exact entries also of the same type."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or not np.array_equal(a, b):
        return False
    return a.dtype != object or [type(x) for x in a.ravel()] == [type(x) for x in b.ravel()]


def same_params(p, q):
    if p is None or q is None:
        return p is q
    return (p.epsilon == q.epsilon and p.n2 == q.n2 and type(p.n2) is type(q.n2)
            and same_matrix(p.jbar3, q.jbar3))


def coupling_block(n, exact, seed=0):
    rng = np.random.default_rng(seed)
    a, b = (field(exact).array(rng.integers(-3, 4, size=(n, n))) for _ in range(2))
    return anticommuting_block(a, b)


NS = [1, 2, 3, 4]
EXACTS = [True, False]


# ---------------------------------------------------------------------------
# the builder


@pytest.mark.parametrize("exact", EXACTS)
@pytest.mark.parametrize("n", NS)
def test_builders_match_reference_layouts(n, exact):
    """The data carries the field: n2 as field(exact).scalar, the block from coupling_block."""
    scalar = field(exact).scalar
    assert same_matrix(standard_complex_structure(n, exact=exact), ref_standard(n, exact=exact))
    for signs in itertools.product((1, -1), repeat=n):
        for n2 in (1.0, Fraction(-5, 3)):
            assert same_matrix(signed_plane_member(signs, scalar(n2)),
                               ref_signed(n, signs, n2, exact=exact))
    fam = IntegrableFamily(n)
    for eps, n2, jbar3 in itertools.product((1, -1), (1, Fraction(3, 2), Fraction(-2, 7)),
                                            (None, coupling_block(n, exact))):
        assert same_matrix(fam.member(eps, scalar(n2), jbar3),
                           ref_member(n, eps, n2, jbar3, exact=exact))


def test_n_zero_is_rejected_by_every_builder():
    for build in (lambda: signed_plane_member([]),
                  lambda: IntegrableFamily(0).member(1, 1.0),
                  lambda: standard_complex_structure(0)):
        with pytest.raises(ValueError):
            build()


def test_builder_rejects_bad_signs_and_corner():
    with pytest.raises(ValueError):
        signed_plane_member([1, 2])
    with pytest.raises(ValueError):
        IntegrableFamily(2).member(0, 1.0)
    with pytest.raises(ValueError):
        IntegrableFamily(2).member(1, 0)
    with pytest.raises(ValueError):
        IntegrableFamily(1).member(1, 1.0, np.eye(2))


# ---------------------------------------------------------------------------
# the matcher


@pytest.mark.parametrize("exact", EXACTS)
@pytest.mark.parametrize("at, value", [((2, 2), 5), ((5, 3), 3), ((5, 5), 7)])
def test_match_family_sees_the_entries_the_block_list_missed(at, value, exact):
    j = standard_complex_structure(1, exact=exact)
    j[at] = value
    assert match_family(j) is None
    assert ref_match(j, 1) is not None, "the block list never read this entry"


@pytest.mark.parametrize("exact", EXACTS)
def test_match_family_sees_all_three_missed_entries_together(exact):
    j = standard_complex_structure(1, exact=exact)
    j[2, 2], j[5, 3], j[5, 5] = 5, 3, 7
    assert match_family(j) is None


@pytest.mark.parametrize("n", NS)
def test_match_family_agrees_with_reference_on_samples(n):
    fam = IntegrableFamily(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        params, j = fam.sample(rng)
        got = match_family(j)
        assert same_params(got, ref_match(j, n))
        assert got.epsilon == params.epsilon and got.n2 == params.n2
    for exact in EXACTS:
        for eps, jbar3 in itertools.product((1, -1), (None, coupling_block(n, exact, seed=n))):
            j = fam.member(eps, field(exact).scalar(Fraction(-7, 3)), jbar3)
            got = match_family(j)
            assert got is not None and same_params(got, ref_match(j, n))


@pytest.mark.parametrize("exact", EXACTS)
@pytest.mark.parametrize("n", NS)
def test_match_family_agrees_with_reference_on_conjugates(n, exact):
    g = build_thn(n)
    rng = np.random.default_rng(200 + n)
    fam = IntegrableFamily(n)
    for eps in (1, -1):
        j = fam.member(eps, Fraction(3, 2), coupling_block(n, exact))
        f = random_automorphism(n, g, rng=rng, exact=exact).matrix
        jc = inv(f) @ j @ f if exact else np.linalg.solve(f, j @ f)
        assert same_params(match_family(jc), ref_match(jc, n))


@pytest.mark.parametrize("exact", EXACTS)
@pytest.mark.parametrize("n", NS)
def test_match_family_agrees_with_reference_on_perturbed_members(n, exact):
    """Every single-entry perturbation is rejected; the block list agrees
    everywhere except on the entries it never read."""
    j = IntegrableFamily(n).member(-1, Fraction(5, 4), coupling_block(n, exact))
    delta = Fraction(1, 1000) if exact else 1e-3
    missed = missed_by_ref(n)
    d = 4 * n + 2
    for at in itertools.product(range(d), repeat=2):
        jp = j.copy()
        jp[at] += delta
        assert match_family(jp) is None, at
        assert (ref_match(jp, n) is not None) == (at in missed), at
    if not exact:
        # far below the 1e-10 relative tolerance: both accept, with the same data
        jp = j + 1e-14 * np.random.default_rng(n).standard_normal(j.shape)
        got = match_family(jp)
        assert got is not None and same_params(got, ref_match(jp, n))
