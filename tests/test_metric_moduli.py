"""Reduction of positive-definite metrics to the diagonal template."""

import dataclasses
import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from heiscot import metric_moduli
from heiscot._exact import fmat
from heiscot.automorphism import (assemble, bracket_defect, is_automorphism, random_automorphism,
                                  symplectic_rotation)
from heiscot.cli import run
from heiscot.lie_core import build_thn
from heiscot.metric_moduli import (
    CanonicalMetric,
    NonPositiveDefinite,
    ToleranceFailure,
    act,
    are_equivalent,
    free_parameter_count,
    random_positive_definite,
    reduce_to_canonical,
    reduce_with_diagnostics,
    split_blocks,
    williamson,
)


@pytest.mark.parametrize("n,count", [(1, 3), (2, 10), (3, 21), (4, 36), (5, 55)])
def test_template_parameter_count(n, count):
    assert free_parameter_count(n) == count


def test_williamson_oracle():
    # diag(4, 9) has symplectic eigenvalue 6 = sqrt(4 * 9), doubled
    m = np.diag([4.0, 9.0])
    f, sigma = williamson(m)
    assert np.allclose(sigma, [6.0])
    assert np.allclose(f.T @ m @ f, 6.0 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_williamson_random(rng, n):
    a = rng.normal(size=(2 * n, 2 * n))
    m = a @ a.T + 0.5 * np.eye(2 * n)
    f, sigma = williamson(m)
    target = np.diag(np.concatenate([sigma, sigma]))
    assert np.abs(f.T @ m @ f - target).max() < 1e-9 * max(1.0, np.abs(m).max())
    assert (np.diff(sigma) <= 1e-12).all(), "descending order"


def test_reduction_reaches_template_n1(algebras, rng):
    g = algebras[1]
    for _ in range(20):
        s = random_positive_definite(g, rng)
        r = reduce_with_diagnostics(s, g)
        assert r.residual <= 1e-9 * max(1.0, np.abs(s).max())
        assert is_automorphism(r.automorphism.matrix, g, tol=1e-12)
        assert np.abs(act(r.automorphism, s) - r.reduced).max() < 1e-9 * max(1.0, np.abs(s).max())


@pytest.mark.parametrize("n", [2, 3])
def test_center_pairing_obstruction(algebras, rng, n):
    """The t4 block is invariant under the stabilizer of the earlier steps.

    Generic metrics keep a nonzero t4, the template has no slot for it,
    and reduce_to_canonical reports the failure with the partial result.
    """
    g = algebras[n]
    hit = 0
    for _ in range(10):
        s = random_positive_definite(g, rng)
        r = reduce_with_diagnostics(s, g)
        scale = max(1.0, np.abs(s).max())
        # everything except t4 is reduced
        diff = np.abs(r.reduced - r.canonical.matrix())
        m = 2 * n + 1
        diff[m : m + 2 * n, 4 * n + 1] = 0.0
        diff[4 * n + 1, m : m + 2 * n] = 0.0
        assert diff.max() <= 1e-8 * scale
        if np.abs(r.t4).max() > 1e-6 * scale:
            hit += 1
            with pytest.raises(ToleranceFailure):
                reduce_to_canonical(s, g)
    assert hit >= 8, "t4 should be nonzero for generic draws"


def test_reduce_rejects_asymmetric_and_indefinite(algebras):
    g = algebras[1]
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(NonPositiveDefinite):
        reduce_with_diagnostics(bad, g)
    with pytest.raises(NonPositiveDefinite):
        reduce_with_diagnostics(-np.eye(6), g)


def _poisoned(d, value, cells):
    s = np.eye(d)
    for cell in cells:
        s[cell] = value
    return s


@pytest.mark.parametrize("value,cells", [(np.nan, [(1, 1)]), (np.nan, [(0, 2), (2, 0)]),
                                         (np.inf, [(3, 3)]), (-np.inf, [(1, 4), (4, 1)])])
def test_non_finite_metrics_raise_the_domain_error(algebras, value, cells):
    g = algebras[1]
    bad = _poisoned(6, value, cells)
    bad2 = _poisoned(2, value, [(i % 2, j % 2) for i, j in cells])
    for call in (lambda: reduce_with_diagnostics(bad, g), lambda: are_equivalent(bad, np.eye(6), g),
                 lambda: are_equivalent(np.eye(6), bad, g), lambda: williamson(bad2)):
        with pytest.raises(NonPositiveDefinite, match="non-finite"):
            call()


@pytest.mark.parametrize("field,value", [
    ("sigma", (np.nan,)), ("sigma", (np.inf,)),
    ("S4bar", np.array([[np.nan, 0.0], [0.0, 1.0]])), ("S4bar", np.diag([np.inf, 1.0])),
    ("omega4", np.nan), ("omega4", np.inf),
])
def test_canonical_metric_rejects_non_finite_data(field, value):
    data = {"sigma": (1.0,), "S4bar": np.eye(2), "omega4": 1.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        CanonicalMetric(**data)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_pairs_equivalent_with_witness(algebras, rng, n):
    g = algebras[n]
    for _ in range(6):
        s = random_positive_definite(g, rng)
        f = random_automorphism(n, g, rng=rng, exact=False)
        moved = act(f, s)
        res = are_equivalent(s, moved, g)
        assert res.verdict == "equivalent"
        w = res.witness
        assert is_automorphism(w.matrix, g, tol=1e-8)
        assert np.abs(act(w, s) - moved).max() <= 1e-5 * max(1.0, np.abs(moved).max())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_multiset_invariant(algebras, rng, n):
    g = algebras[n]
    for _ in range(5):
        s = random_positive_definite(g, rng)
        f = random_automorphism(n, g, rng=rng, exact=False)
        r1 = reduce_with_diagnostics(s, g)
        r2 = reduce_with_diagnostics(act(f, s), g)
        assert np.abs(np.array(r1.sigma) - np.array(r2.sigma)).max() <= 1e-6 * max(1.0, max(r1.sigma))


def test_distinct_detected(algebras):
    g = algebras[2]
    c1 = CanonicalMetric(sigma=(2.0, 1.0), S4bar=np.eye(4), omega4=1.0)
    c2 = CanonicalMetric(sigma=(3.0, 1.0), S4bar=np.eye(4), omega4=1.0)
    assert are_equivalent(c1.matrix(), c2.matrix(), g).verdict == "distinct"


def test_distinct_detected_n1_template_data(algebras):
    # sigma is trivial at n = 1; the dual diagonal multiset separates
    g = algebras[1]
    c1 = CanonicalMetric(sigma=(1.0,), S4bar=np.eye(2), omega4=1.0)
    c2 = CanonicalMetric(sigma=(1.0,), S4bar=2.0 * np.eye(2), omega4=1.0)
    assert are_equivalent(c1.matrix(), c2.matrix(), g).verdict == "distinct"


def test_center_slot_flips_identify_permuted_templates(algebras):
    """At n = 1 the values (s1, s2, w4) are only defined as a multiset."""
    g = algebras[1]
    c1 = CanonicalMetric(sigma=(1.0,), S4bar=np.diag([2.0, 3.0]), omega4=5.0)
    c2 = CanonicalMetric(sigma=(1.0,), S4bar=np.diag([5.0, 2.0]), omega4=3.0)
    res = are_equivalent(c1.matrix(), c2.matrix(), g)
    assert res.verdict == "equivalent"
    assert np.abs(act(res.witness, c1.matrix()) - c2.matrix()).max() < 1e-9


def test_repeated_sigma_inconclusive(algebras):
    g = algebras[2]
    rep = (1.0, 1.0)
    base = CanonicalMetric(sigma=rep, S4bar=np.eye(4), omega4=1.0)
    other_s4 = np.eye(4)
    other_s4[0, 1] = other_s4[1, 0] = 0.4
    other = CanonicalMetric(sigma=rep, S4bar=other_s4, omega4=1.0)
    res = are_equivalent(base.matrix(), other.matrix(), g)
    assert res.verdict == "inconclusive"


def test_split_blocks_shapes(algebras):
    g = algebras[2]
    s = np.arange(100.0).reshape(10, 10)
    s = s + s.T
    s1b, t1, om1, s4b, t4, om4, s2 = split_blocks(s)
    assert s1b.shape == (4, 4) and s4b.shape == (4, 4)
    assert t1.shape == (4,) and t4.shape == (4,)
    assert s2.shape == (5, 5)
    assert om1 == s[4, 4] and om4 == s[9, 9]


@pytest.mark.parametrize("seed", [11, 30, 38, 54, 58, 84, 85, 86, 89])
def test_all_n1_passes_at_former_newton_failures(capsys, seed):
    # the finite-difference Newton step 2 reported orbit pairs as distinct,
    # missed the template, or failed assemble's bracket check at these seeds
    assert run(["all", "--json", "--n", "1", "--seed", str(seed)]) == 0


def _without_s2(s):
    """The metric as step 2 sees it: step 1 has killed the block S2."""
    s = s.copy()
    s[:3, 3:] = 0.0
    s[3:, :3] = 0.0
    return s


def _wide_positive_definite(g, rng):
    """A A^T + 9 dim E with N(0, 3) entries: a wider draw than random_positive_definite."""
    d = g.dim
    a = 3.0 * rng.standard_normal((d, d))
    return a @ a.T + d * 9.0 * np.eye(d)


def test_center_pairing_kills_t1_and_t4(algebras):
    g = algebras[1]
    rng = np.random.default_rng(7)
    for k in range(200):
        s = _without_s2(_wide_positive_definite(g, rng) if k % 2 else random_positive_definite(g, rng))
        moved = act(metric_moduli._center_pairing(s, g), s)
        _, t1, _, _, t4, _, _ = split_blocks(moved)
        scale = max(1.0, np.abs(s).max())
        assert max(np.abs(t1).max(), np.abs(t4).max()) <= 1e-12 * scale


def test_pencil_choices_differ_by_center_slot_flips(algebras, rng):
    g = algebras[1]
    for _ in range(5):
        s = _without_s2(random_positive_definite(g, rng))
        pairings = metric_moduli._center_pairings(s)
        assert len(pairings) == 3
        reduced = [reduce_with_diagnostics(act(assemble(g, u1=u1, v1=v1), s), g)
                   for u1, v1 in pairings]
        for r in reduced:
            assert r.residual <= 1e-9 * max(1.0, np.abs(s).max())
        for r in reduced[1:]:
            # the choices put different pencil eigenvalues in the (z, z) slot,
            # and of the residual group only the center slot flips move z
            assert abs(r.canonical.omega4 - reduced[0].canonical.omega4) > 1e-6
            elem = metric_moduli._residual_group_matches(reduced[0], r, g, 1e-6)
            assert elem is not None and abs(elem.matrix[5, 5]) < 1e-12


def _assembled_group(g):
    """The residual finite group in search order, assembled as float automorphisms.

    rot(ks) (@ reflection) (@ center slot flip), ks over product(range(4),
    repeat=n): the enumeration the generated table must reproduce.
    """
    n = g.n
    fb1 = np.diag([1.0] * n + [-1.0] * n)
    reflection = assemble(g, Fbar1=fb1)
    flips = [np.eye(g.dim)]
    if n == 1:
        # phi_e: e <-> z*, e* <-> -z, f* -> -f*; phi_f the same with f for e
        phi_e = np.zeros((6, 6))
        phi_e[2, 0] = phi_e[1, 1] = phi_e[0, 2] = 1.0
        phi_e[5, 3] = phi_e[4, 4] = phi_e[3, 5] = -1.0
        phi_f = np.zeros((6, 6))
        phi_f[0, 0] = phi_f[2, 1] = phi_f[1, 2] = 1.0
        phi_f[3, 3] = phi_f[5, 4] = phi_f[4, 5] = -1.0
        flips += [phi_e, phi_f]
    for ks in itertools.product(range(4), repeat=n):
        rot = symplectic_rotation([k * np.pi / 2 for k in ks], g).matrix
        for base in (rot, rot @ reflection.matrix):
            for flip in flips:
                yield base @ flip


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_residual_group_table_matches_assembled_elements(algebras, n):
    g = algebras[n]
    perms, signs = metric_moduli._residual_group(g)
    assert len(perms) == 4 ** n * 2 * (3 if n == 1 else 1)
    for perm, sign, elem in itertools.zip_longest(perms, signs, _assembled_group(g)):
        assert np.abs(elem - metric_moduli._signed_matrix(perm, sign)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_residual_group_generators_are_exact_automorphisms(algebras, n):
    g = algebras[n]
    gens = metric_moduli._generators(g)
    assert len(gens) == n + 1 + (2 if n == 1 else 0)
    for x in gens:
        assert x.dtype.kind == "i"
        defect = bracket_defect(fmat(x), g)
        assert isinstance(defect, Fraction) and defect == 0


@pytest.mark.parametrize("n", [1, 2])
def test_residual_group_table_is_closed_under_composition(algebras, n):
    """A group at n = 2.  At n = 1 only up to signs: the generators make 48
    signed permutations over the table's 6 permutations, the table keeps 24,
    and the signs it drops act trivially on the diagonal n = 1 template."""
    perms, signs = metric_moduli._residual_group(algebras[n])

    def keys(p, s):
        return {(tuple(a), tuple(b) if n > 1 else ()) for a, b in zip(p, s)}

    rows = keys(perms, signs)
    assert len(rows) == (len(perms) if n > 1 else 6)
    for a in zip(perms, signs):
        assert keys(*metric_moduli._compose(a, (perms, signs))) == rows


def test_residual_group_table_is_cached_and_read_only(algebras):
    g = algebras[2]
    table = metric_moduli._residual_group(g)
    assert metric_moduli._residual_group(build_thn(2)) is table
    perms, signs = table
    assert not perms.flags.writeable and not signs.flags.writeable
    with pytest.raises(ValueError):
        perms[0, 0] = 1


def _brute_force_match(r1, r2, reference, tol):
    """The residual-group search by applying every assembled candidate."""
    scale = max(1.0, np.abs(r2.reduced).max())
    for elem in reference:
        if np.abs(act(elem, r1.reduced) - r2.reduced).max() <= tol * scale:
            return elem
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_residual_group_search_matches_brute_force(algebras, rng, n):
    g = algebras[n]
    reference = list(_assembled_group(g))
    pairs = []
    for _ in range(3):
        s = random_positive_definite(g, rng)
        moved = act(random_automorphism(n, g, rng=rng), s)
        pairs.append((reduce_with_diagnostics(s, g), reduce_with_diagnostics(moved, g)))
    # a distinct pair: two independent draws
    pairs.append(tuple(reduce_with_diagnostics(random_positive_definite(g, rng), g) for _ in range(2)))
    # repeated sigma: templates against a copy moved by the last group element,
    # and against the template of the moduli_float workload's repeated pairs
    s4 = np.eye(2 * n) + 0.1 * np.ones((2 * n, 2 * n))
    for i in range(n):
        s4[i, n + i] = s4[n + i, i] = 0.0
    base = CanonicalMetric(sigma=(1.0,) * n, S4bar=s4, omega4=1.5).matrix()
    other_s4 = np.eye(2 * n)
    other_s4[0, 1] = other_s4[1, 0] = 0.4
    other = CanonicalMetric(sigma=(1.0,) * n, S4bar=other_s4, omega4=1.5).matrix()
    for s1, s2 in ((base, act(reference[-1], base)), (np.diag(np.diag(other)), other)):
        pairs.append((SimpleNamespace(reduced=s1), SimpleNamespace(reduced=s2)))
    found = []
    for r1, r2 in pairs:
        fast = metric_moduli._residual_group_matches(r1, r2, g, 1e-6)
        slow = _brute_force_match(r1, r2, reference, 1e-6)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert np.abs(fast.matrix - slow).max() <= 1e-15
        found.append(fast is not None)
    assert found == [True] * 3 + [False, True, False]


def test_n1_distinct_needs_both_templates_reached(algebras, monkeypatch):
    g = algebras[1]
    c1 = CanonicalMetric(sigma=(1.0,), S4bar=np.eye(2), omega4=1.0)
    c2 = CanonicalMetric(sigma=(1.0,), S4bar=2.0 * np.eye(2), omega4=1.0)
    reduce = metric_moduli.reduce_with_diagnostics

    def off_template(s, g):
        return dataclasses.replace(reduce(s, g), residual=1.0)

    monkeypatch.setattr(metric_moduli, "reduce_with_diagnostics", off_template)
    assert are_equivalent(c1.matrix(), c2.matrix(), g).verdict == "inconclusive"
