"""The staged residual-group search against the earlier chunked one.

``metric_moduli._residual_group_matches`` tests the candidates of the
residual finite group in three stages (diagonal, dual block, whole
congruence), each on the survivors of the one before.  The reference below
is the earlier search, which formed the whole congruence for 64 candidates
at a time in table order; both must return no match, or the same signed
permutation bit for bit.  The algebra's cached hash, which keys the
per-algebra tables, is checked here too.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from heiscot import metric_moduli
from heiscot.automorphism import Automorphism, _pair_tables, random_automorphism
from heiscot.lie_core import LieAlgebra, build_thn
from heiscot.metric_moduli import (
    CanonicalMetric,
    act,
    random_positive_definite,
    reduce_with_diagnostics,
)

# ---------------------------------------------------------------------------
# reference: the earlier chunked search


def ref_matches(r1, r2, g, tol, chunk=64):
    perms, signs = metric_moduli._residual_group(g)
    a, b = r1.reduced, r2.reduced
    bound = tol * max(1.0, np.abs(b).max())
    for start in range(0, len(perms), chunk):
        p, s = perms[start:start + chunk], signs[start:start + chunk]
        moved = a[p[:, :, None], p[:, None, :]] * (s[:, :, None] * s[:, None, :])
        hits = np.flatnonzero(np.abs(moved - b).max(axis=(1, 2)) <= bound)
        if hits.size:
            k = start + hits[0]
            return Automorphism(metric_moduli._signed_matrix(perms[k], signs[k]))
    return None


# ---------------------------------------------------------------------------


def _repeated_templates(n):
    """sigma = (1, ..., 1) templates: one against itself, one against another S4bar."""
    ones = (1.0,) * n
    base = CanonicalMetric(sigma=ones, S4bar=np.eye(2 * n), omega4=1.5).matrix()
    s4 = np.eye(2 * n)
    s4[0, 1] = s4[1, 0] = 0.4
    return [(base, base), (base, CanonicalMetric(sigma=ones, S4bar=s4, omega4=1.5).matrix())]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_staged_search_equals_chunked_search(n):
    g = build_thn(n)
    rng = np.random.default_rng(40 + n)
    pairs = []
    for _ in range(3):
        s = random_positive_definite(g, rng)
        pairs.append((s, act(random_automorphism(n, g, rng=rng), s)))
        pairs.append((s, random_positive_definite(g, rng)))
    pairs += _repeated_templates(n)
    found = []
    for s1, s2 in pairs:
        r1, r2 = reduce_with_diagnostics(s1, g), reduce_with_diagnostics(s2, g)
        fast = metric_moduli._residual_group_matches(r1, r2, g, 1e-6)
        slow = ref_matches(r1, r2, g, 1e-6)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert np.array_equal(fast.matrix, slow.matrix)
        found.append(fast is not None)
    # orbit pairs match, random pairs do not; the template matches itself
    # and not the template with another S4bar
    assert found == [True, False] * 3 + [True, False]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_whole_congruence_decides_what_the_first_two_stages_pass(n):
    """Equal diagonals and dual blocks, different S2: only the last stage sees it."""
    g = build_thn(n)
    base, _ = _repeated_templates(n)[0]
    other = base.copy()
    other[0, 2 * n + 1] = other[2 * n + 1, 0] = 0.3
    r1, r2 = SimpleNamespace(reduced=base), SimpleNamespace(reduced=other)
    assert metric_moduli._residual_group_matches(r1, r2, g, 1e-6) is None
    assert ref_matches(r1, r2, g, 1e-6) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rebuilt_algebra_hashes_equal_and_hits_the_caches(n):
    g = build_thn(n)
    rebuilt = LieAlgebra(dim=g.dim, constants=tuple(g.constants),
                         basis_names=tuple(g.basis_names), n=g.n)
    assert rebuilt is not g
    assert rebuilt == g and hash(rebuilt) == hash(g)
    table = _pair_tables(g)
    hits = _pair_tables.cache_info().hits
    assert _pair_tables(rebuilt) is table
    assert _pair_tables.cache_info().hits == hits + 1
    assert metric_moduli._residual_group(rebuilt) is metric_moduli._residual_group(g)
