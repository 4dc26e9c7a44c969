"""One slot list for the Omega template.

``build_omega`` scatters the template parameters over the slots of
``forms_kahler._slots`` and ``extract_omega_params`` gathers them back.
The references below are the earlier hand-written layouts of both, kept
here so that the slot list is checked entry by entry and type by type
against them, on template members and on forms outside the template.
"""

import numpy as np
import pytest

from heiscot._exact import field, field_of, fmat
from heiscot.forms_kahler import (
    OmegaParams,
    _slots,
    build_omega,
    extract_omega_params,
    matches_omega_template,
    random_omega_params,
)

# ---------------------------------------------------------------------------
# references: the earlier scatter and gather


def ref_build(params):
    n = params.n
    d = 4 * n + 2
    fld = field(params.exact)
    a1, a2, k, dm = params.blocks()
    out = fld.zeros((d, d))
    e = list(range(n))
    f = list(range(n, 2 * n))
    zs = 2 * n
    es = list(range(2 * n + 1, 3 * n + 1))
    fs = list(range(3 * n + 1, 4 * n + 1))
    z = 4 * n + 1

    def w(a, b, v):
        out[a, b] += v
        out[b, a] -= v

    half = fld.scalar(1) / 2
    for i in range(n):
        for j in range(n):
            if i < j:
                w(e[i], e[j], a1[i, j])
                w(f[i], f[j], a1[i, j])
                w(e[i], es[j], k[i, j])
                w(e[j], es[i], -k[i, j])
                w(f[i], fs[j], k[i, j])
                w(f[j], fs[i], -k[i, j])
            if i <= j:
                w(e[i], f[j], a2[i, j])
                if i < j:
                    w(e[j], f[i], a2[i, j])
            w(e[i], fs[j], dm[i, j])
            w(f[i], es[j], -dm[i, j])
    for i in range(n):
        w(e[i], es[i], -params.mu * half)
        w(f[i], fs[i], -params.mu * half)
    w(zs, z, params.mu)
    if n == 1:
        w(e[0], zs, params.c1)
        w(f[0], z, -params.c1)
        w(f[0], zs, params.c2)
        w(e[0], z, params.c2)
    return out


def ref_extract(omega, n):
    fld = field_of(omega)
    zero = fld.scalar(0)
    a1 = fld.zeros((n, n))
    a2 = fld.zeros((n, n))
    k = fld.zeros((n, n))
    dm = fld.zeros((n, n))
    zs = 2 * n
    z = 4 * n + 1
    es = 2 * n + 1
    fs = 3 * n + 1
    for i in range(n):
        for j in range(n):
            dm[i, j] = omega[i, fs + j]
            if i < j:
                a1[i, j] = omega[i, j]
                a1[j, i] = -a1[i, j]
                k[i, j] = omega[i, es + j]
                k[j, i] = -k[i, j]
            a2[i, j] = omega[i, n + j] if i <= j else omega[j, n + i]
    c1 = omega[0, zs] if n == 1 else zero
    c2 = omega[n, zs] if n == 1 else zero
    return OmegaParams(n=n, a1=a1, a2=a2, k=k, d=dm, mu=omega[zs, z], c1=c1, c2=c2)


# ---------------------------------------------------------------------------


def _same_entries(x, y):
    """Equal shape, dtype, and entries of equal type and value."""
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape and x.dtype == y.dtype
    for a, b in zip(x.ravel().tolist(), y.ravel().tolist()):
        assert type(a) is type(b) and a == b


def _same_params(p, q):
    for name in ("a1", "a2", "k", "d"):
        _same_entries(getattr(p, name), getattr(q, name))
    for name in ("n", "mu", "c1", "c2", "exact"):
        assert type(getattr(p, name)) is type(getattr(q, name))
        assert getattr(p, name) == getattr(q, name)


def _as_float(params):
    def conv(x):
        return np.asarray(x, dtype=float)

    return OmegaParams(n=params.n, a1=conv(params.a1), a2=conv(params.a2), k=conv(params.k),
                       d=conv(params.d), mu=float(params.mu), c1=float(params.c1),
                       c2=float(params.c2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slots_are_distinct_entries_above_the_diagonal(n):
    slots = list(_slots(n))
    cells = [ab for _, _, ab, _ in slots]
    assert len(set(cells)) == len(cells)
    assert all(a < b for a, b in cells)
    first = {}
    for name, index, _, coef in slots:
        first.setdefault((name, index), coef)
    assert set(first.values()) == {1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_build_and_extract_match_the_reference_on_members(n, exact):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        params = random_omega_params(n, rng)
        if not exact:
            params = _as_float(params)
        omega = build_omega(params)
        _same_entries(omega, ref_build(params))
        _same_params(extract_omega_params(omega), ref_extract(omega, n))
        assert matches_omega_template(omega)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("exact", [True, False])
def test_extract_matches_the_reference_off_the_template(n, exact):
    rng = np.random.default_rng(200 + n)
    d = 4 * n + 2
    for _ in range(6):
        raw = rng.integers(-3, 4, size=(d, d))
        omega = raw - raw.T
        omega = fmat(omega) if exact else omega.astype(float)
        _same_params(extract_omega_params(omega), ref_extract(omega, n))
        try:   # a d block read off a non-member need not be symmetric
            expected = bool(np.all(ref_build(ref_extract(omega, n)) == omega))
        except ValueError:
            expected = False
        assert matches_omega_template(omega) is expected
