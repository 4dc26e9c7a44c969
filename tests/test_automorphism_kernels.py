"""Integer kernels of the automorphism layer against the dense references.

The exact ``bracket_defect``, ``Automorphism.__matmul__``, ``assemble``
and ``random_conformal_symplectic`` run on Python ints over one
denominator, and float ``assemble`` and ``bracket_defect`` skip repeated
set-up work.  The references below are the earlier bodies, on dense
``Fraction`` object arrays and plain float64 products; every result must
match them: exact ones entry by entry and as Fractions, float ones with
``np.array_equal`` (``bracket_defect`` bit for bit), rejections by their
message, and random draws together with the generator state they leave.
"""

from fractions import Fraction

import numpy as np
import pytest

from heiscot import _exact
from heiscot._exact import FLOAT, feye, field, field_of, fmat, fzeros, maxabs, negligible
from heiscot.automorphism import (Automorphism, assemble, bracket_defect, random_automorphism,
                                  random_conformal_symplectic)
from heiscot.lie_core import LieAlgebra, build_heisenberg, build_thn, standard_symplectic

NS = (1, 2, 3, 4, 5)
NAMES = ("Fbar1", "u1", "v1", "f1", "F3")

# ---------------------------------------------------------------------------
# references: the dense bodies


def ref_bracket_defect(m: np.ndarray, g: LieAlgebra):
    if _exact.is_exact(m):
        sm = _exact.SparseQ.from_dense(m)
        cols = sm.T.rows
        worst = Fraction(0)
        for i in range(g.dim):
            diff = sm @ _exact.ad(g, {i: 1}) - _exact.ad(g, cols.get(i, {}), sm.den) @ sm
            worst = max(worst, diff.maxabs())
        return worst
    iu, ju = np.triu_indices(g.dim, 1)
    a, b = np.array(sorted({(i, j) for i, j, _, _ in g.constants}), dtype=int).reshape(-1, 2).T
    c = g.structure_tensor
    mt = m.T
    mi, mj = mt[iu], mt[ju]
    minors = mi[:, a] * mj[:, b] - mi[:, b] * mj[:, a]
    return _exact.maxabs(c[iu, ju] @ mt - minors @ c[a, b])


def ref_conformal_factor(fb1, j):
    n = len(fb1) // 2
    if _exact.is_exact(fb1):
        f4 = -(fb1[:, 0] @ j @ fb1[:, n])
        conformal = _exact.congruence_defect(fb1, j, f4 * j) == 0
    else:
        m = fb1.T @ j @ fb1
        f4 = m[0, n] / j[0, n]
        conformal = negligible(maxabs(m - f4 * j), 1e-12, m)
    if not conformal:
        raise ValueError("Fbar1 is not conformal symplectic")
    if f4 == 0:
        raise ValueError("conformal factor f4 must be nonzero")
    return f4


def ref_assemble(g, *, Fbar1=None, u1=None, v1=None, f1=1, F3=None) -> np.ndarray:
    n = g.n
    if n is None or g.dim != 4 * n + 2:
        raise ValueError("algebra dimension mismatch: assemble needs T*h(2n+1)")
    m = 2 * n + 1
    shapes = {"Fbar1": (2 * n, 2 * n), "u1": (2 * n,), "v1": (2 * n,), "f1": (), "F3": (m, m)}
    for name, block in zip(shapes, (Fbar1, u1, v1, f1, F3)):
        if block is not None and np.shape(block) != shapes[name]:
            raise ValueError(f"block {name} has shape {np.shape(block)}, "
                             f"expected {shapes[name]} for n = {n}")
    fld = field_of(Fbar1, u1, v1, f1, F3)
    fb1 = fld.eye(2 * n) if Fbar1 is None else fld.array(Fbar1)
    u1 = fld.zeros(2 * n) if u1 is None else fld.array(u1)
    v1 = fld.zeros(2 * n) if v1 is None else fld.array(v1)
    f1 = fld.scalar(f1)
    f3 = fld.zeros((m, m)) if F3 is None else fld.array(F3)
    j = standard_symplectic(n, exact=fld.exact)
    f4 = ref_conformal_factor(fb1, j)
    if f1 == 0:
        raise ValueError("f1 must be nonzero")
    fb1_inv = fld.inv(fb1)
    cross = u1 @ fb1_inv @ v1
    if negligible(f1 - cross, 1e-12, f1, cross):
        raise ValueError("F1 block is singular (f1 - u1^T Fbar1^{-1} v1 = 0)")
    fb4 = f1 * f4 * fb1_inv.T - np.outer(j @ v1, j @ u1)
    v4 = -f4 * (fb1_inv.T @ u1)
    u4 = -f4 * (fb1_inv @ v1)
    d = 4 * n + 2
    out = fld.zeros((d, d))
    out[: 2 * n, : 2 * n] = fb1
    out[: 2 * n, 2 * n] = v1
    out[2 * n, : 2 * n] = u1
    out[2 * n, 2 * n] = f1
    out[m:, :m] = f3
    out[m : m + 2 * n, m : m + 2 * n] = fb4
    out[m : m + 2 * n, m + 2 * n] = v4
    out[m + 2 * n, m : m + 2 * n] = u4
    out[m + 2 * n, m + 2 * n] = f4
    defect = ref_bracket_defect(out, g)
    if not negligible(defect, 1e-12, out, power=2):
        hint = ""
        if n >= 2 and any(x != 0 for x in u1):
            hint = " (u1 must vanish for n >= 2: the center-pairing constraints admit no nonzero solution)"
        raise ValueError(f"assembled matrix fails bracket preservation, defect {defect}{hint}")
    return out


def ref_random_conformal_symplectic(n, rng, exact=False):
    fld = field(exact)
    j = standard_symplectic(n, exact=exact)
    out = fld.eye(2 * n)
    for _ in range(3):
        v = fld.array(rng.integers(-2, 3, size=2 * n))
        c = fld.scalar(int(rng.integers(-1, 2))) / 2
        out = out - c * np.outer(out @ v, j @ v)
    return fld.scalar(int(rng.integers(1, 4))) / 2 * out


def ref_random_automorphism(n, g, rng, exact=False) -> np.ndarray:
    fld = field(exact)

    def vec(free):
        vals = rng.integers(-2, 3, size=2 * n) if free else np.zeros(2 * n, dtype=int)
        return fld.array(vals) / 2

    for _ in range(64):
        fb1 = ref_random_conformal_symplectic(n, rng, exact=exact)
        u1 = vec(n == 1)
        v1 = vec(True)
        f1 = fld.scalar(int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)) / 2
        f3 = fld.array(rng.integers(-2, 3, size=(2 * n + 1, 2 * n + 1)))
        try:
            out = ref_assemble(g, Fbar1=fb1, u1=u1, v1=v1, f1=f1, F3=f3)
        except ValueError:
            continue
        if exact or np.linalg.cond(out) <= 3e4:
            return out
    raise RuntimeError("no acceptable draw in 64 tries; check the generator state")


# ---------------------------------------------------------------------------
# comparisons


def assert_same_array(new, ref):
    """Exact: entry by entry and every entry a Fraction; float: the same float64 bytes."""
    if _exact.is_exact(ref):
        assert new.dtype == object and all(type(x) is Fraction for x in new.ravel())
        assert new.shape == ref.shape and (new == ref).all()
    else:
        assert new.dtype == ref.dtype == np.float64
        # bytes, so that a signed zero differing from the reference shows
        assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def assert_same_assembly(g, blocks: dict):
    new = _outcome(lambda: assemble(g, **blocks).matrix)
    ref = _outcome(lambda: ref_assemble(g, **blocks))
    if isinstance(ref, str):
        assert new == ref
    else:
        assert_same_array(new, ref)


def _draw(n, rng, kind):
    """Random blocks as random_automorphism draws them; "mixed" makes one exact block float."""
    fld = field(kind != "float")
    u1 = rng.integers(-2, 3, size=2 * n) if n == 1 else np.zeros(2 * n, dtype=int)
    blocks = {
        "Fbar1": ref_random_conformal_symplectic(n, rng, exact=fld.exact),
        "u1": fld.array(u1) / 2,
        "v1": fld.array(rng.integers(-2, 3, size=2 * n)) / 2,
        "f1": fld.scalar(int(rng.choice([-3, -2, -1, 1, 2, 3]))) / 2,
        "F3": fld.array(rng.integers(-2, 3, size=(2 * n + 1, 2 * n + 1))),
    }
    if kind == "mixed":
        name = NAMES[int(rng.integers(len(NAMES)))]
        blocks[name] = float(blocks[name]) if name == "f1" else FLOAT.array(blocks[name])
    return blocks


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_random_blocks_assemble_as_the_reference(n, kind):
    rng = np.random.default_rng(300 + 10 * n + len(kind))
    g = build_thn(n)
    for _ in range(3):
        blocks = _draw(n, rng, kind)
        assert_same_assembly(g, blocks)
        # and each block alone on the identity's defaults
        for name in NAMES:
            assert_same_assembly(g, {name: blocks[name]})


@pytest.mark.parametrize("n", NS)
def test_identity_defaults_assemble_as_the_reference(n):
    g = build_thn(n)
    m = 2 * n + 1
    exact_f3 = fmat(np.arange(m * m).reshape(m, m)) / 3
    float_f3 = np.arange(m * m, dtype=float).reshape(m, m) / 3
    for blocks in ({}, {"F3": exact_f3}, {"F3": float_f3}, {"f1": 0.5}, {"f1": Fraction(-2, 3)},
                   {"v1": np.arange(2 * n) / 4}, {"v1": fmat(np.arange(2 * n)) / 4},
                   {"Fbar1": feye(2 * n)}, {"Fbar1": np.eye(2 * n)}):
        assert_same_assembly(g, blocks)


@pytest.mark.parametrize("n", NS)
def test_rejections_keep_their_messages_in_both_fields(n):
    g = build_thn(n)
    two_n = 2 * n
    # at n = 1 every invertible Fbar1 is conformal symplectic (f4 = det), so take a singular one
    not_conformal = feye(two_n)
    not_conformal[0, 0] = Fraction(2) if n >= 2 else Fraction(0)
    u1 = fzeros(two_n)
    u1[0] = Fraction(1)
    big_u1 = fmat(np.arange(1, two_n + 1)) / 3
    # f1 - u1^T Fbar1^{-1} v1 = 0 (at n >= 2, where u1 = 0, only with f1 = 0)
    singular = {"u1": u1, "v1": u1} if n == 1 else {"f1": Fraction(0)}
    cases = [
        {"Fbar1": fzeros((two_n, two_n))},
        {"Fbar1": not_conformal},
        {"f1": Fraction(0)},
        singular,
        {"u1": u1},
        {"u1": big_u1, "Fbar1": 2 * feye(two_n)},
        {"F3": fzeros((two_n, two_n))},
    ]
    for blocks in cases:
        for fld in (_exact.EXACT, FLOAT):
            coerced = {k: (fld.scalar(v) if k == "f1" else fld.array(v)) for k, v in blocks.items()}
            assert_same_assembly(g, coerced)
            # every case but a nonzero u1 without v1 (which assembles at n = 1 only) is rejected
            rejected = isinstance(_outcome(lambda b=coerced: assemble(g, **b)), str)
            assert rejected == (n >= 2 or "u1" not in blocks or "v1" in blocks)
    h = build_heisenberg(n)
    for f1 in (Fraction(1), 1.0):
        assert _outcome(lambda: assemble(h, f1=f1)) == _outcome(lambda: ref_assemble(h, f1=f1))
    hint = "u1 must vanish for n >= 2"
    for block in (u1, FLOAT.array(u1)):
        assert (hint in str(_outcome(lambda b=block: assemble(g, u1=b)))) == (n >= 2)


@pytest.mark.parametrize("n", NS)
def test_bracket_defect_matches_the_reference(n):
    g = build_thn(n)
    rng = np.random.default_rng(400 + n)
    for exact in (True, False):
        for _ in range(3):
            f = random_automorphism(n, g, rng, exact=exact).matrix
            if exact:
                assert ref_bracket_defect(f, g) == bracket_defect(f, g) == 0
            perturbed = f.copy()
            i, k = rng.integers(g.dim, size=2)
            perturbed[i, k] += Fraction(1, 7) if exact else 1 / 7
            new, ref = bracket_defect(perturbed, g), ref_bracket_defect(perturbed, g)
            if exact:
                assert type(new) is Fraction and new == ref
            else:
                assert np.float64(new).tobytes() == np.float64(ref).tobytes()
                assert np.float64(bracket_defect(f, g)).tobytes() == np.float64(ref_bracket_defect(f, g)).tobytes()
    # a nonzero defect on a matrix that is no automorphism, in both fields
    bad = feye(g.dim)
    bad[0, 1] = Fraction(1, 7)
    assert bracket_defect(bad, g) == ref_bracket_defect(bad, g) != 0
    assert bracket_defect(FLOAT.array(bad), g) == ref_bracket_defect(FLOAT.array(bad), g) != 0


@pytest.mark.parametrize("n", NS)
def test_composition_matches_the_dense_product(n):
    g = build_thn(n)
    rng = np.random.default_rng(500 + n)
    a, b = (random_automorphism(n, g, rng, exact=True) for _ in range(2))
    assert_same_array((a @ b).matrix, a.matrix @ b.matrix)
    c, e = (random_automorphism(n, g, rng) for _ in range(2))
    assert_same_array((c @ e).matrix, c.matrix @ e.matrix)
    # a float operand keeps the dense object product
    mixed = Automorphism(a.matrix) @ Automorphism(c.matrix)
    assert mixed.matrix.dtype == object and np.array_equal(mixed.matrix.astype(float),
                                                           (a.matrix @ c.matrix).astype(float))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("exact", [True, False])
def test_conformal_symplectic_draws_match_the_reference(n, exact):
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = random_conformal_symplectic(n, rng, exact=exact)
        ref = ref_random_conformal_symplectic(n, ref_rng, exact=exact)
        assert_same_array(new, ref)
        if not exact:
            assert new.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", NS)
def test_exact_automorphism_draws_match_the_reference(n):
    g = build_thn(n)
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_array(random_automorphism(n, g, rng, exact=True).matrix,
                          ref_random_automorphism(n, g, ref_rng, exact=True))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
