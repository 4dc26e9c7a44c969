"""Automorphisms from keyword blocks.

``assemble(g, Fbar1=..., u1=..., v1=..., f1=..., F3=...)`` fills a block
left out with the identity's and lets the blocks choose the field.  The
reference below is the earlier builder, a frozen ``AutParams`` record of
all five blocks with ``identity_params`` for the identity, kept here so
that the keyword form is checked against it: float results bit for bit,
exact ones entry by entry and as Fractions, and rejections by their
message.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from heiscot._exact import FLOAT, feye, field, field_of, fmat, fzeros, is_exact, maxabs, negligible
from heiscot.automorphism import assemble, bracket_defect, random_conformal_symplectic
from heiscot.lie_core import LieAlgebra, build_heisenberg, build_thn, standard_symplectic

NAMES = ("Fbar1", "u1", "v1", "f1", "F3")

# ---------------------------------------------------------------------------
# reference: the earlier record of all five blocks and its assembly


@dataclass(frozen=True)
class AutParams:
    Fbar1: np.ndarray
    u1: np.ndarray
    v1: np.ndarray
    f1: object
    F3: np.ndarray

    @property
    def n(self) -> int:
        return self.Fbar1.shape[0] // 2

    @property
    def exact(self) -> bool:
        return field_of(self.Fbar1, self.u1, self.v1, self.f1, self.F3).exact

    def f4(self):
        n = self.n
        fld = field(self.exact)
        j = standard_symplectic(n, exact=fld.exact)
        fb1 = fld.array(self.Fbar1)
        m = fb1.T @ j @ fb1
        f4 = m[0, n] / j[0, n]
        if not negligible(maxabs(m - f4 * j), 1e-12, m):
            raise ValueError("Fbar1 is not conformal symplectic")
        if f4 == 0:
            raise ValueError("conformal factor f4 must be nonzero")
        return f4


def identity_params(n: int, exact: bool = False) -> AutParams:
    fld = field(exact)
    return AutParams(Fbar1=fld.eye(2 * n), u1=fld.zeros(2 * n), v1=fld.zeros(2 * n),
                     f1=fld.scalar(1), F3=fld.zeros((2 * n + 1, 2 * n + 1)))


def ref_assemble(params: AutParams, g: LieAlgebra) -> np.ndarray:
    n = params.n
    if g.n != n or g.dim != 4 * n + 2:
        raise ValueError("algebra/params dimension mismatch")
    fld = field(params.exact)
    f4 = params.f4()
    f1 = fld.scalar(params.f1)
    if f1 == 0:
        raise ValueError("f1 must be nonzero")
    j = standard_symplectic(n, exact=fld.exact)
    fb1 = fld.array(params.Fbar1)
    u1 = fld.array(params.u1)
    v1 = fld.array(params.v1)
    f3 = fld.array(params.F3)
    fb1_inv = fld.inv(fb1)
    cross = u1 @ fb1_inv @ v1
    if negligible(f1 - cross, 1e-12, f1, cross):
        raise ValueError("F1 block is singular (f1 - u1^T Fbar1^{-1} v1 = 0)")
    fb4 = f1 * f4 * fb1_inv.T - np.outer(j @ v1, j @ u1)
    v4 = -f4 * (fb1_inv.T @ u1)
    u4 = -f4 * (fb1_inv @ v1)
    d = 4 * n + 2
    m = 2 * n + 1
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
    defect = bracket_defect(out, g)
    if not negligible(defect, 1e-12, out, power=2):
        hint = ""
        if n >= 2 and any(x != 0 for x in u1):
            hint = " (u1 must vanish for n >= 2: the center-pairing constraints admit no nonzero solution)"
        raise ValueError(f"assembled matrix fails bracket preservation, defect {defect}{hint}")
    return out


# ---------------------------------------------------------------------------
# the keyword form against the reference


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def assert_same(keyword: dict, params: AutParams, g: LieAlgebra):
    """assemble(g, **keyword) and the reference on params agree in field, value and message."""
    new = _outcome(lambda: assemble(g, **keyword).matrix)
    ref = _outcome(lambda: ref_assemble(params, g))
    if isinstance(ref, str):
        assert new == ref
    elif params.exact:
        assert new.dtype == object and all(type(x) is Fraction for x in new.ravel())
        assert (new == ref).all()
    else:
        assert new.dtype == ref.dtype == np.float64
        assert np.array_equal(new, ref)


def _draw(n, rng, kind):
    """Random blocks as random_automorphism draws them; "mixed" makes one exact block float."""
    fld = field(kind != "float")
    u1 = rng.integers(-2, 3, size=2 * n) if n == 1 else np.zeros(2 * n, dtype=int)
    blocks = {
        "Fbar1": random_conformal_symplectic(n, rng, exact=fld.exact),
        "u1": fld.array(u1) / 2,
        "v1": fld.array(rng.integers(-2, 3, size=2 * n)) / 2,
        "f1": fld.scalar(int(rng.choice([-3, -2, -1, 1, 2, 3]))) / 2,
        "F3": fld.array(rng.integers(-2, 3, size=(2 * n + 1, 2 * n + 1))),
    }
    if kind == "mixed":
        name = NAMES[int(rng.integers(len(NAMES)))]
        blocks[name] = float(blocks[name]) if name == "f1" else FLOAT.array(blocks[name])
    return blocks


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_random_blocks_match_the_reference(n, kind):
    rng = np.random.default_rng(100 * n + len(kind))
    g = build_thn(n)
    for _ in range(3):
        blocks = _draw(n, rng, kind)
        assert_same(blocks, AutParams(**blocks), g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_defaults_match_the_reference(n):
    g = build_thn(n)
    m = 2 * n + 1
    exact_f3 = fmat(np.arange(m * m).reshape(m, m)) / 3
    float_f3 = np.arange(m * m, dtype=float).reshape(m, m) / 3
    assert_same({}, identity_params(n, exact=True), g)
    assert_same({"F3": exact_f3}, replace(identity_params(n, exact=True), F3=exact_f3), g)
    for exact in (True, False):
        # a float block makes the whole automorphism float, whatever the identity's field
        assert_same({"F3": float_f3}, replace(identity_params(n, exact), F3=float_f3), g)
        assert_same({"f1": 0.5}, replace(identity_params(n, exact), f1=0.5), g)


@pytest.mark.parametrize("n", [1, 2])
def test_rejections_match_the_reference(n):
    g = build_thn(n)
    two_n = 2 * n
    # at n = 1 every invertible Fbar1 is conformal symplectic (f4 = det), so take a singular one
    not_conformal = feye(two_n)
    not_conformal[0, 0] = Fraction(2) if n >= 2 else Fraction(0)
    u1 = fzeros(two_n)
    u1[0] = Fraction(1)
    # f1 - u1^T Fbar1^{-1} v1 = 0 (at n >= 2, where u1 = 0, only with f1 = 0)
    singular = {"u1": u1, "v1": u1} if n == 1 else {"f1": Fraction(0)}
    cases = [
        {"Fbar1": fzeros((two_n, two_n))},
        {"Fbar1": not_conformal},
        {"Fbar1": FLOAT.array(not_conformal)},
        {"f1": Fraction(0)},
        {"f1": 0.0},
        singular,
        {"u1": u1},
    ]
    for keyword in cases:
        assert_same(keyword, replace(identity_params(n, exact=True), **keyword), g)
    # every case but the last (nonzero u1 assembles at n = 1 only) is rejected
    assert all(isinstance(_outcome(lambda kw=kw: assemble(g, **kw)), str) for kw in cases[:-1])
    assert isinstance(_outcome(lambda: assemble(g, u1=u1)), str) == (n >= 2)


@pytest.mark.parametrize("name, block", [
    ("Fbar1", feye(3)),
    ("Fbar1", feye(2)),           # the n = 1 block on the n = 2 algebra
    ("u1", fzeros(5)),
    ("v1", np.zeros(3)),
    ("f1", fmat([1])),
    ("F3", fzeros((4, 4))),
])
def test_a_block_of_the_wrong_shape_is_named(name, block):
    with pytest.raises(ValueError, match=f"block {name} has shape"):
        assemble(build_thn(2), **{name: block})


def test_an_algebra_other_than_thn_is_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        assemble(build_heisenberg(1))


def test_exact_conformal_factor_decides_beyond_float_range():
    # f4 = 10^800 from the one bilinear form, and the congruence is exact
    g = build_thn(2)
    huge = 10 ** 400
    a = assemble(g, Fbar1=huge * feye(4))
    assert a.matrix[-1, -1] == huge ** 2 and bracket_defect(a.matrix, g) == 0
    off = huge * feye(4)
    off[0, 1] = Fraction(1, huge)
    with pytest.raises(ValueError, match="not conformal symplectic"):
        assemble(g, Fbar1=off)
    assert not is_exact(assemble(g, Fbar1=np.eye(4)).matrix)
