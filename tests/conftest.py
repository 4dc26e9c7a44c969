import numpy as np
import pytest

from heiscot.lie_core import build_thn


@pytest.fixture(scope="session")
def algebras():
    """T*h(2n+1) for n = 1..4, built once."""
    return {n: build_thn(n) for n in (1, 2, 3, 4)}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
