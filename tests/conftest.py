import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from heiscot.lie_core import build_thn

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def algebras():
    """T*h(2n+1) for n = 1..4, built once."""
    return {n: build_thn(n) for n in (1, 2, 3, 4)}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]
