"""The benchmark's own tests.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Span, Tracer, metric_names, self_times  # noqa: E402
from workloads import CATALOG_FAILS, DEFAULT_SEED, UNGATED, WORKLOADS, load_digests  # noqa: E402


def _bindings() -> dict:
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "heiscot" or name.startswith("heiscot."))
            for attr, val in vars(mod).items() if callable(val)}


def _span(name, start, end, parent):
    return Span(name, start, end, parent, 0, start, end)


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("b1", 6.0, 7.0, 2),
        _span("b2", 6.5, 8.0, 2),      # overlaps b1: covered once
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_self_time_excludes_child_bookkeeping():
    child = Span("c", 2.0, 3.0, 0, 0, 1.5, 3.5)
    assert self_times([_span("p", 0.0, 5.0, -1), child]) == pytest.approx([3.0, 1.0])


def test_tracer_restores_every_binding():
    import heiscot.cli  # noqa: F401

    before = _bindings()
    with Tracer():
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # aliases are swapped too: curvature imports _exact.inv under another name
        assert ("heiscot.curvature", "_exact_inv") in changed
        assert ("heiscot.cli", "levi_civita") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name, n", [("kahler_sparse", 1), ("curvature_dense", 2), ("moduli_float", 2)])
def test_op_identical_with_and_without_tracer(name, n):
    w = WORKLOADS[name]
    inputs = w.setup(DEFAULT_SEED, n=n, **({"cycles": 1} if name == "moduli_float" else {"count": 2}))
    for inp in inputs:
        plain = w.run(inp)
        with Tracer() as tracer:
            traced = w.run(inp)
        assert tracer.spans
        assert w.check(inp, plain) is None and w.check(inp, traced) is None
        if w.digest is not None:
            assert w.digest(traced) == w.digest(plain)
        elif hasattr(plain, "verdict"):
            assert traced.verdict == plain.verdict
        else:
            assert (traced.matrix == plain.matrix).all()


def test_catalog_op_identical_with_and_without_tracer():
    w = WORKLOADS["catalog"]
    strip = lambda out: [{**r, "elapsed_ms": None} for r in out[1]]  # noqa: E731
    plain = w.run(DEFAULT_SEED, ("--n", "1"))
    with Tracer() as tracer:
        traced = w.run(DEFAULT_SEED, ("--n", "1"))
    assert tracer.metrics(1.0, {})["lie_core.build_thn.calls"] > 0
    assert traced[0] == plain[0] == 0
    assert strip(traced) == strip(plain)


def test_pinned_catalog_table_matches_fresh_sweep():
    w = WORKLOADS["catalog"]
    cli_seed = w.setup(DEFAULT_SEED)[0]
    out = w.run(cli_seed)
    assert w.check(cli_seed, out) is None
    fails = {(r["command"], r["n"], c["name"]) for r in out[1] for c in r["checks"]
             if c["status"] != "pass"}
    assert fails == CATALOG_FAILS and len(fails) == 10
    assert w.digest(out) == load_digests()["catalog"]["0"]


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n not in UNGATED]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
