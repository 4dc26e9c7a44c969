"""The benchmark's output oracle, run on the current tree.

``perfbench/workloads.py`` is loaded read-only: one catalog sweep at the
pinned seed must pass the catalog check (only ``pass``/``fail`` statuses,
exactly the designed fails) and reproduce the pinned digest of statuses
and float-free details; every op of the seed-1 ``moduli_float`` pool
must pass that workload's check.
"""


def test_catalog_sweep_passes_oracle_and_pinned_digest(workloads):
    w = workloads.WORKLOADS["catalog"]
    seed = workloads.DEFAULT_SEED
    (inp,) = w.setup(seed)
    out = w.run(inp)
    assert w.check(inp, out) is None
    assert w.digest(out) == workloads.load_digests()["catalog"]["0"]


def test_moduli_float_pool_passes_oracle(workloads):
    w = workloads.WORKLOADS["moduli_float"]
    pool = w.setup(workloads.DEFAULT_SEED)
    assert [inp[0] for inp in pool[:len(workloads.MODULI_CYCLE)]] == list(workloads.MODULI_CYCLE)
    for inp in pool:
        assert w.check(inp, w.run(inp)) is None
