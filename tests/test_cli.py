"""Command line driver: exit codes, report schema, determinism."""

import json

import numpy as np
import pytest

from heiscot.cli import run
from heiscot.lie_core import build_thn
from heiscot.metric_moduli import random_positive_definite


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_all_n1_passes(capsys):
    code, out = _capture(capsys, ["all", "--n", "1", "--seed", "7"])
    assert code == 0
    assert "FAIL" not in out


def test_n0_is_a_validation_error(capsys):
    assert run(["reduce", "--n", "0"]) == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_json_schema(capsys):
    code, out = _capture(capsys, ["adinv", "--n", "1", "--json"])
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"command", "n", "seed", "checks", "elapsed_ms"}
    assert rep["command"] == "adinv" and rep["n"] == 1 and rep["seed"] == 7
    for c in rep["checks"]:
        assert set(c) == {"name", "status", "detail"}
        assert c["status"] in {"pass", "fail", "inconclusive"}


def test_json_deterministic_modulo_elapsed(capsys):
    def grab():
        _, out = _capture(capsys, ["equiv", "--n", "1", "--json", "--seed", "11"])
        rep = json.loads(out)
        rep.pop("elapsed_ms")
        return json.dumps(rep, sort_keys=True)

    assert grab() == grab()


def test_expected_failures_at_n2(capsys):
    code, out = _capture(capsys, ["algebra", "--n", "2"])
    assert code == 1
    rep_lines = [l for l in out.splitlines() if "FAIL" in l]
    assert len(rep_lines) == 1 and "derivation_dimension" in rep_lines[0]
    assert "41" in rep_lines[0] and "45" in rep_lines[0]


def test_kahler_dimension_failure_reports_correction(capsys):
    code, out = _capture(capsys, ["kahler", "--n", "2"])
    assert code == 1
    line = next(l for l in out.splitlines() if "space_dimension" in l)
    assert "FAIL" in line and "computed 9" in line and "stated 8" in line


def test_curvature_metric_file(tmp_path, capsys):
    g = build_thn(1)
    s = random_positive_definite(g, np.random.default_rng(0))
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": 1, "matrix": s.tolist()}))
    code, out = _capture(capsys, ["curvature", "--n", "1", "--metric", str(path)])
    assert code == 0
    for name in ("connection_ok", "bianchi_ok", "ricci", "signature", "flat"):
        assert name in out


def test_sweep_emits_json_array(capsys):
    code, out = _capture(capsys, ["all", "--json"])
    reports = json.loads(out)
    assert isinstance(reports, list)
    assert {r["n"] for r in reports} == {1, 2, 3}
    assert code == 1, "the sweep hits the known n >= 2 discrepancies"
    failed = {(r["command"], r["n"]) for r in reports
              for c in r["checks"] if c["status"] == "fail"}
    assert failed == {
        ("algebra", 2), ("aut", 2), ("reduce", 2), ("complex", 2), ("kahler", 2),
        ("algebra", 3), ("aut", 3), ("reduce", 3), ("complex", 3), ("kahler", 3),
    }


def _metric_file(tmp_path, payload, raw=None):
    path = tmp_path / "metric.json"
    path.write_text(raw if raw is not None else json.dumps(payload))
    return str(path)


def _spd(n):
    return random_positive_definite(build_thn(n), np.random.default_rng(0)).tolist()


@pytest.mark.parametrize("argv, payload, raw", [
    ([], None, '{"n": 1, "matrix": [[1, 0],'),                    # malformed JSON
    ([], {"n": 2, "matrix": _spd(1)}, None),                       # file n vs its matrix
    (["--n", "1"], {"n": 2, "matrix": _spd(2)}, None),             # file n vs --n
    ([], {"n": 1, "matrix": [[0.0] * 6] * 6}, None),               # singular
    ([], {"n": 1, "matrix": [[1.0] * 6, [2.0] * 6] + [[0.0] * 6] * 4}, None),
    ([], [1, 2, 3], None),                                         # no matrix
])
def test_bad_metric_file_exits_2_with_one_line(tmp_path, capsys, argv, payload, raw):
    path = _metric_file(tmp_path, payload, raw)
    code = run(["curvature", "--metric", path, *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_metric_file_n_used_without_flag(tmp_path, capsys):
    path = _metric_file(tmp_path, {"n": 2, "matrix": _spd(2)})
    code, out = _capture(capsys, ["curvature", "--metric", path, "--json"])
    assert code == 0
    assert json.loads(out)["n"] == 2
