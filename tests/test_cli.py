import json

import numpy as np
import pytest

from cli_harness import GOLD, GOLDEN_CASES, run_cli
from samurai import GuaranteeError, Mechanism, cli


@pytest.mark.parametrize("expect_code,golden,argv", GOLDEN_CASES, ids=[c[1] for c in GOLDEN_CASES])
def test_golden_byte_identical(tmp_path, expect_code, golden, argv):
    out = tmp_path / golden
    res = run_cli(*argv, out=out)
    assert res.returncode == expect_code, res.stderr
    assert out.read_bytes() == (GOLD / golden).read_bytes()


def test_construct_json_roundtrip(tmp_path):
    out = tmp_path / "m.json"
    res = run_cli("construct", "--env", "env_lin.json", "--lambda", "lambda_debt.json", "--grid", "21", out=out)
    assert res.returncode == 0
    direct = Mechanism.from_dict(json.loads((GOLD / "construct_debt.json").read_text()))
    again = Mechanism.from_dict(json.loads(out.read_text()))
    assert np.array_equal(direct.grid, again.grid)
    assert np.array_equal(direct.a, again.a)
    assert np.array_equal(direct.r_p, again.r_p)
    assert np.array_equal(direct.r_empty, again.r_empty)


def test_malformed_json_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken')
    res = run_cli("validate", "--env", "env_lin.json", "--lambda", str(bad))
    assert res.returncode == 1
    assert res.stderr.startswith("error: malformed JSON in ")
    assert "line" in res.stderr


def test_missing_file_is_usage_error():
    res = run_cli("validate", "--env", "env_lin.json", "--lambda", "nope.json")
    assert res.returncode == 1
    assert "error: file not found: nope.json" in res.stderr


def test_missing_required_flag():
    res = run_cli("tighten", "--env", "env_lin.json")
    assert res.returncode == 1
    assert "--mechanism" in res.stderr


def test_grid_too_small():
    res = run_cli("construct", "--env", "env_lin.json", "--lambda", "lambda_debt.json", "--grid", "1")
    assert res.returncode == 1
    assert "error: --grid must be >= 2" in res.stderr


def test_compare_grid_mismatch(tmp_path):
    res = run_cli(
        "compare", "--env", "env_lin.json",
        "--mechanism", "construct_debt.json", "--mechanism", "mech_lattice_debt.json",
        out=tmp_path / "cmp.json",
    )
    assert res.returncode == 2


def test_stdout_when_no_out_flag():
    res = run_cli("validate", "--env", "env_lin.json", "--lambda", "lambda_debt.json")
    assert json.loads(res.stdout)["valid"] is True


def test_csv_line_endings_are_lf():
    data = (GOLD / "export_debt.csv").read_bytes()
    assert b"\r" not in data
    header = data.split(b"\n", 1)[0].decode()
    assert header == "x,a,r_p,r_empty,R,U,Pi,lambda_m,alpha,beta"


def test_tighten_far_from_unit_interval(tmp_path):
    env = {"x_lo": 0.0, "x_hi": 1e6, "tau": 5e5, "cost": {"kind": "linear", "k": 0.1, "p": 1.0}}
    (tmp_path / "env.json").write_text(json.dumps(env))
    res = run_cli("construct", "--env", str(tmp_path / "env.json"), "--seed", "0", "--grid", "401", out=tmp_path / "m.json")
    assert res.returncode == 0, res.stderr
    res = run_cli("tighten", "--env", str(tmp_path / "env.json"), "--mechanism", str(tmp_path / "m.json"), out=tmp_path / "t.json")
    assert res.returncode == 0, res.stderr


def test_guarantee_error_is_one_line(monkeypatch, capsys):
    def violated(m, env):
        raise GuaranteeError("tightening guarantee violated: profit fell by 1e-06")

    monkeypatch.setattr(cli, "run_tighten", violated)
    code = cli.main(["tighten", "--env", str(GOLD / "env_lin.json"), "--mechanism", str(GOLD / "construct_debt.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: tightening guarantee violated: profit fell by 1e-06\n"


@pytest.mark.parametrize("extra", [
    ["check"],
    ["compare", "--mechanism", str(GOLD / "construct_debt.json")],
    ["bruteforce", "--types", "0,0.5,1", "--q", "1"],
], ids=["check", "compare", "bruteforce"])
def test_non_finite_mechanism_is_one_line(tmp_path, capsys, extra):
    data = json.loads((GOLD / "construct_debt.json").read_text())
    data["a"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    code = cli.main([extra[0], "--env", str(GOLD / "env_lin.json"), "--mechanism", str(bad), *extra[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: a must be finite\n"
