import json
import re

import numpy as np
import pytest

from cli_harness import GOLD, GOLDEN_CASES, run_cli
from samurai import GuaranteeError, Mechanism, certify, cli


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


# the flags each command's handler reads: 35 flag values over seven commands
FLAGS = {
    "validate": {"--env", "--out", "--lambda", "--seed", "--grid", "--format", "--tol"},
    "construct": {"--env", "--out", "--lambda", "--seed", "--grid", "--format"},
    "tighten": {"--env", "--out", "--format", "--mechanism"},
    "check": {"--env", "--out", "--tol", "--mechanism"},
    "compare": {"--env", "--out", "--tol", "--mechanism"},
    "bruteforce": {"--env", "--out", "--mechanism", "--types", "--q", "--refund-levels", "--mode"},
    "export": {"--env", "--out", "--mechanism"},
}


@pytest.mark.parametrize("command", FLAGS)
def test_help_lists_exactly_the_flags_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == FLAGS[command] | {"--help"}


def test_handlers_read_every_registered_flag(tmp_path, monkeypatch):
    reads = {name: set() for name in FLAGS}
    registered = {name: set() for name in FLAGS}

    class Recorder:
        def __init__(self, args):
            self._args = args

        def __getattr__(self, name):
            reads[self._args.command].add(name)
            return getattr(self._args, name)

    for name, handler in list(cli._HANDLERS.items()):
        monkeypatch.setitem(cli._HANDLERS, name, lambda args, handler=handler: handler(Recorder(args)))
    monkeypatch.chdir(GOLD)
    for expect_code, golden, argv in GOLDEN_CASES:
        argv = [*argv, "--out", str(tmp_path / golden)]
        registered[argv[0]] |= set(vars(cli.build_parser().parse_args(argv))) - {"command"}
        assert cli.main(argv) == expect_code
    assert reads == registered


USAGE_ERRORS = {
    "unknown flag": ["check", "--env", "env_lin.json", "--mechanism", "construct_debt.json", "--verbose"],
    "export --format json": ["export", "--env", "env_lin.json", "--mechanism", "construct_debt.json", "--format", "json"],
    "check --grid 1": ["check", "--env", "env_lin.json", "--mechanism", "construct_debt.json", "--grid", "1"],
    "construct --tol": ["construct", "--env", "env_lin.json", "--lambda", "lambda_debt.json", "--tol", "1e-9"],
    "lambda and seed": ["construct", "--env", "env_lin.json", "--lambda", "x", "--seed", "7"],
    "neither lambda nor seed": ["construct", "--env", "env_lin.json"],
    "bad format": ["validate", "--env", "env_lin.json", "--lambda", "lambda_debt.json", "--format", "xml"],
    "bad mode": ["bruteforce", "--env", "env_lin.json", "--mechanism", "m.json", "--types", "0,1", "--mode", "x"],
    "missing env": ["export", "--mechanism", "construct_debt.json"],
    "no command": [],
    "tighten, two mechanisms": ["tighten", "--env", "env_lin.json", "--mechanism", "construct_debt.json",
                                "--mechanism", "nope.json"],
    "check, two mechanisms": ["check", "--env", "env_lin.json", "--mechanism", "construct_debt.json",
                              "--mechanism", "nope.json"],
    "bruteforce, two mechanisms": ["bruteforce", "--env", "env_lin.json", "--mechanism", "construct_debt.json",
                                   "--mechanism", "nope.json", "--types", "0,1"],
    "export, two mechanisms": ["export", "--env", "env_lin.json", "--mechanism", "construct_debt.json",
                               "--mechanism", "nope.json"],
    "compare, one mechanism": ["compare", "--env", "env_lin.json", "--mechanism", "construct_debt.json"],
    "check --tol nan": ["check", "--env", "env_lin.json", "--mechanism", "construct_debt.json", "--tol", "nan"],
    "check --tol -1": ["check", "--env", "env_lin.json", "--mechanism", "construct_debt.json", "--tol", "-1"],
    "validate --tol inf": ["validate", "--env", "env_lin.json", "--lambda", "lambda_debt.json", "--tol", "inf"],
    "compare --tol -1e-9": ["compare", "--env", "env_lin.json", "--mechanism", "construct_debt.json",
                            "--mechanism", "construct_debt.json", "--tol", "-1e-9"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_1_with_one_line(argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLD)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]+\n", captured.err)


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


def test_csv_rows_match_per_value_format():
    rng = np.random.default_rng(12)
    n = 500
    columns = [rng.normal(size=n) * 10.0 ** rng.integers(-20, 21, n) for _ in range(9)]
    columns[0][:6] = [0.0, -0.0, 1e16, -1e16, 5e-324, 0.1 + 0.2]
    columns.append(np.arange(n))  # an integer column prints like its floats
    header = [f"c{i}" for i in range(len(columns))]
    rows = [",".join(f"{float(col[i]):.12g}" for col in columns) for i in range(n)]
    assert cli._csv(header, columns) == "\n".join([",".join(header)] + rows) + "\n"


def test_check_computes_core_clauses_once(tmp_path, monkeypatch):
    calls = []
    core_clauses = certify._core_clauses

    def counted(*args):
        calls.append(args)
        return core_clauses(*args)

    monkeypatch.setattr(certify, "_core_clauses", counted)
    for golden, mechanism in (("check_debt.json", "construct_debt.json"), ("check_wasteful.json", "mech_wasteful.json")):
        out = tmp_path / golden
        cli.main(["check", "--env", str(GOLD / "env_lin.json"), "--mechanism", str(GOLD / mechanism), "--out", str(out)])
        assert out.read_bytes() == (GOLD / golden).read_bytes()
    assert len(calls) == 2


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    argv = ["validate", "--env", str(GOLD / "env_lin.json"), "--lambda", str(GOLD / "lambda_debt.json")]
    assert [cli.main(argv) for _ in range(3)] == [0, 0, 0]
    assert len(built) == 1
    capsys.readouterr()
