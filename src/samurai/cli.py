"""Command-line front end.

Seven commands: validate, construct, tighten, check, compare, bruteforce,
export.  Exit code 0 means success or a passing verdict, 2 a semantic
negative (invalid loss function, refuted certificate, dominated mechanism),
1 a usage or I/O error or a failed internal guarantee.  Outputs are
byte-stable for fixed inputs and seed: JSON keys are sorted and CSV numbers
carry 12 significant digits with dot decimals, comma delimiters, and LF line
endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import certify, constructor, oracle
from .audit_schedule import AuditSchedule
from .environment import Environment
from .errors import (
    DomainError,
    GridMismatchError,
    GuaranteeError,
    InstanceSizeError,
    LambdaValidationError,
    PreconditionError,
    RoundingError,
)
from .lambda_space import (
    lambda_violations,
    random_loss_function,
    validate_lambda,
)
from .mechanism import Mechanism, check_feasible, report
from .pwl import PwlFunction
from .tighten import tighten as run_tighten

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2

COMMANDS = ("validate", "construct", "tighten", "check", "compare", "bruteforce", "export")


@dataclass
class RunConfig:
    command: str
    env_path: str | None = None
    lambda_path: str | None = None
    mechanism_paths: list = field(default_factory=list)
    grid_size: int = 1001
    tol: float | None = None
    seed: int | None = None
    out: str | None = None
    fmt: str = "json"
    types: str | None = None
    q: int = 2
    refund_levels: int = 3
    mode: str = "efficiency"


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header, columns) -> str:
    lines = [",".join(header)]
    n = len(columns[0])
    for i in range(n):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _UsageError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}")


class _UsageError(Exception):
    pass


def _need(value, flag: str):
    if value in (None, []):
        raise _UsageError(f"missing required flag {flag}")
    return value


def _load_env(config: RunConfig) -> Environment:
    return Environment.from_dict(_load_json(_need(config.env_path, "--env")))


def _load_lambda(config: RunConfig, env: Environment) -> PwlFunction:
    if config.lambda_path:
        return PwlFunction.from_dict(_load_json(config.lambda_path))
    if config.seed is not None:
        rng = np.random.default_rng(config.seed)
        return random_loss_function(env, rng).shape
    raise _UsageError("provide --lambda or --seed")


def _load_mechanism(path: str) -> Mechanism:
    return Mechanism.from_dict(_load_json(path))


def _plot_columns(m: Mechanism, env: Environment):
    rep = report(m, env)
    schedule = AuditSchedule.from_table(m.grid, rep.deviation_loss, env)
    alpha = schedule.alpha_table(m.grid)
    beta = schedule.beta_table(m.grid)
    header = ["x", "a", "r_p", "r_empty", "R", "U", "Pi", "lambda_m", "alpha", "beta"]
    columns = [
        m.grid, m.a, m.r_p, m.r_empty,
        rep.revenue, rep.utility, rep.profit, rep.deviation_loss,
        alpha, beta,
    ]
    return header, columns


def export_plot_data(m: Mechanism, env: Environment) -> str:
    """CSV of all per-type tables plus the recomputed minimal audit pair.

    Rows follow the mechanism's own grid (mechanisms are tabulated objects;
    interpolation is not offered).
    """
    feas = check_feasible(m, env)
    if not feas.passed:
        raise PreconditionError("mechanism is not feasible", certificate=feas)
    header, columns = _plot_columns(m, env)
    return _csv(header, columns)


# -- command handlers --------------------------------------------------------

def _cmd_validate(config: RunConfig) -> int:
    env = _load_env(config)
    f = _load_lambda(config, env)
    violations = lambda_violations(f, env, tol=config.tol)
    if violations:
        _emit(_dump_json({"valid": False, "violations": [v.to_dict() for v in violations]}), config.out)
        return EXIT_NEGATIVE
    lam = validate_lambda(f, env, tol=config.tol)
    if config.fmt == "csv":
        ys = np.linspace(env.x_lo, env.x_hi, config.grid_size)
        table = AuditSchedule.from_loss(lam, env).table(ys)
        _emit(_csv(["y", "alpha", "beta", "a"], [table["y"], table["alpha"], table["beta"], table["a"]]), config.out)
    else:
        _emit(_dump_json({"valid": True, "violations": []}), config.out)
    return EXIT_OK


def _cmd_construct(config: RunConfig) -> int:
    env = _load_env(config)
    lam = validate_lambda(_load_lambda(config, env), env)
    m = constructor.build_efficient(lam, env, config.grid_size)
    if config.fmt == "csv":
        _emit(export_plot_data(m, env), config.out)
    else:
        _emit(_dump_json(m.to_dict()), config.out)
    return EXIT_OK


def _cmd_tighten(config: RunConfig) -> int:
    env = _load_env(config)
    m = _load_mechanism(_need(config.mechanism_paths, "--mechanism")[0])
    rep = run_tighten(m, env)
    if config.fmt == "csv":
        lam_plus = np.maximum.accumulate(np.maximum(rep.lambda_m_in, env.x_lo))
        star = rep.lambda_star.eval(rep.grid_in)
        idx = np.searchsorted(rep.grid_out, rep.grid_in)
        _emit(
            _csv(
                ["x", "lambda", "lambda_plus", "lambda_star", "a_in", "a_out"],
                [rep.grid_in, rep.lambda_m_in, lam_plus, star, rep.a_in, rep.a_out[idx]],
            ),
            config.out,
        )
    else:
        _emit(_dump_json(rep.to_dict()), config.out)
    return EXIT_OK


def _cmd_check(config: RunConfig) -> int:
    env = _load_env(config)
    m = _load_mechanism(_need(config.mechanism_paths, "--mechanism")[0])
    tol = config.tol if config.tol is not None else certify.CERT_TOL
    eff = certify.certify_efficient(m, env, tol=tol)
    tight = certify.certify_tight_necessary(m, env, tol=tol)
    _emit(_dump_json({"efficient": eff.to_dict(), "tightness_necessary": tight.to_dict()}), config.out)
    return EXIT_OK if eff.verdict == certify.CERTIFIED_EFFICIENT else EXIT_NEGATIVE


def _cmd_compare(config: RunConfig) -> int:
    env = _load_env(config)
    paths = _need(config.mechanism_paths, "--mechanism (twice)")
    if len(paths) != 2:
        raise _UsageError("compare needs --mechanism given exactly twice (candidate, baseline)")
    m_star = _load_mechanism(paths[0])
    m = _load_mechanism(paths[1])
    tol = config.tol if config.tol is not None else certify.COMPARE_TOL
    out = {
        "efficiency": certify.compare_efficiency(m_star, m, env, tol=tol),
        "tightness": certify.compare_tightness(m_star, m, env, tol=tol),
    }
    _emit(_dump_json(out), config.out)
    return EXIT_OK


def _cmd_bruteforce(config: RunConfig) -> int:
    env = _load_env(config)
    m = _load_mechanism(_need(config.mechanism_paths, "--mechanism")[0])
    types = [float(t) for t in _need(config.types, "--types").split(",")]
    inst = oracle.DiscreteInstance(types=tuple(types), q=config.q, refund_levels=config.refund_levels, env=env)
    verdict = oracle.is_undominated(m, inst, mode=config.mode)
    _emit(_dump_json(verdict.to_dict()), config.out)
    return EXIT_OK if verdict.undominated else EXIT_NEGATIVE


def _cmd_export(config: RunConfig) -> int:
    env = _load_env(config)
    m = _load_mechanism(_need(config.mechanism_paths, "--mechanism")[0])
    _emit(export_plot_data(m, env), config.out)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "construct": _cmd_construct,
    "tighten": _cmd_tighten,
    "check": _cmd_check,
    "compare": _cmd_compare,
    "bruteforce": _cmd_bruteforce,
    "export": _cmd_export,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    try:
        return _HANDLERS[config.command](config)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (LambdaValidationError,) as exc:
        _emit(_dump_json({"valid": False, "violations": [v.to_dict() for v in exc.violations]}), config.out)
        return EXIT_NEGATIVE
    except PreconditionError as exc:
        payload = {"error": str(exc)}
        if exc.certificate is not None and hasattr(exc.certificate, "to_dict"):
            payload["certificate"] = exc.certificate.to_dict()
        _emit(_dump_json(payload), config.out)
        return EXIT_NEGATIVE
    except (DomainError, GridMismatchError, InstanceSizeError, RoundingError) as exc:
        _emit(_dump_json({"error": str(exc)}), config.out)
        return EXIT_NEGATIVE
    except (GuaranteeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="samurai", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--env", dest="env_path")
        p.add_argument("--lambda", dest="lambda_path")
        p.add_argument("--mechanism", dest="mechanism_paths", action="append", default=[])
        p.add_argument("--grid", dest="grid_size", type=int, default=1001)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        if name == "bruteforce":
            p.add_argument("--types", default=None)
            p.add_argument("--q", type=int, default=2)
            p.add_argument("--refund-levels", dest="refund_levels", type=int, default=3)
            p.add_argument("--mode", choices=("efficiency", "tightness"), default="efficiency")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.grid_size < 2:
        sys.stderr.write("error: --grid must be >= 2\n")
        return EXIT_USAGE
    config = RunConfig(
        command=args.command,
        env_path=args.env_path,
        lambda_path=args.lambda_path,
        mechanism_paths=args.mechanism_paths,
        grid_size=args.grid_size,
        tol=args.tol,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
        types=getattr(args, "types", None),
        q=getattr(args, "q", 2),
        refund_levels=getattr(args, "refund_levels", 3),
        mode=getattr(args, "mode", "efficiency"),
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
