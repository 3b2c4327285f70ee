"""Command-line front end.

Seven commands: validate, construct, tighten, check, compare, bruteforce,
export.  Each command accepts only the flags it reads:

  all commands                          --env (required), --out
  validate, construct                   --lambda or --seed (exactly one), --grid
  validate, construct, tighten          --format json|csv
  validate, check, compare              --tol (finite, >= 0; check bounds money
                                        at tol * max(1, span), audits at tol)
  tighten, check, compare, bruteforce,  --mechanism (required once; twice for
  export                                compare: candidate, baseline)
  bruteforce                            --types (required), --q,
                                        --refund-levels, --mode

Exit code 0 means success or a passing verdict, 2 a semantic negative
(invalid loss function, refuted certificate, dominated mechanism), 1 a
usage or I/O error or a failed internal guarantee.  Usage errors include
every argument-parsing error (an unknown flag, a flag of another command, a
bad choice or value, a missing or repeated flag, a missing command); each
prints one ``error:`` line on stderr.  Outputs are byte-stable for fixed
inputs and seed: JSON keys are sorted and CSV numbers carry 12 significant
digits with dot decimals, comma delimiters, and LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

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
    running_max_floor,
    validate_lambda,
)
from .mechanism import Mechanism, check_feasible, report
from .pwl import PwlFunction
from .tighten import tighten as run_tighten
from .tolerances import CERT, GATE

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header, columns) -> str:
    row = ",".join(["%.12g"] * len(columns))  # one format per row
    lines = [",".join(header)] + [row % tuple(values) for values in np.column_stack(columns).tolist()]
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


class _Parser(argparse.ArgumentParser):
    """Reports parse errors as usage errors (exit 1) instead of exiting 2."""

    def error(self, message):
        raise _UsageError(message)


def _load_env(args) -> Environment:
    return Environment.from_dict(_load_json(args.env))


def _load_lambda(args, env: Environment) -> PwlFunction:
    if args.seed is None:
        return PwlFunction.from_dict(_load_json(args.lambda_path))
    return random_loss_function(env, np.random.default_rng(args.seed)).shape


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

def _cmd_validate(args) -> int:
    env = _load_env(args)
    f = _load_lambda(args, env)
    violations = lambda_violations(f, env, tol=args.tol)
    if violations:
        _emit(_dump_json({"valid": False, "violations": [v.to_dict() for v in violations]}), args.out)
        return EXIT_NEGATIVE
    lam = validate_lambda(f, env, tol=args.tol)
    if args.format == "csv":
        ys = np.linspace(env.x_lo, env.x_hi, args.grid)
        table = AuditSchedule.from_loss(lam, env).table(ys)
        _emit(_csv(["y", "alpha", "beta", "a"], [table["y"], table["alpha"], table["beta"], table["a"]]), args.out)
    else:
        _emit(_dump_json({"valid": True, "violations": []}), args.out)
    return EXIT_OK


def _cmd_construct(args) -> int:
    env = _load_env(args)
    lam = validate_lambda(_load_lambda(args, env), env)
    m = constructor.build_efficient(lam, env, args.grid)
    if args.format == "csv":
        _emit(export_plot_data(m, env), args.out)
    else:
        _emit(_dump_json(m.to_dict()), args.out)
    return EXIT_OK


def _cmd_tighten(args) -> int:
    env = _load_env(args)
    m = _load_mechanism(args.mechanism[0])
    rep = run_tighten(m, env)
    if args.format == "csv":
        lam_plus = running_max_floor(rep.lambda_m_in, env.x_lo)
        star = rep.lambda_star.eval(rep.grid_in)
        idx = np.searchsorted(rep.grid_out, rep.grid_in)
        _emit(
            _csv(
                ["x", "lambda", "lambda_plus", "lambda_star", "a_in", "a_out"],
                [rep.grid_in, rep.lambda_m_in, lam_plus, star, rep.a_in, rep.a_out[idx]],
            ),
            args.out,
        )
    else:
        _emit(_dump_json(rep.to_dict()), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    env = _load_env(args)
    m = _load_mechanism(args.mechanism[0])
    eff, tight = certify.certify_both(m, env, tol=args.tol)
    _emit(_dump_json({"efficient": eff.to_dict(), "tightness_necessary": tight.to_dict()}), args.out)
    return EXIT_OK if eff.verdict == certify.CERTIFIED_EFFICIENT else EXIT_NEGATIVE


def _cmd_compare(args) -> int:
    env = _load_env(args)
    m_star = _load_mechanism(args.mechanism[0])
    m = _load_mechanism(args.mechanism[1])
    out = {
        "efficiency": certify.compare_efficiency(m_star, m, env, tol=args.tol),
        "tightness": certify.compare_tightness(m_star, m, env, tol=args.tol),
    }
    _emit(_dump_json(out), args.out)
    return EXIT_OK


def _cmd_bruteforce(args) -> int:
    env = _load_env(args)
    m = _load_mechanism(args.mechanism[0])
    types = [float(t) for t in args.types.split(",")]
    inst = oracle.DiscreteInstance(types=tuple(types), q=args.q, refund_levels=args.refund_levels, env=env)
    verdict = oracle.is_undominated(m, inst, mode=args.mode)
    _emit(_dump_json(verdict.to_dict()), args.out)
    return EXIT_OK if verdict.undominated else EXIT_NEGATIVE


def _cmd_export(args) -> int:
    env = _load_env(args)
    m = _load_mechanism(args.mechanism[0])
    _emit(export_plot_data(m, env), args.out)
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


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="samurai", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--env", required=True)
        p.add_argument("--out")
        if name in ("validate", "construct"):
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--lambda", dest="lambda_path")
            source.add_argument("--seed", type=int)
            p.add_argument("--grid", type=int, default=1001)
        if name in ("validate", "construct", "tighten"):
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if name in ("validate", "check", "compare"):
            p.add_argument("--tol", type=_tolerance, default={"check": CERT, "compare": GATE}.get(name))
        if name not in ("validate", "construct"):
            p.add_argument("--mechanism", action="append", required=True)
        if name == "bruteforce":
            p.add_argument("--types", required=True)
            p.add_argument("--q", type=int, default=2)
            p.add_argument("--refund-levels", type=int, default=3)
            p.add_argument("--mode", choices=("efficiency", "tightness"), default="efficiency")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Parse argv and run one command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
        if "grid" in args and args.grid < 2:
            raise _UsageError("--grid must be >= 2")
        if "mechanism" in args and len(args.mechanism) != (2 if args.command == "compare" else 1):
            times = "twice (candidate, baseline)" if args.command == "compare" else "once"
            raise _UsageError(f"{args.command} takes --mechanism {times}")
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LambdaValidationError as exc:
        _emit(_dump_json({"valid": False, "violations": [v.to_dict() for v in exc.violations]}), args.out)
        return EXIT_NEGATIVE
    except PreconditionError as exc:
        payload = {"error": str(exc)}
        if exc.certificate is not None and hasattr(exc.certificate, "to_dict"):
            payload["certificate"] = exc.certificate.to_dict()
        _emit(_dump_json(payload), args.out)
        return EXIT_NEGATIVE
    except (DomainError, GridMismatchError, InstanceSizeError, RoundingError) as exc:
        _emit(_dump_json({"error": str(exc)}), args.out)
        return EXIT_NEGATIVE
    except (GuaranteeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
