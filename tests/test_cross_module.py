"""Properties that tie several modules together."""

import subprocess
import sys

import numpy as np
import pytest

from samurai import (
    DiscreteInstance,
    DomainError,
    Mechanism,
    certify_efficient,
    debt_loss,
    is_undominated,
    validate_lambda,
    virtual_loss,
)
from samurai.audit_schedule import AuditSchedule
from samurai.pwl import PwlFunction

from conftest import build_on_types, make_env


@pytest.mark.parametrize(
    "types,spec",
    [
        ((0.0, 0.5, 1.0), ("debt", 0.5)),
        ((0.0, 0.25, 0.5, 1.0), ("debt", 0.5)),
        ((0.0, 0.5, 1.0), ("identity",)),
    ],
)
def test_certified_efficient_is_undominated_on_lattice(types, spec):
    env = make_env()
    if spec[0] == "debt":
        lam = debt_loss(env, spec[1])
    else:
        lam = validate_lambda(
            PwlFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0])), env
        )
    m = build_on_types(lam, env, types)
    assert certify_efficient(m, env).verdict == "certified-efficient"
    inst = DiscreteInstance(types=types, q=2, refund_levels=5, env=env)
    assert is_undominated(m, inst, "efficiency").undominated


def test_off_lattice_mechanism_refused():
    from samurai import RoundingError

    env = make_env()
    # a 4-level refund lattice at the top type cannot express the 0.5 refund
    inst = DiscreteInstance(types=(0.0, 0.25, 0.5, 1.0), q=2, refund_levels=4, env=env)
    m = build_on_types(debt_loss(env, 0.5), env, inst.types)
    with pytest.raises(RoundingError):
        is_undominated(m, inst, "efficiency")


def test_virtual_loss_rejects_loss_above_identity(env):
    grid = np.linspace(0, 1, 11)
    with pytest.raises(DomainError):
        virtual_loss(grid, grid + 0.2, np.ones_like(grid), env)


def test_single_crossing_needs_two_points(env):
    s = AuditSchedule.from_loss(debt_loss(env, 0.5), env)
    with pytest.raises(DomainError):
        s.check_single_crossing(1)


def test_cli_entry_point_module_runs():
    res = subprocess.run(
        [sys.executable, "-m", "samurai.cli", "--help"], capture_output=True, text=True
    )
    assert res.returncode == 0
    for name in ("validate", "construct", "tighten", "check", "compare", "bruteforce", "export"):
        assert name in res.stdout
