"""Audit-mechanism toolkit: construct, tighten, and certify tax mechanisms
built from piecewise-linear loss functions."""

from .audit_schedule import AuditSchedule
from .certify import (
    Certificate,
    certify_efficient,
    certify_tight_necessary,
    compare_efficiency,
    compare_tightness,
)
from .constructor import RefundPair, build_efficient, refunds_from, support_types
from .environment import CostFn, Environment, cost_eval
from .errors import (
    DomainError,
    GridMismatchError,
    GuaranteeError,
    InstanceSizeError,
    LambdaValidationError,
    PreconditionError,
    RoundingError,
    SamuraiError,
)
from .lambda_space import (
    LossFunction,
    classify_debt,
    debt_loss,
    random_loss_function,
    validate_lambda,
    virtual_loss,
)
from .mechanism import (
    Mechanism,
    MechanismReport,
    check_feasible,
    check_ic,
    deviation_loss,
    deviation_loss_table,
    profit,
    report,
    revenue,
    revenue_table,
    system_holds,
    utility,
)
from .oracle import DiscreteInstance, bruteforce_deviation_loss, enumerate_feasible_ic, is_undominated
from .pwl import AffineLine, PwlFunction, affine_lower_envelope, running_max_floor
from .tighten import TightenReport, is_fixed_point, tighten

__version__ = "0.1.0"
