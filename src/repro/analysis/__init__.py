"""Static analysis over compiled plans: properties, cost, verifier, lint.

See :mod:`repro.analysis.properties` for the inferred property lattice
(keys, constants, cardinality bounds, non-null sets, density and order
provenance), :mod:`repro.analysis.cost` for the cardinality-aware cost
model built on top of it, :mod:`repro.analysis.verifier` for the staged
plan verifier with its ``F1xx``/``F2xx``/``F3xx`` diagnostic codes, and
:mod:`repro.analysis.lint` for the estimate-drift lint (``D5xx``).
"""

from .cost import (
    BundleCost,
    CostModel,
    Est,
    QueryCost,
    annotate_costs,
    estimate_bundle,
)
from .properties import (
    Card,
    PlanStore,
    Props,
    annotate_plan,
    infer_properties,
)
from .verifier import (
    STAGES,
    Diagnostic,
    VerifyReport,
    avalanche_lint,
    check_avalanche,
    check_order,
    check_plan,
    ensure_verified,
    set_verify_debug,
    verify_bundle,
    verify_debug_enabled,
)

#: Lint names served lazily (so ``python -m repro.analysis.lint`` does
#: not re-import the module it is executing).
_LINT_EXPORTS = ("D_CODES", "DEFAULT_RATIO_BUDGET", "lint_calibration",
                 "lint_report", "lint_statements")


def __getattr__(name: str):
    if name in _LINT_EXPORTS:
        from . import lint
        return getattr(lint, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BundleCost",
    "Card",
    "CostModel",
    "D_CODES",
    "DEFAULT_RATIO_BUDGET",
    "Diagnostic",
    "Est",
    "PlanStore",
    "Props",
    "QueryCost",
    "STAGES",
    "VerifyReport",
    "annotate_costs",
    "annotate_plan",
    "avalanche_lint",
    "check_avalanche",
    "check_order",
    "check_plan",
    "ensure_verified",
    "estimate_bundle",
    "infer_properties",
    "lint_calibration",
    "lint_report",
    "lint_statements",
    "set_verify_debug",
    "verify_bundle",
    "verify_debug_enabled",
]
