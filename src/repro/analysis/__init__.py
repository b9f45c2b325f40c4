"""Static analysis over compiled plans: properties, bounds, verifier, lint.

See :mod:`repro.analysis.properties` for the inferred property lattice
(keys, constants, cardinality bounds, non-null sets, density and order
provenance), :mod:`repro.analysis.cost` for the per-instance row bounds
folded through the same lattice, :mod:`repro.analysis.verifier` for the
staged plan verifier with its ``F1xx``/``F2xx``/``F3xx`` diagnostic
codes, and :mod:`repro.analysis.lint` for the row-bounds lint
(``D500``).
"""

from .cost import (
    Bounds,
    BundleCost,
    RowBounds,
    annotate_bounds,
    estimate_bundle,
)
from .lint import lint_report
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


__all__ = [
    "Bounds",
    "BundleCost",
    "Card",
    "Diagnostic",
    "PlanStore",
    "Props",
    "RowBounds",
    "STAGES",
    "VerifyReport",
    "annotate_bounds",
    "annotate_plan",
    "avalanche_lint",
    "check_avalanche",
    "check_order",
    "check_plan",
    "ensure_verified",
    "estimate_bundle",
    "infer_properties",
    "lint_report",
    "set_verify_debug",
    "verify_bundle",
    "verify_debug_enabled",
]
