"""Static analysis over compiled plans: properties, bounds, verifier.

See :mod:`repro.analysis.properties` for the inferred property lattice
(keys, constants, cardinality bounds, density and order
provenance), :mod:`repro.analysis.cost` for the per-instance row bounds
folded through the same lattice, and :mod:`repro.analysis.verifier` for
the staged plan verifier with its ``F1xx``/``F2xx`` diagnostic codes
and the static avalanche check ``F301``.  EXPLAIN ANALYZE checks
measured row counts against the bounds (``D500``,
:mod:`repro.obs.explain`).
"""

from .cost import (
    Bounds,
    BundleCost,
    RowBounds,
    estimate_bundle,
)
from .properties import (
    Card,
    PlanStore,
    Props,
    infer_properties,
)
from .verifier import (
    STAGES,
    Diagnostic,
    VerifyReport,
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
    "check_avalanche",
    "check_order",
    "check_plan",
    "ensure_verified",
    "estimate_bundle",
    "infer_properties",
    "set_verify_debug",
    "verify_bundle",
    "verify_debug_enabled",
]
