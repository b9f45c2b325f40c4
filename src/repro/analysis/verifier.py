"""The staged plan verifier: machine-checked compile-pipeline invariants.

Ferry's headline guarantees are *static* properties of the compiled
bundle: every plan is well-formed over named, typed columns, the ``pos``
column of every bundle root encodes list order (Section 3.2's ``pos``
encoding), and the bundle holds exactly one query per ``[.]``
constructor in the static result type (avalanche safety).  This module
checks them in three stages with stable diagnostic codes:

=========  ===========================================================
``F101``   structural: unknown column reference
``F102``   structural: duplicate column name
``F103``   structural: type mismatch
``F104``   structural: malformed operator
``F105``   structural: column name clash across a product/join
``F106``   structural: union over differing schemas
``F190``   structural: a property-driven rewrite failed self-check
``F201``   order: root ``pos`` has no row-numbering lineage
``F202``   order: root schema not in standard ``iter|pos|item`` form
``F203``   order: item column type differs from the declared type
``F301``   avalanche: bundle size differs from the static prediction
=========  ===========================================================

The verifier runs (a) after loop-lifting and after *every* optimizer
pass when debug mode is on (``FERRY_VERIFY=1`` or
:func:`set_verify_debug`), and (b) on the final plans every backend
receives -- always, at the cost of the single schema walk the pipeline
already paid before this module existed, so bundle validation is one
traversal, not two.  (:func:`check_plan` with ``collect=None`` is the
raise-on-first-failure entry point the retired ``algebra.validate``
shim used to alias.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..algebra.dag import postorder
from ..algebra.ops import Node
from ..algebra.schema import Schema, _infer
from ..errors import CompilationError, VerifyError
from ..ftypes import IntT
from .properties import PlanStore

#: Stage names, in checking order.
STAGES = ("structural", "order", "avalanche")


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding: a stable code, the stage that produced it,
    and where in the bundle/plan it points."""

    code: str
    stage: str
    message: str
    #: 0-based bundle query index, or ``None`` for bundle-level checks.
    query: "int | None" = None
    #: Pretty-printer postorder ref of the offending node (``@n``).
    node_ref: "int | None" = None

    def __str__(self) -> str:
        where = ""
        if self.query is not None:
            where += f" Q{self.query + 1}"
        if self.node_ref is not None:
            where += f" @{self.node_ref}"
        return f"{self.code} [{self.stage}]{where}: {self.message}"

    def to_dict(self) -> "dict[str, Any]":
        return {"code": self.code, "stage": self.stage,
                "message": self.message, "query": self.query,
                "node_ref": self.node_ref}


@dataclass
class VerifyReport:
    """The outcome of one verifier invocation."""

    #: Where in the pipeline this ran (``post-lift``, ``pass:cse``,
    #: ``final``, ``backend:engine`` ...).
    label: str
    stages: tuple[str, ...] = STAGES
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def raise_if_failed(self) -> None:
        if self.diagnostics:
            first = self.diagnostics[0]
            raise VerifyError(
                f"plan verification failed at {self.label}: {first}"
                + (f" (+{len(self.diagnostics) - 1} more)"
                   if len(self.diagnostics) > 1 else ""),
                code=first.code, diagnostics=self.diagnostics)

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "stages": list(self.stages),
            "ok": self.ok,
            "diagnostics": [{
                "code": d.code, "stage": d.stage, "message": d.message,
                "query": d.query, "node_ref": d.node_ref,
            } for d in self.diagnostics],
        }


# ----------------------------------------------------------------------
# debug mode
# ----------------------------------------------------------------------

_DEBUG_OVERRIDE: "bool | None" = None


def verify_debug_enabled() -> bool:
    """Is per-pass verification on?  Programmatic override first
    (:func:`set_verify_debug`), then the ``FERRY_VERIFY`` environment
    variable."""
    if _DEBUG_OVERRIDE is not None:
        return _DEBUG_OVERRIDE
    return os.environ.get("FERRY_VERIFY", "").lower() in (
        "1", "true", "on", "yes")


def set_verify_debug(enabled: "bool | None") -> "bool | None":
    """Force verifier debug mode on/off (``None`` defers to the
    environment again); returns the previous override."""
    global _DEBUG_OVERRIDE
    previous = _DEBUG_OVERRIDE
    _DEBUG_OVERRIDE = enabled
    return previous


# ----------------------------------------------------------------------
# structural stage (subsumes the old algebra.validate)
# ----------------------------------------------------------------------

def check_plan(root: Node, schemas: "dict[Node, Schema] | None" = None,
               query: "int | None" = None,
               collect: "list[Diagnostic] | None" = None) -> None:
    """Structural verification: full schema inference over the DAG.

    With ``collect=None`` (the ``algebra.validate`` alias path) the
    first inconsistency raises :class:`VerifyError` carrying the
    diagnostic code and the offending node's ``@n`` ref; otherwise
    diagnostics are appended and checking continues past the failing
    node (its schema is treated as empty).
    """
    if schemas is None:
        schemas = {}
    refs: dict[Node, int] = {}
    for i, node in enumerate(postorder(root)):
        refs[node] = i
        if node in schemas:
            continue
        try:
            schemas[node] = _infer(node, schemas)
        except CompilationError as err:
            code = getattr(err, "code", None) or "F104"
            ref = refs.get(getattr(err, "node", node), i)
            diag = Diagnostic(code, "structural", str(err), query=query,
                              node_ref=ref)
            if collect is None:
                raise VerifyError(f"{code} @{ref}: {err}", code=code,
                                  diagnostics=[diag]) from err
            collect.append(diag)
            schemas[node] = {}


# ----------------------------------------------------------------------
# order stage
# ----------------------------------------------------------------------

def check_order(query: Any, index: int, store: PlanStore
                ) -> list[Diagnostic]:
    """Order verification of one bundle member (standard form + ``pos``
    pedigree).  ``query`` is a ``SerializedQuery``."""
    out: list[Diagnostic] = []
    schema = store.schemas.get(query.plan)
    if schema is None or not schema:
        return out  # structural stage already failed this plan
    expected = [query.iter_col, query.pos_col, *query.item_cols]
    if list(schema) != expected:
        out.append(Diagnostic(
            "F202", "order",
            f"root schema {list(schema)} is not the standard "
            f"iter|pos|item form {expected}", query=index, node_ref=None))
        return out
    for col, want in zip(query.item_cols, query.item_types):
        have = schema[col]
        if have != want:
            out.append(Diagnostic(
                "F203", "order",
                f"item column {col!r} is {have.show()}, declared "
                f"{want.show()}", query=index))
    if schema[query.pos_col] != IntT:
        out.append(Diagnostic(
            "F203", "order",
            f"pos column {query.pos_col!r} is "
            f"{schema[query.pos_col].show()}, not Int", query=index))
        return out
    if not store.infer(query.plan).order_ok(query.pos_col):
        out.append(Diagnostic(
            "F201", "order",
            f"pos column {query.pos_col!r} has no row-numbering "
            f"lineage (not provably dense-from-1 per {query.iter_col!r})",
            query=index))
    return out


# ----------------------------------------------------------------------
# avalanche stage
# ----------------------------------------------------------------------

def check_avalanche(bundle: Any) -> list[Diagnostic]:
    """Static avalanche check: one query per ``[.]`` constructor."""
    if bundle.size == bundle.expected_size:
        return []
    return [Diagnostic(
        "F301", "avalanche",
        f"bundle has {bundle.size} queries; the static result type "
        f"{bundle.result_ty.show()} predicts {bundle.expected_size}")]


# ----------------------------------------------------------------------
# bundle entry point
# ----------------------------------------------------------------------

def verify_bundle(bundle: Any, label: str = "final",
                  raise_on_error: bool = True,
                  mark: bool = True,
                  cache: Any = None) -> VerifyReport:
    """Run the three verifier stages over a whole bundle.

    One :class:`~repro.analysis.PlanStore` serves every query, so plans
    that share subDAGs (the compiler's cross-query sharing) are walked
    once.  Passing the optimizer's store as ``cache`` makes verification
    incremental over the analysis the pipeline already did.  On success
    the bundle is stamped ``verified`` (unless ``mark=False``) --
    backends skip re-verification of bundles the connection pipeline
    already checked.
    """
    report = VerifyReport(label=label)
    store: PlanStore = cache if cache is not None else PlanStore()
    for i, query in enumerate(bundle.queries):
        check_plan(query.plan, store.schemas, query=i,
                   collect=report.diagnostics)
    for i, query in enumerate(bundle.queries):
        report.diagnostics.extend(check_order(query, i, store))
    report.diagnostics.extend(check_avalanche(bundle))
    if not report.diagnostics and mark:
        bundle.verified = True
    if raise_on_error:
        report.raise_if_failed()
    return report


def ensure_verified(bundle: Any, label: str) -> None:
    """Backend-side guard: verify a bundle unless the compile pipeline
    already stamped it (the common path, which keeps prepare cheap)."""
    if getattr(bundle, "verified", False):
        return
    verify_bundle(bundle, label=label)
