"""Mapping between Python heap values and the Ferry type system.

This module provides the value-level half of the paper's ``QA`` type class
(Section 3.1): inferring a Ferry type from a Python value (``toQ``
direction) and validating that a value inhabits a given type (used when
loading tables and when stitching results back).
"""

from __future__ import annotations

import datetime
from typing import Any

from ..errors import QTypeError
from .kinds import (
    AtomT,
    BoolT,
    DateT,
    DoubleT,
    IntT,
    ListT,
    StringT,
    TimeT,
    TupleT,
    Type,
)


def infer_type(value: Any, hint: Type | None = None) -> Type:
    """Infer the Ferry type of a Python ``value``.

    ``hint`` resolves the two inherent ambiguities of the value syntax:
    the element type of an empty list, and ``int`` literals used where a
    ``Double`` is expected.  Raises :class:`QTypeError` for values outside
    the supported universe (sets, dicts, ``None``, ...).
    """
    if hint is not None:
        check_value(value, hint)
        return hint
    # bool must precede int: bool is a subclass of int in Python.
    if isinstance(value, bool):
        return BoolT
    if isinstance(value, int):
        return IntT
    if isinstance(value, float):
        return DoubleT
    if isinstance(value, str):
        _check_text(value)
        return StringT
    # datetime.datetime is a subclass of datetime.date; reject it explicitly
    # so date columns stay pure calendar dates.
    if isinstance(value, datetime.datetime):
        raise QTypeError("datetime.datetime is not a Ferry basic type; "
                         "use datetime.date or datetime.time")
    if isinstance(value, datetime.date):
        return DateT
    if isinstance(value, datetime.time):
        return TimeT
    if isinstance(value, tuple):
        if len(value) == 0:
            raise QTypeError("empty tuples are not representable")
        if len(value) == 1:
            return infer_type(value[0])
        return TupleT(tuple(infer_type(v) for v in value))
    if isinstance(value, list):
        partial = _infer_partial(value)
        if _has_unknown(partial):
            raise QTypeError(f"cannot fully infer the type of {value!r}: "
                             f"an empty list leaves it at "
                             f"{partial.show()}; supply a type hint")
        return partial
    raise QTypeError(f"value {value!r} of class {type(value).__name__} has "
                     f"no Ferry type (supported: bool, int, float, str, "
                     f"date, time, tuples, lists)")


#: Marker for a type component an empty list leaves undetermined.
_UNKNOWN = AtomT("?")


def _has_unknown(ty: Type) -> bool:
    if ty == _UNKNOWN:
        return True
    if isinstance(ty, ListT):
        return _has_unknown(ty.elt)
    if isinstance(ty, TupleT):
        return any(_has_unknown(t) for t in ty.elts)
    return False


def _infer_partial(value: Any) -> Type:
    """Infer with unknowns: empty lists type as ``[?]``, to be refined by
    unification against sibling elements."""
    if isinstance(value, list):
        elt: Type = _UNKNOWN
        for v in value:
            elt = _merge(elt, _infer_partial(v), value)
        return ListT(elt)
    if isinstance(value, tuple):
        if len(value) == 1:
            return _infer_partial(value[0])
        if len(value) == 0:
            raise QTypeError("empty tuples are not representable")
        return TupleT(tuple(_infer_partial(v) for v in value))
    return infer_type(value)


def _merge(a: Type, b: Type, context: Any) -> Type:
    """Unify two partially known types (``?`` matches anything)."""
    if a == _UNKNOWN:
        return b
    if b == _UNKNOWN:
        return a
    if a == b:
        return a
    if isinstance(a, ListT) and isinstance(b, ListT):
        return ListT(_merge(a.elt, b.elt, context))
    if (isinstance(a, TupleT) and isinstance(b, TupleT)
            and len(a.elts) == len(b.elts)):
        return TupleT(tuple(_merge(x, y, context)
                            for x, y in zip(a.elts, b.elts)))
    raise QTypeError(f"heterogeneous list {context!r}: cannot unify "
                     f"{a.show()} with {b.show()}")


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _check_text(value: str) -> None:
    """Refuse what a database text column cannot hold: a NUL, or a lone
    surrogate (not UTF-8)."""
    try:
        value.encode("utf-8")
        utf8 = True
    except UnicodeEncodeError:
        utf8 = False
    if utf8 and "\x00" not in value:
        return
    raise QTypeError(f"value {value!r} is not database text "
                     f"(a NUL or a lone surrogate)")


def check_value(value: Any, ty: Type) -> None:
    """Validate that ``value`` inhabits ``ty``; raise :class:`QTypeError`
    otherwise.  ``int`` values are additionally accepted at ``DoubleT``
    (they are widened by :func:`normalize_value`).

    This is the one value rule for table rows and query literals alike:
    an ``Int`` is what a SQL host stores, a signed 64-bit integer, so what
    it cannot hold no backend may accept; a NaN compares to nothing,
    while list order and ``nub`` need a total order on values; and a
    ``String`` is database text -- no NUL, and nothing UTF-8 cannot
    encode (a lone surrogate)."""
    if isinstance(ty, AtomT):
        ok = {
            BoolT: lambda v: isinstance(v, bool),
            IntT: lambda v: isinstance(v, int) and not isinstance(v, bool),
            DoubleT: lambda v: (isinstance(v, float)
                                or (isinstance(v, int)
                                    and not isinstance(v, bool))),
            StringT: lambda v: isinstance(v, str),
            DateT: lambda v: (isinstance(v, datetime.date)
                              and not isinstance(v, datetime.datetime)),
            TimeT: lambda v: isinstance(v, datetime.time),
        }[ty]
        if not ok(value):
            raise QTypeError(f"value {value!r} does not inhabit {ty.show()}")
        if ty == StringT:
            _check_text(value)
        if ty == IntT and not _INT64_MIN <= value <= _INT64_MAX:
            raise QTypeError(f"{value} is outside the signed 64-bit range "
                             f"of Int")
        if value != value:
            raise QTypeError("NaN has no place in the total order of Double")
        return
    if isinstance(ty, TupleT):
        if not isinstance(value, tuple) or len(value) != len(ty.elts):
            raise QTypeError(f"value {value!r} does not inhabit {ty.show()}")
        for v, t in zip(value, ty.elts):
            check_value(v, t)
        return
    if isinstance(ty, ListT):
        if not isinstance(value, list):
            raise QTypeError(f"value {value!r} does not inhabit {ty.show()}")
        for v in value:
            check_value(v, ty.elt)
        return
    raise QTypeError(f"unsupported type {ty!r}")


def normalize_value(value: Any, ty: Type) -> Any:
    """Return ``value`` with ``int``-at-``Double`` occurrences widened to
    ``float``, recursively.  Assumes :func:`check_value` has passed."""
    if ty == DoubleT:
        return float(value)
    if isinstance(ty, TupleT):
        return tuple(normalize_value(v, t) for v, t in zip(value, ty.elts))
    if isinstance(ty, ListT):
        return [normalize_value(v, ty.elt) for v in value]
    return value
