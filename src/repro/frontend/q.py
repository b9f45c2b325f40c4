"""The ``Q`` wrapper: phantom-typed queryable values.

The paper defines ``data Q a = Q Exp`` and gives every DSH combinator a
type in terms of ``Q`` so that Haskell's type checker validates embedded
programs (Section 3.1, "phantom typing").  Python has no static checker, so
``Q`` instead carries the Ferry type of its wrapped expression and every
operation checks its operands *eagerly*, raising :class:`QTypeError` at
query-construction time.  The net guarantee is the same: an ``Exp`` tree
that reaches the compiler is well-typed.

``Q`` overloads Python's operators so embedded programs read like ordinary
code: ``==``/``<`` build comparisons, ``+`` arithmetic, ``&``/``|``/``~``
boolean connectives (``and``/``or``/``not`` cannot be overloaded in
Python), ``q[i]`` projects tuple components, and tuple-typed queries can be
unpacked with ``a, b = q``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from ..errors import QTypeError
from ..expr import (
    BinOpE,
    Exp,
    IfE,
    LamE,
    ListE,
    LitE,
    TableE,
    TupleE,
    TupleElemE,
    UnOpE,
    VarE,
    exp_fingerprint,
    fresh_var,
    tables_referenced,
)
from ..ftypes import (
    AtomT,
    BoolT,
    DateT as _DATE,
    DoubleT,
    IntT,
    ListT,
    StringT,
    TimeT as _TIME,
    TupleT,
    Type,
    infer_type,
    is_atom,
    is_flat,
    is_numeric,
    is_orderable,
    normalize_value,
)

class Q:
    """A queryable value of some Ferry type (the paper's ``Q a``).

    Instances are immutable handles on a deep-embedded expression; no
    database communication happens until the query is run through a
    :class:`repro.runtime.Connection`.
    """

    __slots__ = ("exp", "rec", "_fingerprint", "_tables")

    def __init__(self, exp: Exp, rec: type | None = None):
        self.exp = exp
        #: Optional record class whose fields name this tuple's components
        #: (the View-instance equivalent for records, Section 3.1).
        self.rec = rec
        # What the plan cache needs from ``exp``, kept from the first use.
        self._fingerprint: str | None = None
        self._tables: tuple[TableE, ...] | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def ty(self) -> Type:
        """The Ferry type of this query."""
        return self.exp.ty

    def __repr__(self) -> str:
        from ..expr import pretty
        return f"<Q {self.ty.show()}: {pretty(self.exp)}>"

    def fingerprint(self) -> str:
        """Content-addressed structural identity of this query.

        Two queries share a fingerprint iff they are the same program up
        to bound-variable naming -- the key under which compiled plans
        are cached (:mod:`repro.runtime.plancache`).  Unlike ``hash()``,
        this is stable across processes.
        """
        if self._fingerprint is None:
            self._fingerprint = exp_fingerprint(self.exp)
        return self._fingerprint

    def tables_referenced(self) -> "tuple[TableE, ...]":
        """The table references (with declared row types) of ``exp``."""
        if self._tables is None:
            self._tables = tuple(tables_referenced(self.exp).values())
        return self._tables

    # Q is a DSL value; identity-based hashing would be misleading next to
    # the overloaded ``==``, so Q is unhashable by design (structural
    # identity is available explicitly via :meth:`fingerprint`).
    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # comparisons (Eq/Ord on atoms and flat tuples, lexicographic)
    # ------------------------------------------------------------------
    def __eq__(self, other: Any) -> "Q":  # type: ignore[override]
        return _compare("eq", self, other)

    def __ne__(self, other: Any) -> "Q":  # type: ignore[override]
        return _compare("ne", self, other)

    def __lt__(self, other: Any) -> "Q":
        return _compare("lt", self, other)

    def __le__(self, other: Any) -> "Q":
        return _compare("le", self, other)

    def __gt__(self, other: Any) -> "Q":
        return _compare("gt", self, other)

    def __ge__(self, other: Any) -> "Q":
        return _compare("ge", self, other)

    # ------------------------------------------------------------------
    # arithmetic (numeric atoms)
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> "Q":
        if self.ty == StringT:
            return self.str_cat(other)
        return _arith("add", self, other)

    def __radd__(self, other: Any) -> "Q":
        if self.ty == StringT:
            return to_q(other, hint=StringT).str_cat(self)
        return _arith("add", to_q(other, hint=self.ty), self)

    def __sub__(self, other: Any) -> "Q":
        return _arith("sub", self, other)

    def __rsub__(self, other: Any) -> "Q":
        return _arith("sub", to_q(other, hint=self.ty), self)

    def __mul__(self, other: Any) -> "Q":
        return _arith("mul", self, other)

    def __rmul__(self, other: Any) -> "Q":
        return _arith("mul", to_q(other, hint=self.ty), self)

    def __truediv__(self, other: Any) -> "Q":
        if self.ty == IntT:
            raise QTypeError("'/' is Double division; use '//' for Int "
                             "division or .to_double() to widen")
        return _arith("div", self, other)

    def __rtruediv__(self, other: Any) -> "Q":
        return to_q(other, hint=self.ty).__truediv__(self)

    def __floordiv__(self, other: Any) -> "Q":
        if self.ty != IntT:
            raise QTypeError("'//' is Int division")
        return _arith("idiv", self, other)

    def __mod__(self, other: Any) -> "Q":
        if self.ty != IntT:
            raise QTypeError("'%' requires Int operands")
        return _arith("mod", self, other)

    def __neg__(self) -> "Q":
        _require_numeric(self, "unary '-'")
        return Q(UnOpE("neg", self.exp, self.ty))

    def __abs__(self) -> "Q":
        _require_numeric(self, "abs")
        return Q(UnOpE("abs", self.exp, self.ty))

    # -- string operations (text is a basic type, Section 3.1) ----------
    def str_cat(self, other: Any) -> "Q":
        """String concatenation (also reachable as ``+`` on String)."""
        a, b = _coerce_pair(self, other)
        if a.ty != StringT:
            raise QTypeError(f"str_cat requires String operands, got "
                             f"{a.ty.show()}")
        return Q(BinOpE("cat", a.exp, b.exp, StringT))

    def like(self, pattern: Any) -> "Q":
        """SQL-style pattern match: ``%`` matches any run, ``_`` any one
        character (case-sensitive)."""
        a, b = _coerce_pair(self, pattern)
        if a.ty != StringT:
            raise QTypeError(f"like requires String operands, got "
                             f"{a.ty.show()}")
        return Q(BinOpE("like", a.exp, b.exp, BoolT))

    def upper(self) -> "Q":
        """Uppercase a String."""
        return self._str_unop("upper", StringT)

    def lower(self) -> "Q":
        """Lowercase a String."""
        return self._str_unop("lower", StringT)

    def strlen(self) -> "Q":
        """Character count of a String."""
        return self._str_unop("strlen", IntT)

    def _str_unop(self, op: str, res) -> "Q":
        if self.ty != StringT:
            raise QTypeError(f"{op} requires a String, got {self.ty.show()}")
        return Q(UnOpE(op, self.exp, res))

    # -- date/time accessors ---------------------------------------------
    def year(self) -> "Q":
        """Calendar year of a Date."""
        return self._date_part("year", _DATE)

    def month(self) -> "Q":
        """Calendar month (1-12) of a Date."""
        return self._date_part("month", _DATE)

    def day(self) -> "Q":
        """Day of month of a Date."""
        return self._date_part("day", _DATE)

    def hour(self) -> "Q":
        """Hour (0-23) of a Time."""
        return self._date_part("hour", _TIME)

    def minute(self) -> "Q":
        """Minute of a Time."""
        return self._date_part("minute", _TIME)

    def second(self) -> "Q":
        """Second of a Time."""
        return self._date_part("second", _TIME)

    def _date_part(self, op: str, expected) -> "Q":
        if self.ty != expected:
            raise QTypeError(f"{op} requires a {expected.show()}, got "
                             f"{self.ty.show()}")
        return Q(UnOpE(op, self.exp, IntT))

    def to_double(self) -> "Q":
        """Widen an ``Int`` query to ``Double`` (explicit cast; Ferry has no
        implicit numeric coercions)."""
        if self.ty == DoubleT:
            return self
        if self.ty != IntT:
            raise QTypeError(f"to_double: expected Int, got {self.ty.show()}")
        return Q(UnOpE("to_double", self.exp, DoubleT))

    # ------------------------------------------------------------------
    # boolean connectives
    # ------------------------------------------------------------------
    def __and__(self, other: Any) -> "Q":
        return _boolop("and", self, other)

    def __rand__(self, other: Any) -> "Q":
        return _boolop("and", to_q(other, hint=BoolT), self)

    def __or__(self, other: Any) -> "Q":
        return _boolop("or", self, other)

    def __ror__(self, other: Any) -> "Q":
        return _boolop("or", to_q(other, hint=BoolT), self)

    def __invert__(self) -> "Q":
        if self.ty != BoolT:
            raise QTypeError(f"'~' requires Bool, got {self.ty.show()}")
        return Q(UnOpE("not", self.exp, BoolT))

    # ------------------------------------------------------------------
    # structure access
    # ------------------------------------------------------------------
    def __getitem__(self, index: Any) -> "Q":
        """Tuple projection (``q[0]`` on a tuple query, Python ``int``) or
        list indexing (``xs[i]`` on a list query, Haskell's ``!!``)."""
        if isinstance(self.ty, TupleT):
            if not isinstance(index, int):
                raise QTypeError("tuple projection requires a literal int index")
            n = len(self.ty.elts)
            if not -n <= index < n:
                raise QTypeError(f"tuple index {index} out of range for "
                                 f"{self.ty.show()}")
            return Q(TupleElemE(self.tup_exp(), index % n))
        if isinstance(self.ty, ListT):
            from .combinators import index as list_index
            return list_index(self, index)
        raise QTypeError(f"{self.ty.show()} is neither a tuple nor a list")

    def tup_exp(self) -> Exp:
        return self.exp

    def __iter__(self) -> Iterator["Q"]:
        """Unpack a tuple-typed query: ``feat, mean = row``."""
        if not isinstance(self.ty, TupleT):
            raise QTypeError(f"cannot unpack {self.ty.show()}; only tuple "
                             f"queries support destructuring")
        return iter(tuple(self[i] for i in range(len(self.ty.elts))))

    def __getattr__(self, name: str) -> "Q":
        if name.startswith("_") or self.rec is None:
            raise AttributeError(name)
        from .records import field_index
        idx = field_index(self.rec, name)
        if idx is None:
            raise AttributeError(f"{self.rec.__name__} has no field {name!r}")
        return self[idx]

    def __bool__(self) -> bool:
        raise QTypeError(
            "a Q value has no Python truth value; queries are not evaluated "
            "until run on a Connection.  Use '&', '|', '~' instead of "
            "'and', 'or', 'not', and cond(c, t, e) instead of 'if'.")


# ----------------------------------------------------------------------
# conversions (the QA type class, Section 3.1)
# ----------------------------------------------------------------------

def to_q(value: Any, hint: Type | None = None) -> Q:
    """Embed a Python heap value as a query (the paper's ``toQ``).

    Supports atoms, tuples, and arbitrarily nested lists thereof.  ``hint``
    is required for empty lists and permits ``int`` literals at ``Double``.
    """
    if isinstance(value, Q):
        if hint is not None and value.ty != hint:
            raise QTypeError(f"expected {hint.show()}, got a query of type "
                             f"{value.ty.show()}")
        return value
    from .records import is_queryable, record_to_tuple
    if is_queryable(type(value)):
        rec_cls = type(value)
        q = to_q(record_to_tuple(value), hint)
        return Q(q.exp, rec=rec_cls)
    ty = infer_type(value, hint)
    if hint is None:
        # inference through partially unknown (empty-list) structure must
        # still validate the whole value against the unified type
        from ..ftypes import check_value
        check_value(value, ty)
    value = normalize_value(value, ty)
    return Q(_embed(value, ty))


def _embed(value: Any, ty: Type) -> Exp:
    if isinstance(ty, AtomT):
        return LitE(value, ty)
    if isinstance(ty, TupleT):
        return TupleE(tuple(_embed(v, t) for v, t in zip(value, ty.elts)))
    if isinstance(ty, ListT):
        return ListE(tuple(_embed(v, ty.elt) for v in value), ty)
    raise QTypeError(f"unsupported type {ty!r}")  # pragma: no cover


def nil(elem_ty: Type) -> Q:
    """The empty list at a given element type (``toQ []`` needs the hint)."""
    return Q(ListE((), ListT(elem_ty)))


def tup(*parts: Any) -> Q:
    """Build a tuple query from component queries or Python values."""
    qs = [to_q(p) for p in parts]
    if not qs:
        raise QTypeError("empty tuples are not representable")
    if len(qs) == 1:
        return qs[0]
    return Q(TupleE(tuple(q.exp for q in qs)))


def fst(q: Q) -> Q:
    """First component of a pair query."""
    return q[0]


def snd(q: Q) -> Q:
    """Second component of a pair query."""
    return q[1]


def cond(c: Any, t: Any, e: Any) -> Q:
    """``if c then t else e`` lifted to queries (any result type)."""
    cq = to_q(c, hint=BoolT)
    tq = to_q(t)
    eq_ = to_q(e, hint=tq.ty)
    if cq.ty != BoolT:
        raise QTypeError(f"cond: condition must be Bool, got {cq.ty.show()}")
    if tq.ty != eq_.ty:
        raise QTypeError(f"cond: branch types differ: {tq.ty.show()} vs "
                         f"{eq_.ty.show()}")
    return Q(IfE(cq.exp, tq.exp, eq_.exp), rec=tq.rec or eq_.rec)


# ----------------------------------------------------------------------
# lambda embedding
# ----------------------------------------------------------------------

def lam(f: Callable[..., Any], arg_ty: Type, rec: type | None = None) -> LamE:
    """Reify a Python callable into a ``LamE``.

    The callable receives a fresh variable wrapped in :class:`Q`; if the
    argument type is an n-tuple and the callable takes n parameters, the
    components are unpacked positionally (the view-pattern convenience of
    Section 3.1).
    """
    if not callable(f):
        what = f.ty.show() if isinstance(f, Q) else type(f).__name__
        raise QTypeError(f"expected a function, got {what}")
    name = fresh_var()
    var = Q(VarE(name, arg_ty), rec=rec)
    args: tuple[Any, ...]
    nparams = _arity(f)
    if (nparams is not None and nparams > 1
            and isinstance(arg_ty, TupleT) and len(arg_ty.elts) == nparams):
        args = tuple(var[i] for i in range(nparams))
    else:
        args = (var,)
    body = f(*args)
    body_q = to_q(body)
    return LamE(name, arg_ty, body_q.exp)


def _arity(f: Callable[..., Any]) -> int | None:
    try:
        code = f.__code__
    except AttributeError:
        return None
    if code.co_flags & 0x04:  # *args
        return None
    return code.co_argcount - len(f.__defaults__ or ())


# ----------------------------------------------------------------------
# operator helpers
# ----------------------------------------------------------------------

def _coerce_pair(a: Q, b: Any) -> tuple[Q, Q]:
    bq = to_q(b, hint=a.ty) if not isinstance(b, Q) else b
    if a.ty != bq.ty:
        raise QTypeError(f"operand types differ: {a.ty.show()} vs "
                         f"{bq.ty.show()}")
    return a, bq


def _compare(op: str, a: Q, b: Any) -> Q:
    a, bq = _coerce_pair(a, b)
    if op in ("eq", "ne"):
        if not is_flat(a.ty):
            raise QTypeError(f"(==) requires a flat type (atoms / tuples of "
                             f"atoms), got {a.ty.show()}")
    else:
        if not is_orderable(a.ty):
            raise QTypeError(f"ordering comparison requires an orderable "
                             f"type, got {a.ty.show()}")
    return _compare_exp(op, a, bq)


def _compare_exp(op: str, a: Q, b: Q) -> Q:
    """Compile comparisons; tuple comparisons unfold component-wise so that
    ``BinOpE`` only ever relates atoms."""
    if isinstance(a.ty, AtomT):
        return Q(BinOpE(op, a.exp, b.exp, BoolT))
    assert isinstance(a.ty, TupleT)
    n = len(a.ty.elts)
    if op in ("eq", "ne"):
        acc = _compare_exp("eq", a[0], b[0])
        for i in range(1, n):
            acc = acc & _compare_exp("eq", a[i], b[i])
        return ~acc if op == "ne" else acc
    # lexicographic: strict ops delegate to (head-strict | head-eq & rest)
    strict = {"lt": "lt", "le": "lt", "gt": "gt", "ge": "gt"}[op]
    rest_op = {"lt": "lt", "le": "le", "gt": "gt", "ge": "ge"}[op]
    head_strict = _compare_exp(strict, a[0], b[0])
    head_eq = _compare_exp("eq", a[0], b[0])
    if n == 2:
        rest = _compare_exp(rest_op, a[1], b[1])
    else:
        a_rest = tup(*(a[i] for i in range(1, n)))
        b_rest = tup(*(b[i] for i in range(1, n)))
        rest = _compare_exp(rest_op, a_rest, b_rest)
    return head_strict | (head_eq & rest)


def _arith(op: str, a: Q, b: Any) -> Q:
    a, bq = _coerce_pair(a, b)
    _require_numeric(a, f"'{op}'")
    return Q(BinOpE(op, a.exp, bq.exp, a.ty))


def _boolop(op: str, a: Q, b: Any) -> Q:
    a, bq = _coerce_pair(a, b)
    if a.ty != BoolT:
        raise QTypeError(f"'{op}' requires Bool operands, got {a.ty.show()}")
    return Q(BinOpE(op, a.exp, bq.exp, BoolT))


def _require_numeric(q: Q, who: str) -> None:
    if not (is_atom(q.ty) and is_numeric(q.ty)):
        raise QTypeError(f"{who} requires a numeric operand, got "
                         f"{q.ty.show()}")


def min_q(a: Any, b: Any) -> Q:
    """Binary minimum of two orderable atom queries (Haskell's ``min``)."""
    return _minmax("min", a, b)


def max_q(a: Any, b: Any) -> Q:
    """Binary maximum of two orderable atom queries (Haskell's ``max``)."""
    return _minmax("max", a, b)


def _minmax(op: str, a: Any, b: Any) -> Q:
    aq = to_q(a)
    aq, bq = _coerce_pair(aq, b)
    if not (is_atom(aq.ty) and is_orderable(aq.ty)):
        raise QTypeError(f"{op} requires orderable atoms, got {aq.ty.show()}")
    return Q(BinOpE(op, aq.exp, bq.exp, aq.ty))
