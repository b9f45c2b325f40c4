"""Exception hierarchy for the FERRY reproduction.

Every error raised by the library derives from :class:`FerryError` so that
applications can catch library failures with a single ``except`` clause.
The subclasses mirror the pipeline stages of Figure 2 in the paper: front-end
construction and typing, comprehension parsing, compilation (loop-lifting),
back-end execution, and result stitching.
"""

from __future__ import annotations


class FerryError(Exception):
    """Base class for all errors raised by the library.

    Compile- and verify-time errors carry a stable diagnostic ``code``
    (``F1xx`` structural, ``F2xx`` order, ``F3xx`` avalanche -- see
    ``repro.analysis``) so tooling can match on the class of failure
    instead of parsing messages; ``None`` when no code applies.
    """

    #: Stable diagnostic code (e.g. ``"F101"``), or ``None``.
    code: "str | None" = None


class QTypeError(FerryError, TypeError):
    """An embedded expression is ill-typed.

    Raised eagerly at query-construction time.  This is the dynamic stand-in
    for the static checks that the paper delegates to Haskell's type checker
    via phantom typing (Section 3.1).
    """


class UnsupportedError(FerryError, NotImplementedError):
    """A feature the paper explicitly excludes was requested.

    The paper's Section 3.1 documents that general folds (``foldr``/``foldl``)
    and user-defined recursion are not compilable to non-recursive SQL:1999;
    requesting them raises this error instead of silently mis-compiling.
    """


class ComprehensionSyntaxError(FerryError, SyntaxError):
    """The ``qc``/``pyq`` comprehension quasi-quoter rejected its input."""


class CompilationError(FerryError):
    """Loop-lifting failed; indicates an internal inconsistency."""


class VerifyError(CompilationError):
    """The staged plan verifier (``repro.analysis``) rejected a plan.

    Carries the stable diagnostic ``code`` of the first failure and the
    full list of :class:`repro.analysis.Diagnostic` records in
    ``diagnostics``; messages include the pretty-printer's ``@n`` ref of
    the offending node so the failure can be located in
    ``plan_text`` / ``conn.explain()`` output.
    """

    def __init__(self, message: str, code: "str | None" = None,
                 diagnostics: "tuple | list" = ()):
        super().__init__(message)
        self.code = code
        self.diagnostics = list(diagnostics)


class SchemaError(FerryError):
    """A referenced table is missing or its declared row type is wrong.

    The paper notes that with DSH "it is the user's responsibility to make
    sure that the referenced table does exist in the database and that [the
    row type] indeed matches the table's row type -- otherwise, an error is
    thrown at runtime".  This is that error.
    """


class ExecutionError(FerryError):
    """A back-end failed while executing a query bundle."""


class ObservabilityError(FerryError):
    """An observability feature was read while disabled.

    Raised, for example, when ``Connection.last_trace`` is accessed on a
    connection constructed with ``trace=False``: instead of silently
    returning ``None`` (or surfacing an ``AttributeError`` deep in user
    code), the misconfiguration is reported where it happened, with the
    flag to flip.
    """


class PartialFunctionError(ExecutionError):
    """A partial list operation was applied outside its domain.

    Examples: ``head``/``the``/``maximum`` of an empty list, ``xs[i]`` with
    ``i`` out of bounds.  Matches the runtime errors the corresponding
    Haskell prelude functions raise.
    """

