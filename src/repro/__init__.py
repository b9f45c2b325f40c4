"""FERRY: database-supported program execution -- a Python reproduction.

A relational database serves as a *coprocessor* for Python: list-prelude
programs over arbitrarily nested lists and tuples are compiled -- via
loop-lifting and a Pathfinder-style table algebra -- into an
avalanche-safe bundle of relational queries (one per list constructor in
the result type), executed on a backend (the in-memory column-at-a-time
engine, or SQLite via generated SQL:1999), and stitched back into
ordinary Python values.
"""

from .errors import (
    CompilationError,
    ComprehensionSyntaxError,
    ExecutionError,
    FerryError,
    ObservabilityError,
    PartialFunctionError,
    QTypeError,
    SchemaError,
    UnsupportedError,
)
from .frontend import *  # noqa: F401,F403 - curated __all__
from .frontend import __all__ as _frontend_all
from .obs import (
    ExplainReport,
    QueryLog,
    Trace,
)
from .runtime import (
    Catalog,
    CompiledQuery,
    Connection,
    PlanCache,
    PreparedQuery,
)

__version__ = "1.0.0"

__all__ = list(_frontend_all) + [
    "Catalog",
    "CompiledQuery",
    "Connection",
    "ExplainReport",
    "PlanCache",
    "PreparedQuery",
    "QueryLog",
    "Trace",
    "CompilationError",
    "ComprehensionSyntaxError",
    "ExecutionError",
    "FerryError",
    "ObservabilityError",
    "PartialFunctionError",
    "QTypeError",
    "SchemaError",
    "UnsupportedError",
    "__version__",
]
