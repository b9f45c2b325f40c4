"""FERRY: database-supported program execution -- a Python reproduction.

A relational database serves as a *coprocessor* for Python: list-prelude
programs over arbitrarily nested lists and tuples are compiled -- via
loop-lifting and a Pathfinder-style table algebra -- into an
avalanche-safe bundle of relational queries (one per list constructor in
the result type), executed on a backend (in-memory engine, SQLite via
generated SQL:1999, or a MIL-style column VM), and stitched back into
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
    AnalyzeReport,
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
    "AnalyzeReport",
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
