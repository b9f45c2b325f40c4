"""Query-execution backends: the in-memory column engine and SQL:1999/SQLite."""

from .base import Backend, ExecutionResult

__all__ = ["Backend", "ExecutionResult"]
