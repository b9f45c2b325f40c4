"""SQL:1999 code generation and the DB-API executor."""

from .backend import SQLiteBackend
from .dbapi import SQLITE_DIALECT, SQLiteAdapter, SQLiteDialect, load_catalog
from .generate import GeneratedSQL, Step, generate_bundle

__all__ = [
    "GeneratedSQL",
    "SQLITE_DIALECT",
    "SQLiteAdapter",
    "SQLiteBackend",
    "SQLiteDialect",
    "Step",
    "generate_bundle",
    "load_catalog",
]
