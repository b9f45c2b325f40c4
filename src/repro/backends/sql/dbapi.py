"""The dialect / DB-API layer: hosting generated SQL:1999 on any PEP 249
driver.

The paper ran its bundles on PostgreSQL 9.0; this reproduction uses the
stdlib ``sqlite3``.  Nothing about the generated SQL is SQLite-specific
beyond a handful of quirks -- identifier quoting, type affinity names,
window-function spellings, and how the FERRY_* scalar UDFs are
registered -- so this module isolates exactly those quirks:

* :class:`SQLiteDialect` renders the engine-specific SQL fragments
  (its one instance is :data:`SQLITE_DIALECT`).  The code generator
  (``repro.backends.sql.generate``) asks the dialect for every fragment
  it emits, so the generator itself spells nothing engine-specific.
* :class:`SQLiteAdapter` is the connection factory: it opens a PEP 249
  ``sqlite3`` connection (file-or-memory), registers the FERRY_* UDFs
  on it, and says which driver it used.
* :func:`load_catalog` transfers a :class:`~repro.runtime.catalog.Catalog`
  instance into a connection (CREATE TABLE + executemany INSERT), every
  row with its position in the catalog's canonical order.

UDF error faithfulness: DB-API drivers report scalar-function failures
as their generic database error, losing the Python exception type.  The
UDFs therefore record the *original* exception in a thread-local
(:func:`record_udf_error` / :func:`take_udf_error`) so executors can
re-raise it faithfully -- division by zero must surface as
:class:`~repro.errors.PartialFunctionError` on every host engine.
"""

from __future__ import annotations

import datetime
import math
import sqlite3
import threading
from typing import Any, Callable, Iterable

from ...algebra.ops import position_column
from ...errors import ExecutionError, PartialFunctionError
from ...ftypes import AtomT, BoolT, DateT, DoubleT, IntT, StringT, TimeT
from ...runtime.catalog import Catalog

# ----------------------------------------------------------------------
# UDF error side channel (thread-local: backends on different threads
# must each see only their own error)
# ----------------------------------------------------------------------

_UDF_ERRORS = threading.local()


def record_udf_error(err: Exception) -> Exception:
    """Remember ``err`` so the executor can re-raise it faithfully."""
    _UDF_ERRORS.last = err
    return err


def clear_udf_error() -> None:
    _UDF_ERRORS.last = None


def take_udf_error() -> "Exception | None":
    """The UDF error recorded on this thread, if any."""
    return getattr(_UDF_ERRORS, "last", None)


def _ferry_div(a, b):
    if b == 0:
        raise record_udf_error(PartialFunctionError("division by zero"))
    return float(a) / float(b)


def _ferry_idiv(a, b):
    if b == 0:
        raise record_udf_error(PartialFunctionError("division by zero"))
    return a // b


def _ferry_mod(a, b):
    if b == 0:
        raise record_udf_error(PartialFunctionError("division by zero"))
    return a % b


def _ferry_like(value, pattern):
    from ...semantics.interp import like_match
    return int(like_match(value, pattern))


#: The scalar UDFs every hosting connection must provide:
#: name -> (arity, function).  Haskell's flooring div/mod semantics and
#: case-sensitive LIKE survive the translation through these.
FERRY_UDFS: dict[str, tuple[int, Callable]] = {
    "FERRY_DIV": (2, _ferry_div),
    "FERRY_IDIV": (2, _ferry_idiv),
    "FERRY_MOD": (2, _ferry_mod),
    "FERRY_LIKE": (2, _ferry_like),
}


# ----------------------------------------------------------------------
# the dialect
# ----------------------------------------------------------------------

class SQLiteDialect:
    """SQLite's spelling of SQL:1999.

    Everything the generator emits -- identifiers, literals, type
    names, window functions, scalar operators -- goes through here.
    SQLite accepts the standard query fragments (it grew window
    functions in 3.25); what it spells its own way is where tables live
    -- catalog tables in schema ``main``, temporary ones in ``temp`` --
    and the DDL and transaction around them.  An ``INTEGER PRIMARY
    KEY`` is its alias of the rowid: the position column costs nothing
    to store, and a scan delivers rows in its order.
    """

    #: Short identifier, reported by ``describe_prepared``.
    name = "sqlite"

    # -- identifiers and types -----------------------------------------
    def quote_ident(self, name: str) -> str:
        return '"' + name.replace('"', '""') + '"'

    def type_name(self, ty: AtomT) -> str:
        """Column type (affinity) for CREATE TABLE statements."""
        return {
            BoolT: "INTEGER",
            IntT: "INTEGER",
            DoubleT: "REAL",
            StringT: "TEXT",
            DateT: "TEXT",
            TimeT: "TEXT",
        }[ty]

    def column_def(self, name: str, ty: AtomT) -> str:
        """A CREATE TABLE column.  A ``Double`` one is declared with no
        type: ``REAL`` affinity stores an integral float as an integer,
        so a stored ``-0.0`` would read back as ``0.0``."""
        col = self.quote_ident(name)
        return col if ty == DoubleT else f"{col} {self.type_name(ty)}"

    #: Type of a catalog table's position column
    #: (:func:`~repro.algebra.position_column`): the key rows are stored
    #: and scanned by.
    position_type = "INTEGER PRIMARY KEY"

    # -- relations -----------------------------------------------------
    def table_ref(self, name: str) -> str:
        """A catalog table in FROM/INSERT/DDL position, qualified by its
        schema so that it can never be taken for one of the generator's
        relations."""
        return f"main.{self.quote_ident(name)}"

    def temp_table_ref(self, name: str) -> str:
        """A generator-named temporary table (``ferry_...``, a plain
        identifier) in FROM/INSERT/DDL position."""
        return f"temp.{name}"

    #: How the engine spells the start of a temporary-table definition.
    create_temp = "CREATE TEMP TABLE"
    #: Opens the transaction a bundle's temporary tables live in (rolling
    #: it back drops them).
    begin = "BEGIN"

    def create_temp_table(self, name: str,
                          columns: "Iterable[tuple[str, AtomT]]",
                          key: "str | None" = None) -> str:
        """DDL of a temporary table; ``key`` names the column declared
        its primary key (an ``Int``: on SQLite the rowid's alias)."""
        cols = ", ".join(self.column_def(c, ty)
                         + (" PRIMARY KEY" if c == key else "")
                         for c, ty in columns)
        return f"{self.create_temp} {self.temp_table_ref(name)} ({cols})"

    def create_index(self, name: str, table: str,
                     columns: "Iterable[str]") -> str:
        """DDL of an index on a catalog table's columns; ``name`` shares
        the catalog tables' namespace."""
        cols = ", ".join(map(self.quote_ident, columns))
        return (f"CREATE INDEX {self.table_ref(name)} ON "
                f"{self.quote_ident(table)} ({cols})")

    # -- literals ------------------------------------------------------
    def literal(self, value: Any, ty: AtomT) -> str:
        if ty == BoolT:
            return "1" if value else "0"
        if ty == IntT:
            return str(int(value))
        if ty == DoubleT:
            value = float(value)
            if math.isinf(value):
                # No SQL literal spells infinity; an overflowing one does.
                return "9e999" if value > 0 else "-9e999"
            return repr(value)
        if ty == StringT:
            return "'" + str(value).replace("'", "''") + "'"
        if ty in (DateT, TimeT):
            return "'" + value.isoformat() + "'"
        raise ExecutionError(f"cannot render literal of type {ty!r}")

    # -- window functions ----------------------------------------------
    def row_number(self, part: "tuple[str, ...]", order: str) -> str:
        prefix = ""
        if part:
            prefix = ("PARTITION BY "
                      + ", ".join(self.quote_ident(c) for c in part) + " ")
        return f"ROW_NUMBER() OVER ({prefix}ORDER BY {order})"

    def dense_rank(self, order: str) -> str:
        return f"DENSE_RANK() OVER (ORDER BY {order})"

    # -- data transfer -------------------------------------------------
    def to_db_value(self, value: Any) -> Any:
        """Python atom -> driver-level parameter value."""
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (datetime.date, datetime.time)):
            return value.isoformat()
        return value

    def from_db_value(self, ty: AtomT) -> "Callable[[Any], Any] | None":
        """Converter from driver-level values back to Python atoms;
        ``None`` where the driver hands out the atom itself (``Int``,
        ``String``)."""
        return {BoolT: bool, DoubleT: float,
                DateT: datetime.date.fromisoformat,
                TimeT: datetime.time.fromisoformat}.get(ty)


#: The dialect (module-level singleton; the generator and the executor
#: share it).
SQLITE_DIALECT = SQLiteDialect()


# ----------------------------------------------------------------------
# the adapter (PEP 249 connection factory)
# ----------------------------------------------------------------------

class SQLiteAdapter:
    """The stdlib ``sqlite3`` adapter (file-backed or ``:memory:``):
    opens connections speaking :attr:`dialect`, with the UDFs
    registered."""

    dialect: SQLiteDialect = SQLITE_DIALECT

    def __init__(self, path: str = ":memory:"):
        self.path = path

    def connect(self) -> sqlite3.Connection:
        # Any thread may use it; the backend's lock takes turns.
        conn = sqlite3.connect(self.path, check_same_thread=False)
        self.register_udfs(conn)
        return conn

    def register_udfs(self, conn: sqlite3.Connection) -> None:
        for name, (arity, func) in FERRY_UDFS.items():
            conn.create_function(name, arity, func, deterministic=True)

    def describe(self) -> str:
        # deliberately version-free: this string is embedded in prepared
        # artifacts (and golden files), which must not vary per machine
        return f"driver sqlite3, paramstyle {sqlite3.paramstyle}"


# ----------------------------------------------------------------------
# catalog transfer
# ----------------------------------------------------------------------

def load_catalog(conn: Any, catalog: Catalog, dialect: SQLiteDialect,
                 tables: "Iterable[str] | None" = None) -> None:
    """Load (or reload) the catalog instance into ``conn``.

    Drops every existing table first, then creates and populates
    ``tables`` (default: all of them); the first column of each holds
    the row's position in the catalog's canonical order.
    """
    q = dialect.quote_ident
    cur = conn.cursor()
    existing = [r[0] for r in cur.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'")]
    for name in existing:
        cur.execute(f"DROP TABLE {dialect.table_ref(name)}")
    for name in (catalog.table_names() if tables is None else tables):
        schema = catalog.schema(name)
        ref = dialect.table_ref(name)
        pos = position_column(c for c, _ in schema)
        cols = ", ".join([f"{q(pos)} {dialect.position_type}"] + [
            dialect.column_def(c, ty) for c, ty in schema])
        cur.execute(f"CREATE TABLE {ref} ({cols})")
        placeholders = ", ".join("?" * (len(schema) + 1))
        rows = [(i, *map(dialect.to_db_value, row))
                for i, row in enumerate(catalog.rows(name), start=1)]
        cur.executemany(f"INSERT INTO {ref} VALUES ({placeholders})", rows)
    conn.commit()
