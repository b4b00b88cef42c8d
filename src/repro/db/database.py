"""The database facade: parse → plan → execute, plus transactions and WAL.

A :class:`Database` is a self-contained, extensible relational engine:

>>> db = Database()
>>> db.execute("CREATE TABLE genes (id INTEGER PRIMARY KEY, name TEXT)")
>>> db.execute("INSERT INTO genes VALUES (1, 'lacZ')")
1
>>> db.execute("SELECT name FROM genes WHERE id = 1").scalar()
'lacZ'

Extensibility (sections 6.2–6.3): :meth:`Database.register_type` adds an
opaque UDT, :meth:`Database.register_function` a UDF usable anywhere an
expression may occur, ``CREATE INDEX … USING kmer`` a genomic index.
The adapter (:mod:`repro.adapter`) uses exactly these three hooks to plug
the whole Genomics Algebra in.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.db.catalog import Catalog, SqlAggregate
from repro.db.columnar import ColumnarRuntime
from repro.db.index import INDEX_KINDS
from repro.db.schema import Column, TableSchema
from repro.db.sql import ast
from repro.db.sql.expressions import (
    NO_COLUMNS,
    Evaluator,
    Frame,
    RowContext,
    one,
)
from repro.db.sql.functions import register_builtin_functions
from repro.db.sql.optimizer import Planner
from repro.db.sql.parser import parse
from repro.db.sql.plan import PlanNode
from repro.db.table import Table
from repro.db.values import NULL, OpaqueType
from repro.errors import (
    CatalogError,
    DatabaseError,
    SqlSyntaxError,
    TransactionError,
)
from repro.obs.trace import span as _span

#: Refused inside a transaction: its undo log holds rows, not schemas.
_DDL = (ast.CreateTable, ast.CreateIndex, ast.DropTable, ast.DropIndex)


class ResultSet:
    """The rows of a SELECT, with their output column names."""

    def __init__(self, columns: Sequence[str], rows: list[tuple]) -> None:
        self.columns = list(columns)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"

    def first(self) -> tuple | None:
        """The first row, or ``None`` when empty."""
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise DatabaseError(
                f"scalar() needs exactly one row and column, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> list[Any]:
        """All values of one output column."""
        try:
            position = self.columns.index(name)
        except ValueError:
            raise DatabaseError(f"no output column {name!r}") from None
        return [row[position] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def pretty(self, max_rows: int = 20) -> str:
        """A fixed-width text table (for examples and the BiQL shell)."""
        def fmt(value: Any) -> str:
            if value is NULL:
                return "NULL"
            text = str(value)
            return text if len(text) <= 32 else text[:29] + "..."

        shown = self.rows[:max_rows]
        cells = [[fmt(v) for v in row] for row in shown]
        widths = [
            max(len(self.columns[i]),
                *(len(row[i]) for row in cells)) if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = " | ".join(
            name.ljust(width) for name, width in zip(self.columns, widths)
        )
        rule = "-+-".join("-" * width for width in widths)
        body = [
            " | ".join(cell.ljust(width)
                       for cell, width in zip(row, widths))
            for row in cells
        ]
        lines = [header, rule, *body]
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


#: Statements a database keeps prepared, least recently used evicted.
#: The whole stack issues a few dozen distinct parametrised texts.
STATEMENT_CACHE_SIZE = 256


class _Prepared:
    """One cached statement: its AST and its plan — a SELECT's, or the
    access path to the rows an UPDATE / DELETE changes (``None`` for
    every other statement).

    ``version`` is the catalog version ``plan``, ``subplans`` and
    ``compiled`` were built under (−1: not planned yet).  ``subplans``
    memoises the plans of the statement's subqueries, keyed on the
    identity of their ``Select`` node — the AST is kept alive by this
    entry, so the ids are stable for as long as the memo exists.
    ``compiled`` holds (as a 1-tuple, once built) what a DML statement
    evaluates per row: its VALUES or SET expressions as column closures.
    """

    __slots__ = ("statement", "plan", "version", "subplans", "compiled")

    def __init__(self, statement: ast.Statement) -> None:
        self.statement = statement
        self.plan: "PlanNode | None" = None
        self.version = -1
        self.subplans: dict[int, PlanNode] = {}
        self.compiled: Any = None


class Database:
    """An extensible relational database.

    ``layout`` picks the heap of newly created tables: ``"row"`` (the
    classic row-list, the differential oracle) or ``"column"`` (sealed
    column pages with zone maps and a page cache).  A finite
    ``memory_budget`` (bytes) bounds resident column pages *plus* what
    the streaming operators hold (they spill what it cannot), so queries
    over data larger than the budget still complete; ``None`` disables
    spilling.  ``page_rows`` is the row-group height of columnar
    tables.

    Every statement runs from a prepared entry (:meth:`_prepare`): the
    SQL text is parsed once and a SELECT, UPDATE or DELETE planned once
    per catalog version, however often it is executed.
    """

    def __init__(self, optimize: bool = True, layout: str = "row",
                 memory_budget: "int | None" = None,
                 page_rows: int = 256) -> None:
        if layout not in ("row", "column"):
            raise DatabaseError(f"unknown table layout {layout!r}")
        self.catalog = Catalog()
        self.optimize = optimize
        self.layout = layout
        self.columnar = ColumnarRuntime(self.catalog, memory_budget,
                                        page_rows)
        self._planner = Planner(self, optimize=optimize)
        self._evaluator = Evaluator(self)
        self._index_owner: dict[str, str] = {}  # index name -> table name
        self._index_definitions: dict[str, ast.CreateIndex] = {}
        self._wal: "Callable[[Any, Sequence[Any]], None] | None" = None
        self._undo: list[tuple] = []  # (undo, *arguments) per row change
        #: ``(sql, parameters, ? count)`` per statement of the open
        #: transaction; ``None`` outside one.
        self._transaction: "list[tuple[str, tuple, int]] | None" = None
        self._statements: "OrderedDict[str, _Prepared]" = OrderedDict()
        #: The entry whose statement is executing (subplans memoise there).
        self._running: "_Prepared | None" = None
        register_builtin_functions(self.catalog)

    # -- extensibility hooks ----------------------------------------------------

    def register_type(self, opaque: OpaqueType) -> None:
        """Register an opaque UDT (section 6.2)."""
        self.catalog.register_type(opaque)

    def register_function(
        self,
        name: str,
        function: Callable[..., Any],
        selectivity: float | None = None,
        description: str = "",
        replace: bool = False,
        kernel: str | None = None,
    ) -> None:
        """Register a scalar UDF usable in any SQL expression (section 6.3)."""
        self.catalog.register_function(
            name, function, selectivity, description, replace, kernel
        )

    def register_aggregate(self, aggregate: SqlAggregate,
                           replace: bool = False) -> None:
        self.catalog.register_aggregate(aggregate, replace)

    def attach_wal(self, writer: Callable[[Any, Sequence[Any]], None]) -> None:
        """Attach a write-ahead log sink, called once per mutating
        statement outside a transaction and once per commit."""
        self._wal = writer

    @contextmanager
    def suppress_wal(self) -> Iterator[None]:
        """Mute the WAL sink for a block — used by WAL replay so recovery
        never re-appends the statements it is reading back to their own
        log."""
        saved, self._wal = self._wal, None
        try:
            yield
        finally:
            self._wal = saved

    # -- transactions --------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None

    def begin(self) -> None:
        if self.in_transaction:
            raise TransactionError("a transaction is already active")
        self._transaction = []

    def commit(self) -> None:
        """Log the transaction as one WAL line: one statement as itself,
        several as their texts and their parameters end to end, each
        statement's cut to its ``?`` count."""
        if not self.in_transaction:
            raise TransactionError("no active transaction")
        log, self._transaction = self._transaction, None
        self._undo.clear()
        if self._wal is not None and len(log) == 1:
            self._wal(*log[0][:2])
        elif self._wal is not None and log:
            self._wal([sql for sql, __, __ in log],
                      [value for __, parameters, count in log
                       for value in parameters[:count]])

    def rollback(self) -> None:
        """Undo every row change since :meth:`begin`, last first."""
        if not self.in_transaction:
            raise TransactionError("no active transaction")
        self._transaction = None
        self._unwind(0)

    def redo(self, sql: "str | list[str]", parameters: list[Any]) -> int:
        """Run what the WAL sink was handed; returns the statements run.
        A committed transaction's line runs as one transaction: whole,
        or it raises and changes nothing."""
        if isinstance(sql, str):
            self.execute(sql, parameters)
            return 1
        self.begin()
        try:
            for text in sql:
                entry = self._prepare(text)
                count = entry.statement.parameter_count
                self._run(entry, text, parameters[:count])
                del parameters[:count]
        except BaseException:
            self.rollback()
            raise
        self.commit()
        return len(sql)

    def _unwind(self, mark: int) -> None:
        while len(self._undo) > mark:
            step, *arguments = self._undo.pop()
            step(*arguments)

    # -- execution -------------------------------------------------------------------

    def _prepare(self, sql: str) -> _Prepared:
        """The prepared entry for *sql*: parsed on first sight, (re)planned
        when the catalog version has moved since it was last planned.

        The ``sql.parse`` / ``sql.plan`` spans are emitted per statement
        either way, tagged ``cache="hit"|"miss"``.
        """
        entry = self._statements.get(sql)
        if entry is None:
            with _span("sql.parse", cache="miss"):
                entry = _Prepared(parse(sql))
            self._statements[sql] = entry
            if len(self._statements) > STATEMENT_CACHE_SIZE:
                self._statements.popitem(last=False)
        else:
            self._statements.move_to_end(sql)
            with _span("sql.parse", cache="hit"):
                pass
        version = self.catalog.version
        if entry.version == version:
            if entry.plan is not None:
                with _span("sql.plan", cache="hit"):
                    pass
            return entry
        entry.subplans.clear()
        entry.compiled = None
        statement = entry.statement
        if isinstance(statement, ast.Select):
            with _span("sql.plan", cache="miss"):
                entry.plan = self._planner.plan_select(statement)
        elif isinstance(statement, (ast.Update, ast.Delete)):
            with _span("sql.plan", cache="miss"):
                entry.plan = self._planner.plan_change(statement)
        entry.version = version
        return entry

    def execute(self, sql: str, parameters: Sequence[Any] = (), *,
                check: "Callable[[ast.Statement], None] | None" = None,
                ) -> Any:
        """Run one SQL statement.

        Returns a :class:`ResultSet` for SELECT, the number of affected
        rows for DML, and ``None`` for DDL.  *check*, if given, sees the
        parsed statement before it runs and may raise to refuse it.
        """
        if parameters is None:
            raise DatabaseError(
                f"parameters of {sql!r} must be a sequence, got None"
            )
        entry = self._prepare(sql)
        if check is not None:
            check(entry.statement)
        return self._run(entry, sql, parameters)

    def _run(self, entry: _Prepared, sql: str,
             parameters: Sequence[Any]) -> Any:
        suspended, self._running = self._running, entry
        mark = len(self._undo)
        try:
            if isinstance(entry.statement, ast.Select):
                return self._run_select(entry.plan, parameters)
            result = self._dispatch(entry.statement, parameters)
        except BaseException:
            self._unwind(mark)  # one statement changes all its rows or none
            raise
        finally:
            self._running = suspended
        self._log_mutation(sql, tuple(parameters), entry.statement)
        return result

    def executemany(self, sql: str,
                    parameter_rows: Sequence[Sequence[Any]]) -> int:
        """Run one DML statement once per parameter row; returns total."""
        total = 0
        for parameters in parameter_rows:
            outcome = self.execute(sql, parameters)
            total += outcome if isinstance(outcome, int) else 0
        return total

    def query(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        """Run a statement that must be a SELECT."""
        result = self.execute(sql, parameters)
        if not isinstance(result, ResultSet):
            raise DatabaseError("query() requires a SELECT statement")
        return result

    def explain(self, sql: str, parameters: Sequence[Any] = (), *,
                analyze: bool = False) -> str:
        """The plan :meth:`execute` runs for a SELECT, UPDATE or DELETE,
        as an indented tree with the planner's row estimates.  With
        *analyze* a SELECT is run (under *parameters*) and every operator
        also shows the rows and batches it actually produced."""
        entry = self._prepare(sql)
        if entry.plan is None:
            raise DatabaseError(
                "EXPLAIN supports only SELECT, UPDATE or DELETE")
        if analyze:
            if not isinstance(entry.statement, ast.Select):
                raise DatabaseError("EXPLAIN analyze=True would run the write")
            self.execute(sql, parameters)
        return entry.plan.explain(analyze=analyze)

    def _log_mutation(self, sql: str, parameters: tuple,
                      statement: ast.Statement) -> None:
        if self.in_transaction:
            self._transaction.append(
                (sql, parameters, statement.parameter_count))
            return
        self._undo.clear()
        if self._wal is not None:
            self._wal(sql, parameters)

    def _dispatch(self, statement: ast.Statement,
                  parameters: Sequence[Any]) -> Any:
        if self.in_transaction and isinstance(statement, _DDL):
            raise TransactionError(
                f"{type(statement).__name__} inside a transaction")
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._create_index(statement)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        if isinstance(statement, ast.DropIndex):
            return self._drop_index(statement)
        if isinstance(statement, ast.Insert):
            return self._insert(statement, parameters)
        if isinstance(statement, ast.Update):
            return self._update(statement, parameters)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, parameters)
        if isinstance(statement, ast.Analyze):
            return self.analyze(statement.table)
        raise DatabaseError(
            f"unsupported statement {type(statement).__name__}"
        )

    def analyze(self, table_name: str) -> None:
        """Collect planner statistics for one table (``ANALYZE t``)."""
        self.catalog.table(table_name).collect_statistics()
        return None

    # -- SELECT ----------------------------------------------------------------------

    def _run_select(self, plan: PlanNode,
                    parameters: Sequence[Any]) -> ResultSet:
        with _span("sql.execute") as spn:
            rows = list(plan.execute(parameters, None))
            spn.annotate(rows=len(rows))
        columns = [column for _, column in plan.frame.slots]
        return ResultSet(columns, rows)

    def run_subquery(
        self,
        select: ast.Select,
        outer: "RowContext | None",
        limit: int | None = None,
    ) -> list[tuple]:
        """Execute a (possibly correlated) subquery; used by the evaluator.

        Its plan is memoised on the running statement's prepared entry,
        so a correlated subquery is planned once, not once per outer row.
        """
        memo = self._running.subplans if self._running is not None else {}
        plan = memo.get(id(select))
        if plan is None:
            plan = memo[id(select)] = self._planner.plan_select(select, True)
        parameters = outer.parameters if outer is not None else ()
        rows: list[tuple] = []
        for values in plan.execute(parameters, outer):
            rows.append(values)
            if limit is not None and len(rows) >= limit:
                break
        return rows

    # -- DDL ---------------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> None:
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return None
        columns: list[Column] = []
        primary_key: str | None = None
        unique: list[str] = []
        for definition in statement.columns:
            sql_type = self.catalog.resolve_type(definition.type_name)
            default = (definition.default.value
                       if definition.default is not None else NULL)
            columns.append(Column(
                definition.name, sql_type,
                not_null=definition.not_null, default=default,
            ))
            if definition.primary_key:
                if primary_key is not None:
                    raise CatalogError(
                        f"table {statement.name!r} has two primary keys"
                    )
                primary_key = definition.name
            if definition.unique:
                unique.append(definition.name)
        schema = TableSchema(statement.name, columns, primary_key,
                             tuple(unique))
        self.create_table(schema)
        return None

    def create_table(self, schema: TableSchema, layout: str | None = None):
        """Create a table with the database's (or an explicit) layout."""
        table = Table(schema, layout=layout or self.layout,
                      runtime=self.columnar)
        return self.catalog.create_table(schema, table)

    def _create_index(self, statement: ast.CreateIndex) -> None:
        name = statement.name.lower()
        if statement.if_not_exists and name in self._index_owner:
            return None
        if name in self._index_owner:
            raise CatalogError(f"index {name!r} already exists")
        table = self.catalog.table(statement.table)
        kind = statement.using.lower()
        try:
            index_class = INDEX_KINDS[kind]
        except KeyError:
            raise CatalogError(
                f"unknown index kind {kind!r}; expected one of "
                f"{sorted(INDEX_KINDS)}"
            ) from None
        keyword_arguments: dict[str, int] = {}
        if kind == "kmer" and "k" in statement.parameters:
            keyword_arguments["k"] = statement.parameters["k"]
        if kind == "btree" and "order" in statement.parameters:
            keyword_arguments["order"] = statement.parameters["order"]
        index = index_class(name, statement.table, statement.column,
                            **keyword_arguments)
        table.attach_index(index)
        self._index_owner[name] = table.name
        self._index_definitions[name] = statement
        return None

    def _drop_table(self, statement: ast.DropTable) -> None:
        name = statement.name.lower()
        if statement.if_exists and not self.catalog.has_table(name):
            return None
        self.catalog.drop_table(name)
        orphaned = [index for index, owner in self._index_owner.items()
                    if owner == name]
        for index in orphaned:
            del self._index_owner[index]
            self._index_definitions.pop(index, None)
        return None

    def _drop_index(self, statement: ast.DropIndex) -> None:
        name = statement.name.lower()
        if statement.if_exists and name not in self._index_owner:
            return None
        if name not in self._index_owner:
            raise CatalogError(f"no index named {name!r}")
        table = self.catalog.table(self._index_owner[name])
        table.detach_index(name)
        del self._index_owner[name]
        self._index_definitions.pop(name, None)
        return None

    @property
    def index_definitions(self) -> tuple[ast.CreateIndex, ...]:
        """The CREATE INDEX statements currently in force (for storage)."""
        return tuple(self._index_definitions.values())

    # -- DML -------------------------------------------------------------------------------

    def _compiled(self, build: Callable) -> Any:
        """What *build* compiles for the running DML statement — once per
        catalog version, kept on its prepared entry beside its plan."""
        entry = self._running
        if entry.compiled is None:
            entry.compiled = (build(),)
        return entry.compiled[0]

    def _insert(self, statement: ast.Insert,
                parameters: Sequence[Any]) -> int:
        table = self.catalog.table(statement.table)
        context = RowContext.without_row(parameters)
        compile_ = self._evaluator.compile
        value_rows = self._compiled(lambda: [
            [compile_(expression, NO_COLUMNS) for expression in value_row]
            for value_row in statement.rows])
        for value_row in value_rows:
            row = [one(column, context) for column in value_row]
            if statement.columns is not None:
                if len(row) != len(statement.columns):
                    raise SqlSyntaxError("INSERT column list and VALUES "
                                         "row differ in length")
                row = table.schema.complete_row(dict(zip(
                    map(str.lower, statement.columns), row)))
            self._undo.append((table.delete, table.insert(row)))
        return len(value_rows)

    def _update(self, statement: ast.Update,
                parameters: Sequence[Any]) -> int:
        table = self.catalog.table(statement.table)
        frame = Frame.for_table(table.name, table.schema.column_names)
        compile_ = self._evaluator.compile
        assignments = self._compiled(lambda: [
            (table.schema.position(column), compile_(expression, frame))
            for column, expression in statement.assignments])
        context = RowContext.without_row(parameters)
        row_ids = self._running.plan.row_ids(parameters)
        for row_id in row_ids:
            old_row = table.row(row_id)
            new_row = list(old_row)
            for position, column in assignments:
                new_row[position] = one(column, context, old_row)
            table.update(row_id, new_row)
            self._undo.append((table.update, row_id, old_row))
        return len(row_ids)

    def _delete(self, statement: ast.Delete,
                parameters: Sequence[Any]) -> int:
        table = self.catalog.table(statement.table)
        row_ids = self._running.plan.row_ids(parameters)
        for row_id in row_ids:
            self._undo.append((table.put_back, row_id, *table.delete(row_id)))
        return len(row_ids)
