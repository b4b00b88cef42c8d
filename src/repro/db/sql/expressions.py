"""Expressions compiled once into closures over column batches.

A :class:`Frame` names each position of a row with a ``(binding,
column)`` pair.  A :class:`Batch` is what every plan operator consumes
and produces: one equal-length column per frame slot.  A
:class:`RowContext` is one row under a frame plus the query parameters
and an optional **outer context** — the environment an execution runs
under, and what makes correlated subqueries work (a name not bound
locally resolves against the enclosing row).

:meth:`Evaluator.compile` folds an expression, once per plan, into a
**column closure** ``column(batch, context) -> list``: a column
reference is the batch's column itself, a row-invariant subtree is
computed once per batch and broadcast, ``AND`` / ``OR`` evaluate their
right side only on the rows the left side leaves undecided.  SQL
semantics throughout: NULL propagation, three-valued logic.

**Deferred errors.**  A cell that fails does not raise: it holds the
failure (:class:`~repro.db.columnar.vector.KernelError`) and marks its
column :class:`Failing`.  The operator that evaluated the column raises
it only when that row is consumed, in row order (:func:`settled`), so a
batch may be evaluated past the row a ``LIMIT`` stops at, or over rows a
filter discards, and the statement still answers — rows or ``(type,
message)`` — as if evaluated one row at a time.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache, partial
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.db.columnar.vector import KERNELS, KernelError
from repro.db.sql import ast
from repro.db.values import NULL, UNKNOWN, and3, compare, not3, or3
from repro.errors import (
    CatalogError,
    DatabaseError,
    SqlSyntaxError,
    TypeCheckError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

#: A compiled expression: ``column(batch, context)`` is one value per
#: row of the batch.
Column = Callable[["Batch", "RowContext"], list]


class Frame:
    """Positional naming of a row: ``(binding, column)`` per slot."""

    __slots__ = ("slots", "_lookup", "memo")

    def __init__(self, slots: Sequence[tuple[str | None, str]]) -> None:
        self.slots = tuple(slots)
        lookup: dict[str, list[int]] = {}
        for position, (_, column) in enumerate(self.slots):
            lookup.setdefault(column, []).append(position)
        self._lookup = lookup
        #: ``(table, column)`` -> the one slot that reference names, or -1
        #: when no slot does; filled by :meth:`RowContext.resolve` so a
        #: plan resolves each of its references once, not once per row.
        self.memo: dict[tuple[str | None, str], int] = {}

    def __len__(self) -> int:
        return len(self.slots)

    def __add__(self, other: "Frame") -> "Frame":
        return Frame(self.slots + other.slots)

    @classmethod
    def for_table(cls, binding: str, column_names: Sequence[str]) -> "Frame":
        return cls([(binding, column) for column in column_names])

    def positions(self, table: str | None, column: str) -> list[int]:
        """Slot positions matching a (possibly qualified) column reference."""
        candidates = self._lookup.get(column, [])
        if table is None:
            return list(candidates)
        return [
            position for position in candidates
            if self.slots[position][0] == table
        ]

    def bindings(self) -> tuple[str, ...]:
        seen: list[str] = []
        for binding, _ in self.slots:
            if binding is not None and binding not in seen:
                seen.append(binding)
        return tuple(seen)


class RowContext:
    """A frame + its values, query parameters, and the enclosing context."""

    __slots__ = ("frame", "values", "parameters", "outer")

    def __init__(self, frame: Frame, values: Sequence[Any],
                 parameters: Sequence[Any] = (),
                 outer: "RowContext | None" = None) -> None:
        self.frame = frame
        self.values = values
        self.parameters = parameters
        self.outer = outer

    @classmethod
    def without_row(cls, parameters: Sequence[Any],
                    outer: "RowContext | None" = None) -> "RowContext":
        """What one execution of a plan evaluates under — the
        parameters and the enclosing row — and all a row-less
        expression sees: index probes, zone bounds, INSERT values."""
        return cls(NO_COLUMNS, (), parameters, outer)

    def resolve(self, table: str | None, column: str) -> Any:
        memo = self.frame.memo
        position = memo.get((table, column))
        if position is None:
            positions = self.frame.positions(table, column)
            if len(positions) > 1:
                qualifier = f"{table}." if table else ""
                raise SqlSyntaxError(
                    f"ambiguous column reference {qualifier}{column!r}"
                )
            position = memo[table, column] = (positions[0] if positions
                                              else -1)
        if position >= 0:
            return self.values[position]
        if self.outer is not None:
            return self.outer.resolve(table, column)
        qualifier = f"{table}." if table else ""
        raise SqlSyntaxError(f"unknown column {qualifier}{column}")


NO_COLUMNS = Frame(())


class Batch:
    """Equal-length columns, one per slot of the producing operator's
    frame.  Cells are plain values; columns are never written to, so
    operators share them freely.

    A batch cut from a columnar row group also names that group
    (``view``) and where its rows sit in it (``offsets``; ``None`` when
    it holds every ordinal in order), which is how a kernel-tagged call
    reads the stored page instead of the decoded column.  A batch of a
    base table's rows — any scan's, or what a filter keeps of one — can
    say which row each is (:meth:`row_ids`): a row source hands the ids
    over (``ids``), a row group has them.
    """

    __slots__ = ("columns", "size", "view", "offsets", "ids")

    def __init__(self, columns: Sequence[Sequence[Any]], size: int,
                 view=None, offsets: "Sequence[int] | None" = None,
                 ids: "Sequence[int] | None" = None) -> None:
        self.columns = columns
        self.size = size
        self.view = view
        self.offsets = offsets
        self.ids = ids

    @classmethod
    def of_rows(cls, rows: Sequence[Sequence[Any]]) -> "Batch":
        return cls(list(zip(*rows)), len(rows))

    def rows(self) -> Iterator[tuple]:
        return zip(*self.columns) if self.columns else repeat((), self.size)

    def row_ids(self) -> Sequence[int]:
        """The table row id of each row of a base-table batch."""
        if self.view is None:
            return self.ids
        ids = self.view.row_ids
        return (ids if self.offsets is None
                else [ids[offset] for offset in self.offsets])

    def take(self, keep: Sequence[int]) -> "Batch":
        """The rows at the ascending positions *keep*."""
        offsets = None
        if self.view is not None:
            offsets = (list(keep) if self.offsets is None
                       else [self.offsets[row] for row in keep])
        return Batch([[column[row] for row in keep]
                      for column in self.columns],
                     len(keep), self.view, offsets,
                     self.ids and [self.ids[row] for row in keep])


_ONE_ROW = Batch((), 1)


class Failing(list):
    """A column at least one cell of which is a captured failure."""

    __slots__ = ()


def settled(size: int, columns: Sequence[Sequence[Any]]) -> tuple:
    """*columns*, just evaluated over a batch of *size* rows, as far as
    one-row-at-a-time evaluation would have got: ``(rows before the
    first failure, the columns cut to them, that failure or None)`` —
    the failure of the lowest row, then of the leftmost column."""
    found = None
    for column in columns:
        if type(column) is Failing:
            for row, value in enumerate(column):
                if type(value) is KernelError:
                    if found is None or row < found[0]:
                        found = (row, value.error)
                    break
    if found is None:
        return size, columns, None
    return found[0], [column[:found[0]] for column in columns], found[1]


def kept(batch: Batch, test: Column, context: "RowContext") -> tuple:
    """``(positions of the rows of batch a WHERE-style test keeps, up to
    its first failure; how many rows come before it; that failure or
    None)``."""
    size, (verdicts,), error = settled(
        batch.size, [truths(test(batch, context))])
    return [row for row, verdict in enumerate(verdicts)
            if verdict is True], size, error


def one(column: Column, context: RowContext,
        values: Sequence[Any] = ()) -> Any:
    """The value *column* computes for the single row *values*."""
    batch = Batch([(value,) for value in values], 1) if values else _ONE_ROW
    return _unwrap(column(batch, context)[0])


def _failure(exc: Exception, function: "str | None") -> KernelError:
    """*exc* as a cell; anything but the engine's own errors escaping
    the registered *function* is reported as that function failing."""
    if function is not None and not isinstance(exc, DatabaseError):
        wrapped = DatabaseError(f"function {function!r} failed: {exc}")
        wrapped.__cause__ = exc
        exc = wrapped
    return KernelError(exc)


def _failed(error: Exception, batch: Batch) -> Failing:
    """A column of *batch* every cell of which holds *error*."""
    return Failing([KernelError(error)] * batch.size)


def _failing(error: Exception) -> Column:
    """The column of an expression every evaluation of which fails."""
    return lambda batch, context: _failed(error, batch)


def _cells(cell: Callable, columns: Sequence[Sequence[Any]], size: int,
           lazy: bool = False, function: "str | None" = None) -> list:
    """``cell(*values)`` for each row of *columns*, one row at a time: a
    row with a failed input holds that failure (unless the cell is
    *lazy* and unwraps its inputs as it reaches them), a row whose cell
    raises holds what it raised."""
    guard = not lazy and any(type(column) is Failing for column in columns)
    out: list = []
    failed = False
    for values in (zip(*columns) if columns else repeat((), size)):
        bad = (next((value for value in values
                     if type(value) is KernelError), None)
               if guard else None)
        if bad is None:
            try:
                out.append(cell(*values))
                continue
            except Exception as exc:
                bad = _failure(exc, function)
        out.append(bad)
        failed = True
    return Failing(out) if failed else out


def _lifted(cell: Callable, parts: Sequence[Column],
            lazy: bool = False) -> Column:
    """The column of a node whose value is the pure function *cell* of
    its children's values: whole columns through one ``map`` — and, only
    when an input failed or a cell raises, row by row."""
    def column(batch: Batch, context: RowContext) -> list:
        columns = [part(batch, context) for part in parts]
        if not any(type(column) is Failing for column in columns):
            try:
                return list(map(cell, *columns))
            except Exception:
                pass  # the row-by-row pass captures it where it happened
        return _cells(cell, columns, batch.size, lazy)
    return column


def _broadcast(column: Column) -> Column:
    """A row-invariant subtree: computed for one row, repeated."""
    def constant(batch: Batch, context: RowContext) -> list:
        value = column(_ONE_ROW, context)
        return (value * batch.size if type(value) is list
                else Failing(value * batch.size))
    return constant


def _unwrap(value: Any) -> Any:
    if type(value) is KernelError:
        raise value.error
    return value


def _as_bool(value: Any) -> "bool | None":
    if value is NULL:
        return UNKNOWN
    if isinstance(value, bool):
        return value
    raise TypeCheckError(f"expected a boolean condition, got {value!r}")


_TRUTH_TYPES = {bool, type(None)}


def truths(column: Sequence[Any]) -> Sequence[Any]:
    """*column* as SQL truth values — True, False or UNKNOWN; any other
    value is a failed cell.  A WHERE-style test keeps the True rows."""
    if type(column) is not Failing and set(map(type, column)) <= _TRUTH_TYPES:
        return column
    return _cells(_as_bool, [column], len(column))


def _logical(settles: bool, left_part: Column, right_part: Column) -> Column:
    """``AND`` (*settles* False) / ``OR`` (True): the right side is
    evaluated only on rows the left side does not settle, as a
    short-circuiting row-at-a-time evaluation would."""
    combine = or3 if settles else and3

    def column(batch: Batch, context: RowContext) -> list:
        left = truths(left_part(batch, context))
        need = [row for row, value in enumerate(left)
                if value is not settles and type(value) is not KernelError]
        if not need:
            return left
        right = truths(right_part(
            batch if len(need) == batch.size else batch.take(need), context))
        out = list(left)
        for row, value in zip(need, right):
            out[row] = (value if type(value) is KernelError
                        else combine(left[row], value))
        return (Failing(out) if Failing in (type(left), type(right))
                else out)
    return column


def _negate(value: Any) -> Any:
    if value is NULL:
        return NULL
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeCheckError(f"cannot negate {value!r}")
    return -value


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        return NULL  # SQL-style: division by zero yields NULL here
    if (isinstance(left, int) and isinstance(right, int)
            and left % right == 0):
        return left // right
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    return NULL if right == 0 else left % right


_COMPARISONS = ("=", "!=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _divide, "%": _modulo}


def _arithmetic(symbol: str) -> Callable:
    """Arithmetic on two values ('+' doubling as text concatenation)."""
    apply = _ARITHMETIC.get(symbol)

    def cell(left: Any, right: Any) -> Any:
        if left is NULL or right is NULL:
            return NULL
        if symbol == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if (isinstance(left, bool) or isinstance(right, bool)
                or not isinstance(left, (int, float))
                or not isinstance(right, (int, float))):
            raise TypeCheckError(
                f"cannot apply {symbol!r} to {left!r} and {right!r}"
            )
        if apply is None:
            raise DatabaseError(f"unknown binary operator {symbol!r}")
        return apply(left, right)
    return cell


@lru_cache(maxsize=256)
def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``, ``_``) to an anchored regex."""
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


def _like(left: Any, right: Any) -> Any:
    if left is NULL or right is NULL:
        return NULL
    if not isinstance(left, str) or not isinstance(right, str):
        raise TypeCheckError("LIKE requires text operands")
    return like_to_regex(right).match(left) is not None


def _membership(value: Any, candidates: Iterable[Any],
                negated: bool) -> "bool | None":
    """``value [NOT] IN (candidates)``: compared in order, and only as
    far as the first match."""
    saw_unknown = False
    for candidate in candidates:
        verdict = compare("=", value, candidate)
        if verdict is True:
            return not negated
        if verdict is UNKNOWN:
            saw_unknown = True
    return UNKNOWN if saw_unknown else negated


def _only_value(row: tuple) -> Any:
    if len(row) != 1:
        raise SqlSyntaxError("IN subquery must return exactly one column")
    return row[0]


#: Built-in aggregate names handled natively by the aggregation operator.
NATIVE_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})


class Evaluator:
    """Compiles expression ASTs into column closures."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        #: Node type -> bound compile step, built once per evaluator; a
        #: node type without a ``_compile_<name>`` method fails right here.
        self._handlers = {
            node_type: getattr(self,
                               f"_compile_{node_type.__name__.lower()}")
            for node_type in ast.EXPRESSION_TYPES
        }

    # -- public API --------------------------------------------------------------

    def compile(self, expression: ast.Expression, frame: Frame,
                scan=None) -> Column:
        """*expression* over batches shaped like *frame*.

        *scan*, when the batches still carry the row-group views of a
        columnar scan, lets kernel-tagged calls on its columns read the
        stored pages (:meth:`kernel_position`).  Compiling never raises:
        an unknown name or function is a column of failed cells, so a
        statement no row of which reaches it still answers.
        """
        def build(node: ast.Expression, parts: list) -> tuple:
            column = self._handlers[type(node)](
                node, [part for part, _ in parts], frame, scan)
            if not parts:
                return column, isinstance(node, (ast.Literal, ast.Parameter))
            invariant = (all(flag for _, flag in parts)
                         and not isinstance(node, ast.InSelect))
            return (_broadcast(column) if invariant else column), invariant

        return ast.fold_expression(build, expression)[0]

    def is_aggregate_call(self, expression: ast.Expression) -> bool:
        """True for calls to built-in or registered aggregates."""
        if not isinstance(expression, ast.FunctionCall):
            return False
        name = expression.name.lower()
        return (name in NATIVE_AGGREGATES
                or self._database.catalog.has_aggregate(name))

    def contains_aggregate(self, expression: ast.Expression) -> bool:
        return any(
            self.is_aggregate_call(node)
            for node in ast.walk_expression(expression)
        )

    def kernel_position(self, call: ast.Expression, scan) -> "int | None":
        """The schema position of the column whose stored pages answer
        *call* over batches of *scan*, or None when it evaluates value
        by value.

        A page kernel applies to a non-aggregate call of a function
        registered with a ``kernel=`` tag, first argument a column of
        the scanned table, every other argument row-invariant.
        """
        if (scan is None or not isinstance(call, ast.FunctionCall)
                or not call.args or self.is_aggregate_call(call)):
            return None
        catalog = self._database.catalog
        schema = scan.table.schema
        subject = call.args[0]
        if not (catalog.has_function(call.name)
                and catalog.function(call.name).kernel in KERNELS
                and isinstance(subject, ast.ColumnRef)
                and subject.table in (None, scan.binding)
                and schema.has_column(subject.column)):
            return None
        if any(isinstance(part, (ast.ColumnRef, ast.InSelect, ast.Exists))
               for extra in call.args[1:]
               for part in ast.walk_expression(extra)):
            return None
        return schema.position(subject.column)

    # -- one compile step per node type --------------------------------------------

    def _compile_literal(self, node, parts, frame, scan) -> Column:
        value = node.value
        return lambda batch, context: [value] * batch.size

    def _compile_parameter(self, node, parts, frame, scan) -> Column:
        index = node.index

        def column(batch: Batch, context: RowContext) -> list:
            try:
                return [context.parameters[index]] * batch.size
            except IndexError:
                return _failed(DatabaseError(
                    f"statement uses parameter {index + 1} but only "
                    f"{len(context.parameters)} were supplied"), batch)
        return column

    def _compile_columnref(self, node, parts, frame, scan) -> Column:
        positions = frame.positions(node.table, node.column)
        if len(positions) == 1:
            position = positions[0]
            return lambda batch, context: batch.columns[position]

        def elsewhere(batch: Batch, context: RowContext) -> list:
            # Ambiguous here, or a name of the enclosing row (or of none):
            # whatever a row of this frame resolves it to, or raises.
            try:
                return [RowContext(frame, (), (), context.outer).resolve(
                    node.table, node.column)] * batch.size
            except SqlSyntaxError as exc:
                return _failed(exc, batch)
        return elsewhere

    def _compile_unary(self, node, parts, frame, scan) -> Column:
        if node.operator == "NOT":
            return _lifted(lambda value: not3(_as_bool(value)), parts)
        return _lifted(_negate, parts)

    def _compile_binary(self, node, parts, frame, scan) -> Column:
        symbol = node.operator
        if symbol in ("AND", "OR"):
            return _logical(symbol == "OR", *parts)
        if symbol == "LIKE":
            return _lifted(_like, parts)
        if symbol in _COMPARISONS:
            return _lifted(partial(compare, symbol), parts)
        return _lifted(_arithmetic(symbol), parts)

    def _compile_isnull(self, node, parts, frame, scan) -> Column:
        negated = node.negated
        return _lifted(lambda value: (value is NULL) is not negated, parts)

    def _compile_between(self, node, parts, frame, scan) -> Column:
        negated = node.negated

        def cell(value: Any, low: Any, high: Any) -> Any:
            result = and3(compare(">=", value, low),
                          compare("<=", value, high))
            return not3(result) if negated else result
        return _lifted(cell, parts)

    def _compile_inlist(self, node, parts, frame, scan) -> Column:
        negated = node.negated

        def cell(value: Any, *items: Any) -> Any:
            # An item is looked at only if no earlier one matched: a
            # failed item raises when reached, not before.
            return _membership(_unwrap(value), map(_unwrap, items), negated)
        return _lifted(cell, parts, lazy=True)

    def _subquery(self, cell: Callable, parts, frame) -> Column:
        """``cell(*values, outer)`` per row, *outer* being the row as the
        context its (possibly correlated) sub-select runs under."""
        def column(batch: Batch, context: RowContext) -> list:
            outers = [RowContext(frame, row, context.parameters,
                                 context.outer) for row in batch.rows()]
            return _cells(cell, [part(batch, context) for part in parts]
                          + [outers], batch.size)
        return column

    def _compile_inselect(self, node, parts, frame, scan) -> Column:
        run = self._database.run_subquery
        return self._subquery(lambda value, outer: _membership(
            value, map(_only_value, run(node.select, outer)), node.negated),
            parts, frame)

    def _compile_exists(self, node, parts, frame, scan) -> Column:
        run = self._database.run_subquery
        return self._subquery(lambda outer: bool(
            run(node.select, outer, limit=1)) is not node.negated,
            parts, frame)

    def _compile_functioncall(self, node, parts, frame, scan) -> Column:
        # The planner rewrites every aggregate call above an aggregation
        # operator into a column of its frame; one that reaches the
        # compiler sits where no grouping applies.
        if self.is_aggregate_call(node):
            return _failing(SqlSyntaxError(
                f"aggregate {node.name!r} used outside GROUP BY context"))
        try:
            descriptor = self._database.catalog.function(node.name)
        except CatalogError as exc:
            return _failing(exc)
        function, name = descriptor.function, node.name
        position = self.kernel_position(node, scan)
        if position is None:
            return lambda batch, context: _cells(
                function, [part(batch, context) for part in parts],
                batch.size, function=name)

        scan.note_kernel((descriptor.name, position, node.args[1:]),
                         str(node))
        kernel, extras = KERNELS[descriptor.kernel], parts[1:]

        def fallback(*arguments: Any) -> Any:
            try:
                return function(*arguments)
            except Exception as exc:
                return _failure(exc, name)

        # Cells of a call on the column alone are sealed as a cell page
        # of the page (one per argument value would grow without bound).
        key = (descriptor.kernel, function)

        def page(batch: Batch, context: RowContext) -> list:
            view = batch.view
            try:
                arguments = tuple(one(extra, context) for extra in extras)
            except Exception as exc:
                return _failed(exc, batch)
            if arguments:
                values = kernel(view.seq_rows(position),
                                lambda: view.column_values(position),
                                fallback, arguments)
            else:
                values = view.kernel_cells(
                    position, key, lambda page, values_fn: kernel(
                        page, values_fn, fallback, ()))
            if batch.offsets is not None:
                values = [values[offset] for offset in batch.offsets]
            return (Failing(values)
                    if KernelError in set(map(type, values)) else values)
        return page
