"""Expression evaluation over row contexts (SQL semantics, 3-valued logic).

A :class:`Frame` names each position of a row tuple with a
``(binding, column)`` pair — the binding being a table name or alias.
A :class:`RowContext` pairs a frame with concrete values, plus the query
parameters and an optional **outer context** (which is what makes
correlated subqueries work: resolution falls through to the enclosing
row when a name is not bound locally).

The :class:`Evaluator` interprets expression ASTs against a context.  It
needs the database handle for function lookup and subquery execution.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Sequence

from repro.db.columnar.vector import KernelError
from repro.db.sql import ast
from repro.db.values import NULL, UNKNOWN, and3, compare, is_truthy, not3, or3
from repro.errors import DatabaseError, SqlSyntaxError, TypeCheckError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database


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

    def __init__(
        self,
        frame: Frame,
        values: Sequence[Any],
        parameters: Sequence[Any] = (),
        outer: "RowContext | None" = None,
    ) -> None:
        self.frame = frame
        self.values = values
        self.parameters = parameters
        self.outer = outer

    @classmethod
    def without_row(cls, parameters: Sequence[Any],
                    outer: "RowContext | None" = None) -> "RowContext":
        """The context of an expression that reads no row of its own
        query level: index probes, zone bounds, kernel arguments and
        INSERT values see only parameters and the enclosing row."""
        return cls(_NO_COLUMNS, (), parameters, outer)

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


_NO_COLUMNS = Frame(())


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


#: Built-in aggregate names handled natively by the aggregation operator.
NATIVE_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})


class Evaluator:
    """Interprets expression ASTs against row contexts."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        #: Node type -> bound handler, built once per evaluator; a node
        #: type without an ``_eval_<name>`` method fails right here.
        self._handlers = {
            node_type: getattr(self, f"_eval_{node_type.__name__.lower()}")
            for node_type in ast.EXPRESSION_TYPES
        }

    # -- public API --------------------------------------------------------------

    def evaluate(self, expression: ast.Expression, context: RowContext) -> Any:
        return self._handlers[type(expression)](expression, context)

    def evaluate_predicate(self, expression: ast.Expression,
                           context: RowContext) -> bool:
        """Evaluate as a WHERE-style filter: only true keeps the row."""
        return is_truthy(self._as_bool(self.evaluate(expression, context)))

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

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _as_bool(value: Any) -> "bool | None":
        if value is NULL:
            return UNKNOWN
        if isinstance(value, bool):
            return value
        raise TypeCheckError(
            f"expected a boolean condition, got {value!r}"
        )

    # -- node handlers -----------------------------------------------------------------

    def _eval_literal(self, node: ast.Literal, context: RowContext) -> Any:
        return node.value

    def _eval_parameter(self, node: ast.Parameter,
                        context: RowContext) -> Any:
        try:
            return context.parameters[node.index]
        except IndexError:
            raise DatabaseError(
                f"statement uses parameter {node.index + 1} but only "
                f"{len(context.parameters)} were supplied"
            ) from None

    def _eval_columnref(self, node: ast.ColumnRef,
                        context: RowContext) -> Any:
        value = context.resolve(node.table, node.column)
        if type(value) is KernelError:
            # A vectorized kernel failed for this row; the failure is
            # deferred until the cell is actually read so filtered-out
            # rows never surface errors the row path would not raise.
            raise value.error
        return value

    def _eval_unary(self, node: ast.Unary, context: RowContext) -> Any:
        if node.operator == "NOT":
            return not3(self._as_bool(self.evaluate(node.operand, context)))
        value = self.evaluate(node.operand, context)
        if value is NULL:
            return NULL
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeCheckError(f"cannot negate {value!r}")
        return -value

    def _eval_binary(self, node: ast.Binary, context: RowContext) -> Any:
        operator = node.operator
        if operator == "AND":
            left = self._as_bool(self.evaluate(node.left, context))
            if left is False:
                return False
            return and3(left,
                        self._as_bool(self.evaluate(node.right, context)))
        if operator == "OR":
            left = self._as_bool(self.evaluate(node.left, context))
            if left is True:
                return True
            return or3(left,
                       self._as_bool(self.evaluate(node.right, context)))

        left = self.evaluate(node.left, context)
        right = self.evaluate(node.right, context)

        if operator == "LIKE":
            if left is NULL or right is NULL:
                return NULL
            if not isinstance(left, str) or not isinstance(right, str):
                raise TypeCheckError("LIKE requires text operands")
            return like_to_regex(right).match(left) is not None

        if operator in ("=", "!=", "<>", "<", "<=", ">", ">="):
            return compare(operator, left, right)

        # Arithmetic (with '+' doubling as text concatenation).
        if left is NULL or right is NULL:
            return NULL
        if operator == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if (isinstance(left, bool) or isinstance(right, bool)
                or not isinstance(left, (int, float))
                or not isinstance(right, (int, float))):
            raise TypeCheckError(
                f"cannot apply {operator!r} to {left!r} and {right!r}"
            )
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            if right == 0:
                return NULL  # SQL-style: division by zero yields NULL here
            result = left / right
            if isinstance(left, int) and isinstance(right, int):
                return left // right if left % right == 0 else result
            return result
        if operator == "%":
            if right == 0:
                return NULL
            return left % right
        raise DatabaseError(f"unknown binary operator {operator!r}")

    def _eval_isnull(self, node: ast.IsNull, context: RowContext) -> Any:
        value = self.evaluate(node.operand, context)
        result = value is NULL
        return not result if node.negated else result

    def _eval_between(self, node: ast.Between, context: RowContext) -> Any:
        value = self.evaluate(node.operand, context)
        low = self.evaluate(node.low, context)
        high = self.evaluate(node.high, context)
        result = and3(compare(">=", value, low), compare("<=", value, high))
        return not3(result) if node.negated else result

    def _eval_inlist(self, node: ast.InList, context: RowContext) -> Any:
        value = self.evaluate(node.operand, context)
        saw_unknown = False
        for item in node.items:
            verdict = compare("=", value, self.evaluate(item, context))
            if verdict is True:
                return False if node.negated else True
            if verdict is UNKNOWN:
                saw_unknown = True
        if saw_unknown:
            return UNKNOWN
        return True if node.negated else False

    def _eval_inselect(self, node: ast.InSelect, context: RowContext) -> Any:
        value = self.evaluate(node.operand, context)
        rows = self._database.run_subquery(node.select, context)
        saw_unknown = False
        for row in rows:
            if len(row) != 1:
                raise SqlSyntaxError(
                    "IN subquery must return exactly one column"
                )
            verdict = compare("=", value, row[0])
            if verdict is True:
                return False if node.negated else True
            if verdict is UNKNOWN:
                saw_unknown = True
        if saw_unknown:
            return UNKNOWN
        return True if node.negated else False

    def _eval_exists(self, node: ast.Exists, context: RowContext) -> Any:
        rows = self._database.run_subquery(node.select, context, limit=1)
        found = bool(rows)
        return not found if node.negated else found

    def _eval_functioncall(self, node: ast.FunctionCall,
                           context: RowContext) -> Any:
        # The planner rewrites every aggregate call above an aggregation
        # operator into a column of its frame; one that reaches the
        # evaluator sits where no grouping applies.
        if self.is_aggregate_call(node):
            raise SqlSyntaxError(
                f"aggregate {node.name!r} used outside GROUP BY context"
            )
        descriptor = self._database.catalog.function(node.name)
        arguments = [self.evaluate(argument, context)
                     for argument in node.args]
        try:
            return descriptor.function(*arguments)
        except (DatabaseError, TypeCheckError):
            raise
        except Exception as exc:
            raise DatabaseError(
                f"function {node.name!r} failed: {exc}"
            ) from exc
