"""The tree-walking expression interpreter, kept as the oracle.

Until PR 18 this class *was* ``repro.db.sql.expressions.Evaluator``:
every operator built a ``RowContext`` per row and walked the
``ast.Expression`` tree through these ``_eval_*`` handlers.  The engine
now compiles each expression once into a closure over column batches;
the handlers below are that interpreter verbatim, so
``test_sql_properties.py`` can hold the compiled form to it cell for
cell — value or ``(type, message)``, and *which* rows raise — the way
``tests/core/test_ops_reference.py`` holds ``core.ops`` to the bodies it
replaced.  Not imported by anything under ``src/``.
"""

from __future__ import annotations

import re
from typing import Any

from repro.db.columnar.vector import KernelError
from repro.db.sql import ast
from repro.db.sql.expressions import NATIVE_AGGREGATES, RowContext
from repro.db.values import NULL, UNKNOWN, and3, compare, is_truthy, not3, or3
from repro.errors import DatabaseError, SqlSyntaxError, TypeCheckError


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


class ReferenceEvaluator:
    """Interprets expression ASTs against row contexts, one node and one
    row at a time."""

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
