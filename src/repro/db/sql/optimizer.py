"""Rule-based planner/optimizer with genomic selectivity estimation.

Section 6.5 of the paper asks for "optimisation rules for genomic data,
information about the selectivity of genomic predicates, and cost
estimation of access plans containing genomic operators".  This planner
implements the rules that matter for the paper's workloads:

- **predicate pushdown** — WHERE conjuncts are applied at the deepest
  operator that binds all their columns;
- **index selection** — equality/range conjuncts pick hash/B-tree
  indexes, and equality on a PRIMARY KEY / UNIQUE column its key index
  (one row); ``contains(column, pattern)`` picks a genomic k-mer or
  suffix-array index (the candidate set is re-verified by a residual
  filter, so over-approximation stays sound);
- **selectivity-based choice** — each registered UDF predicate carries a
  selectivity estimate (see :class:`~repro.db.catalog.SqlFunction`);
  together with fixed estimates for comparison shapes it prices
  candidate access paths and the cheapest wins;
- **hash vs. nested-loop joins** — inner equi-joins become hash joins,
  everything else nested loops.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

from repro.db.columnar.vector import KERNELS
from repro.db.sql import ast
from repro.db.sql.expressions import NATIVE_AGGREGATES, Evaluator, Frame
from repro.db.sql.plan import (
    Aggregate,
    ColumnarScan,
    Distinct,
    Filter,
    HashJoin,
    IndexContainsScan,
    IndexEqualScan,
    IndexRangeScan,
    Limit,
    NestedLoopJoin,
    OneRow,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    VectorAggregate,
)
from repro.db.table import Table
from repro.errors import CatalogError, SqlSyntaxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database

#: Default selectivity estimates by predicate shape (section 6.5).
EQUALITY_SELECTIVITY = 0.05
RANGE_SELECTIVITY = 0.25
LIKE_SELECTIVITY = 0.25
DEFAULT_PREDICATE_SELECTIVITY = 0.33
#: Fallback for boolean UDFs without a registered estimate.
DEFAULT_UDF_SELECTIVITY = 0.10


def split_conjuncts(expression: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.Binary) and expression.operator == "AND":
        return (split_conjuncts(expression.left)
                + split_conjuncts(expression.right))
    return [expression]


def conjoin(conjuncts: Iterable[ast.Expression]) -> ast.Expression | None:
    """Rebuild an AND tree (or ``None`` for an empty list)."""
    result: ast.Expression | None = None
    for conjunct in conjuncts:
        result = (conjunct if result is None
                  else ast.Binary("AND", result, conjunct))
    return result


class Planner:
    """Builds an executable plan from a parsed SELECT.

    With ``optimize=False`` every rule above is disabled — sequential
    scans, no predicate pushdown, nested-loop joins only — which gives
    the differential test suite a naive oracle plan for every query the
    optimizer handles; both plans must return the same multiset of rows.
    """

    def __init__(self, database: "Database", optimize: bool = True) -> None:
        self._database = database
        self._evaluator = Evaluator(database)
        self.optimize = optimize

    # ------------------------------------------------------------------ helpers

    def _bindings_of(
        self,
        expression: ast.Expression,
        schemas: dict[str, Table],
    ) -> "set[str] | None":
        """Binding names an expression touches; ``None`` = unresolvable.

        Unqualified columns are attributed by searching the schemas; a
        name matching several bindings (or none — it may belong to an
        outer query) makes the expression non-pushable, reported as
        ``None``.
        """
        found: set[str] = set()
        for node in ast.walk_expression(expression):
            if isinstance(node, (ast.InSelect, ast.Exists)):
                return None  # subqueries are never pushed into scans
            if not isinstance(node, ast.ColumnRef):
                continue
            if node.table is not None:
                if node.table not in schemas:
                    return None
                found.add(node.table)
                continue
            owners = [
                binding for binding, table in schemas.items()
                if table.schema.has_column(node.column)
            ]
            if len(owners) != 1:
                return None
            found.add(owners[0])
        return found

    def _equality_selectivity(
        self,
        conjunct: ast.Binary,
        schemas: "dict[str, Table] | None",
    ) -> float:
        """Equality selectivity: ``1/ndistinct`` after ANALYZE, else the
        fixed default (section 6.5's statistics hook)."""
        if schemas:
            for side in (conjunct.left, conjunct.right):
                if not isinstance(side, ast.ColumnRef):
                    continue
                owners = [
                    table for binding, table in schemas.items()
                    if (side.table is None or side.table == binding)
                    and table.schema.has_column(side.column)
                ]
                if len(owners) != 1:
                    continue
                table = owners[0]
                stats = table.statistics
                if stats and stats.get(side.column, 0) > 0:
                    floor = 1.0 / max(1, len(table))
                    return min(1.0, max(floor,
                                        1.0 / stats[side.column]))
        return EQUALITY_SELECTIVITY

    def _selectivity(
        self,
        conjunct: ast.Expression,
        schemas: "dict[str, Table] | None" = None,
    ) -> float:
        if isinstance(conjunct, ast.Binary):
            if conjunct.operator == "=":
                return self._equality_selectivity(conjunct, schemas)
            if conjunct.operator in ("<", "<=", ">", ">="):
                return RANGE_SELECTIVITY
            if conjunct.operator == "LIKE":
                return LIKE_SELECTIVITY
        if isinstance(conjunct, ast.Between):
            return RANGE_SELECTIVITY
        if isinstance(conjunct, ast.FunctionCall):
            try:
                descriptor = self._database.catalog.function(conjunct.name)
            except CatalogError:
                return DEFAULT_PREDICATE_SELECTIVITY
            if descriptor.selectivity is not None:
                return descriptor.selectivity
            return DEFAULT_UDF_SELECTIVITY
        return DEFAULT_PREDICATE_SELECTIVITY

    # --------------------------------------------------------------- access paths

    def _column_of(self, expression: ast.Expression, binding: str,
                   table: Table) -> str | None:
        """The column name if *expression* is a reference into *binding*."""
        if not isinstance(expression, ast.ColumnRef):
            return None
        if expression.table is not None and expression.table != binding:
            return None
        if not table.schema.has_column(expression.column):
            return None
        return expression.column

    def _expression_is_independent(
        self, expression: ast.Expression, schemas: dict[str, Table]
    ) -> bool:
        """True when the expression uses no columns of this query level."""
        bindings = self._bindings_of(expression, schemas)
        return bindings == set()

    def _try_index_path(
        self,
        table: Table,
        binding: str,
        conjuncts: list[ast.Expression],
        schemas: dict[str, Table],
    ) -> tuple[PlanNode, list[ast.Expression]] | None:
        """Try to satisfy one conjunct with an index; returns (plan, rest)."""
        candidates: list[tuple[float, PlanNode, list[ast.Expression]]] = []
        base_rows = max(1.0, float(len(table)))

        for position, conjunct in enumerate(conjuncts):
            rest = conjuncts[:position] + conjuncts[position + 1:]

            # Equality:  col = value  /  value = col
            if (isinstance(conjunct, ast.Binary)
                    and conjunct.operator == "="):
                for column_side, value_side, probe_first in (
                    (conjunct.left, conjunct.right, False),
                    (conjunct.right, conjunct.left, True),
                ):
                    column = self._column_of(column_side, binding, table)
                    if column is None:
                        continue
                    if not self._expression_is_independent(value_side,
                                                           schemas):
                        continue
                    for index in table.indexes_on(column):
                        if index.supports_equality:
                            plan = IndexEqualScan(
                                table, binding, index, value_side,
                                self._evaluator, probe_first,
                            )
                            if index.unique:
                                # At most one row whatever the table's
                                # size: ranks ahead of every estimate.
                                plan.estimated_rows = 1.0
                                candidates.append((0.0, plan, rest))
                                break
                            plan.estimated_rows = (
                                base_rows
                                * self._selectivity(conjunct, schemas)
                            )
                            candidates.append(
                                (plan.estimated_rows, plan, rest)
                            )
                            break

            # Range:  col < value  etc., and BETWEEN.
            range_spec = None
            if (isinstance(conjunct, ast.Binary)
                    and conjunct.operator in ("<", "<=", ">", ">=")):
                column = self._column_of(conjunct.left, binding, table)
                value = conjunct.right
                operator = conjunct.operator
                probe_first = column is None
                if probe_first:
                    column = self._column_of(conjunct.right, binding, table)
                    value = conjunct.left
                    # Mirror the operator when the column is on the right.
                    operator = {"<": ">", "<=": ">=",
                                ">": "<", ">=": "<="}[operator]
                if (column is not None
                        and self._expression_is_independent(value, schemas)):
                    if operator in ("<", "<="):
                        range_spec = (column, None, value, True,
                                      operator == "<=", probe_first)
                    else:
                        range_spec = (column, value, None,
                                      operator == ">=", True, probe_first)
            elif isinstance(conjunct, ast.Between) and not conjunct.negated:
                column = self._column_of(conjunct.operand, binding, table)
                if (column is not None
                        and self._expression_is_independent(conjunct.low,
                                                            schemas)
                        and self._expression_is_independent(conjunct.high,
                                                            schemas)):
                    range_spec = (column, conjunct.low, conjunct.high,
                                  True, True, False)
            if range_spec is not None:
                (column, low, high, include_low, include_high,
                 probe_first) = range_spec
                for index in table.indexes_on(column):
                    if index.supports_range:
                        plan = IndexRangeScan(
                            table, binding, index, self._evaluator,
                            low, high, include_low, include_high,
                            probe_first,
                        )
                        plan.estimated_rows = base_rows * RANGE_SELECTIVITY
                        candidates.append((plan.estimated_rows, plan, rest))
                        break

            # Genomic contains(col, pattern): candidate fetch + re-check.
            if (isinstance(conjunct, ast.FunctionCall)
                    and conjunct.name.lower() == "contains"
                    and len(conjunct.args) == 2):
                column = self._column_of(conjunct.args[0], binding, table)
                pattern = conjunct.args[1]
                if (column is not None
                        and self._expression_is_independent(pattern,
                                                            schemas)):
                    for index in table.indexes_on(column):
                        if index.supports_contains:
                            plan = IndexContainsScan(
                                table, binding, index, pattern,
                                self._evaluator,
                            )
                            selectivity = self._selectivity(conjunct)
                            plan.estimated_rows = base_rows * selectivity
                            # The predicate must be re-checked: candidate
                            # sets over-approximate.
                            candidates.append(
                                (plan.estimated_rows, plan, conjuncts)
                            )
                            break

        if not candidates:
            return None
        candidates.sort(key=lambda entry: entry[0])
        _, plan, rest = candidates[0]
        return plan, rest

    def _zone_bound(
        self,
        conjunct: ast.Expression,
        binding: str,
        table: Table,
        schemas: dict[str, Table],
    ) -> "tuple | None":
        """A zone-map bound spec for one comparison conjunct, or None.

        Returns ``(position, low, include_low, high, include_high)``
        with expression bounds; the scan evaluates them at execute time.
        The conjunct itself always stays in a Filter above — zone maps
        only skip whole row groups, they never decide individual rows.
        """
        if isinstance(conjunct, ast.Binary) and conjunct.operator == "=":
            for column_side, value_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                column = self._column_of(column_side, binding, table)
                if (column is not None
                        and self._expression_is_independent(value_side,
                                                            schemas)):
                    position = table.schema.position(column)
                    return (position, value_side, True, value_side, True)
            return None
        if (isinstance(conjunct, ast.Binary)
                and conjunct.operator in ("<", "<=", ">", ">=")):
            column = self._column_of(conjunct.left, binding, table)
            value = conjunct.right
            operator = conjunct.operator
            if column is None:
                column = self._column_of(conjunct.right, binding, table)
                value = conjunct.left
                operator = {"<": ">", "<=": ">=",
                            ">": "<", ">=": "<="}[operator]
            if (column is None
                    or not self._expression_is_independent(value, schemas)):
                return None
            position = table.schema.position(column)
            if operator in ("<", "<="):
                return (position, None, True, value, operator == "<=")
            return (position, value, operator == ">=", None, True)
        if isinstance(conjunct, ast.Between) and not conjunct.negated:
            column = self._column_of(conjunct.operand, binding, table)
            if (column is not None
                    and self._expression_is_independent(conjunct.low,
                                                        schemas)
                    and self._expression_is_independent(conjunct.high,
                                                        schemas)):
                return (table.schema.position(column),
                        conjunct.low, True, conjunct.high, True)
        return None

    def _kernel_spec(
        self,
        call: ast.FunctionCall,
        scan: ColumnarScan,
        schemas: dict[str, Table],
    ) -> "tuple | None":
        """(kernel, function, position, extras) when *call* vectorizes.

        Eligible: a non-aggregate call to a catalog function whose
        registration carries a ``kernel=`` tag, first argument a column
        of the scanned table, remaining arguments independent of this
        query level.
        """
        if call.star or not call.args:
            return None
        if self._evaluator.is_aggregate_call(call):
            return None
        try:
            descriptor = self._database.catalog.function(call.name)
        except CatalogError:
            return None
        if descriptor.kernel is None or descriptor.kernel not in KERNELS:
            return None
        column = self._column_of(call.args[0], scan.binding, scan.table)
        if column is None:
            return None
        for extra in call.args[1:]:
            if not self._expression_is_independent(extra, schemas):
                return None
        return (descriptor.kernel, call.name.lower(),
                scan.table.schema.position(column), tuple(call.args[1:]))

    def _rewrite_kernel_calls(
        self,
        expression: ast.Expression,
        scan: ColumnarScan,
        schemas: dict[str, Table],
    ) -> ast.Expression:
        """Replace kernel-taggable calls with scan kernel-slot columns.

        Arguments rewrite first, so nested calls vectorize inside-out:
        the innermost eligible call becomes a synthetic column and the
        enclosing call (now over a non-schema column) stays row-at-a-time
        against the slot value.
        """
        def rebuild(node: ast.Expression) -> ast.Expression:
            return self._rewrite_kernel_calls(node, scan, schemas)

        if isinstance(expression, ast.Unary):
            return ast.Unary(expression.operator,
                             rebuild(expression.operand))
        if isinstance(expression, ast.Binary):
            return ast.Binary(expression.operator,
                              rebuild(expression.left),
                              rebuild(expression.right))
        if isinstance(expression, ast.IsNull):
            return ast.IsNull(rebuild(expression.operand),
                              expression.negated)
        if isinstance(expression, ast.Between):
            return ast.Between(rebuild(expression.operand),
                               rebuild(expression.low),
                               rebuild(expression.high),
                               expression.negated)
        if isinstance(expression, ast.InList):
            return ast.InList(rebuild(expression.operand),
                              tuple(rebuild(item)
                                    for item in expression.items),
                              expression.negated)
        if isinstance(expression, ast.FunctionCall):
            call = ast.FunctionCall(
                expression.name,
                tuple(rebuild(argument) for argument in expression.args),
                expression.star,
            )
            spec = self._kernel_spec(call, scan, schemas)
            if spec is not None:
                kernel, function_name, position, _ = spec
                name = scan.ensure_kernel_slot(call, kernel,
                                               function_name, position)
                return ast.ColumnRef(None, name)
            return call
        return expression

    def _access_path(
        self,
        table: Table,
        binding: str,
        conjuncts: list[ast.Expression],
        schemas: dict[str, Table],
    ) -> PlanNode:
        """Best single-table plan for *table* given its local conjuncts."""
        indexed = (self._try_index_path(table, binding, conjuncts, schemas)
                   if self.optimize else None)
        if indexed is not None:
            plan, remaining = indexed
        elif self.optimize and table.column_store is not None:
            scan = ColumnarScan(table, binding, self._evaluator,
                                self._database.catalog)
            for conjunct in conjuncts:
                bound = self._zone_bound(conjunct, binding, table, schemas)
                if bound is not None:
                    scan.add_bound(*bound)
            # Kernel slots must all exist before any Filter captures the
            # scan frame, hence the two passes.
            remaining = [self._rewrite_kernel_calls(conjunct, scan, schemas)
                         for conjunct in conjuncts]
            plan = scan
        else:
            plan = SeqScan(table, binding)
            remaining = conjuncts
        estimated = plan.estimated_rows
        for conjunct in remaining:
            plan = Filter(plan, conjunct, self._evaluator)
            estimated *= self._selectivity(conjunct, schemas)
            plan.estimated_rows = estimated
        return plan

    # --------------------------------------------------------------------- joins

    def _split_equi_condition(
        self,
        condition: ast.Expression,
        left_frame: Frame,
        right_binding: str,
        schemas: dict[str, Table],
    ) -> tuple[ast.Expression, ast.Expression, ast.Expression | None] | None:
        """Find ``left_key = right_key`` in the join condition.

        Returns (left key, right key, residual) or ``None``.
        """
        left_bindings = set(left_frame.bindings())
        conjuncts = split_conjuncts(condition)
        for position, conjunct in enumerate(conjuncts):
            if not (isinstance(conjunct, ast.Binary)
                    and conjunct.operator == "="):
                continue
            sides = {}
            for label, expression in (("a", conjunct.left),
                                      ("b", conjunct.right)):
                bindings = self._bindings_of(expression, schemas)
                if bindings is None or not bindings:
                    sides = {}
                    break
                if bindings <= left_bindings:
                    sides[label] = ("left", expression)
                elif bindings == {right_binding}:
                    sides[label] = ("right", expression)
                else:
                    sides = {}
                    break
            if len(sides) != 2:
                continue
            placements = {side for side, _ in sides.values()}
            if placements != {"left", "right"}:
                continue
            left_key = next(e for s, e in sides.values() if s == "left")
            right_key = next(e for s, e in sides.values() if s == "right")
            residual = conjoin(conjuncts[:position]
                               + conjuncts[position + 1:])
            return left_key, right_key, residual
        return None

    # --------------------------------------------------------------- aggregation

    def _collect_aggregates(
        self, expressions: Iterable[ast.Expression]
    ) -> list[ast.FunctionCall]:
        calls: dict[str, ast.FunctionCall] = {}
        for expression in expressions:
            for node in ast.walk_expression(expression):
                if (isinstance(node, ast.FunctionCall)
                        and self._evaluator.is_aggregate_call(node)):
                    calls.setdefault(str(node), node)
        return list(calls.values())

    def _rewrite_for_aggregate(
        self,
        expression: ast.Expression,
        group_map: dict[str, str],
        aggregate_names: set[str],
    ) -> ast.Expression:
        """Replace group expressions / aggregate calls with frame columns."""
        key = str(expression)
        if key in group_map:
            return ast.ColumnRef(None, group_map[key])
        if key in aggregate_names and isinstance(expression,
                                                 ast.FunctionCall):
            return ast.ColumnRef(None, key)

        rebuild = self._rewrite_for_aggregate
        if isinstance(expression, ast.Unary):
            return ast.Unary(
                expression.operator,
                rebuild(expression.operand, group_map, aggregate_names),
            )
        if isinstance(expression, ast.Binary):
            return ast.Binary(
                expression.operator,
                rebuild(expression.left, group_map, aggregate_names),
                rebuild(expression.right, group_map, aggregate_names),
            )
        if isinstance(expression, ast.IsNull):
            return ast.IsNull(
                rebuild(expression.operand, group_map, aggregate_names),
                expression.negated,
            )
        if isinstance(expression, ast.Between):
            return ast.Between(
                rebuild(expression.operand, group_map, aggregate_names),
                rebuild(expression.low, group_map, aggregate_names),
                rebuild(expression.high, group_map, aggregate_names),
                expression.negated,
            )
        if isinstance(expression, ast.InList):
            return ast.InList(
                rebuild(expression.operand, group_map, aggregate_names),
                tuple(rebuild(item, group_map, aggregate_names)
                      for item in expression.items),
                expression.negated,
            )
        if isinstance(expression, ast.FunctionCall):
            return ast.FunctionCall(
                expression.name,
                tuple(rebuild(argument, group_map, aggregate_names)
                      for argument in expression.args),
                expression.star,
            )
        return expression

    def _vector_spec(
        self,
        call: ast.FunctionCall,
        scan: ColumnarScan,
        schemas: dict[str, Table],
    ) -> "tuple | None":
        """A :class:`VectorAggregate` spec for *call*, or None.

        Supported: native aggregates over ``*``, a scanned column, or a
        kernel-taggable function call of one.  Invalid shapes (``sum(*)``,
        wrong arity) return None so the row-at-a-time Aggregate raises
        its usual errors.
        """
        name = call.name.lower()
        if name not in NATIVE_AGGREGATES:
            return None
        if call.star:
            return ("star",) if name == "count" else None
        if len(call.args) != 1:
            return None
        argument = call.args[0]
        if isinstance(argument, ast.ColumnRef):
            column = self._column_of(argument, scan.binding, scan.table)
            if column is None:
                return None
            return ("column", scan.table.schema.position(column))
        if isinstance(argument, ast.FunctionCall):
            spec = self._kernel_spec(argument, scan, schemas)
            if spec is None:
                return None
            kernel, function_name, position, extras = spec
            return ("kernel", kernel, function_name, position, extras)
        return None

    def _vectorize_projection(
        self,
        plan: PlanNode,
        items: list,
        order_items: list,
        schemas: dict[str, Table],
    ) -> tuple:
        """Vectorize kernel calls in the projection and ORDER BY.

        Only applies when the plan is a Filter chain over a
        :class:`ColumnarScan`.  New kernel slots widen the scan frame,
        so the Filter chain is rebuilt to re-capture it (Filters alias
        their child's frame at construction).
        """
        filters = []
        node = plan
        while isinstance(node, Filter):
            filters.append(node)
            node = node.child
        if not isinstance(node, ColumnarScan):
            return plan, items, order_items
        scan = node
        before = len(scan.kernel_slots)
        items = [(self._rewrite_kernel_calls(expression, scan, schemas),
                  name)
                 for expression, name in items]
        order_items = [
            ast.OrderItem(
                self._rewrite_kernel_calls(item.expression, scan, schemas),
                item.ascending,
            )
            for item in order_items
        ]
        if len(scan.kernel_slots) != before and filters:
            rebuilt: PlanNode = scan
            for stale in reversed(filters):
                fresh = Filter(rebuilt, stale.predicate, self._evaluator)
                fresh.estimated_rows = stale.estimated_rows
                rebuilt = fresh
            return rebuilt, items, order_items
        return plan, items, order_items

    # ----------------------------------------------------------------- the plan

    def plan_select(self, select: ast.Select) -> PlanNode:
        if select.source is None:
            if select.joins or select.group_by or select.having:
                raise SqlSyntaxError("FROM clause required here")
            plan: PlanNode = OneRow()
            schemas: dict[str, Table] = {}
            for conjunct in split_conjuncts(select.where):
                plan = Filter(plan, conjunct, self._evaluator)
        else:
            schemas = {}
            source_table = self._database.catalog.table(select.source.name)
            schemas[select.source.binding] = source_table
            for join in select.joins:
                if join.table.binding in schemas:
                    raise SqlSyntaxError(
                        f"duplicate table binding {join.table.binding!r}"
                    )
                schemas[join.table.binding] = (
                    self._database.catalog.table(join.table.name)
                )

            conjuncts = split_conjuncts(select.where)
            pushable: dict[str, list[ast.Expression]] = {
                binding: [] for binding in schemas
            }
            leftover: list[ast.Expression] = []
            has_left_join = any(j.kind == "left" for j in select.joins)
            for conjunct in conjuncts:
                bindings = self._bindings_of(conjunct, schemas)
                if (self.optimize
                        and bindings is not None and len(bindings) == 1
                        and not self._evaluator.contains_aggregate(conjunct)):
                    owner = next(iter(bindings))
                    # Pushing below a LEFT JOIN changes semantics for the
                    # right side; only the leftmost table is always safe.
                    if has_left_join and owner != select.source.binding:
                        leftover.append(conjunct)
                    else:
                        pushable[owner].append(conjunct)
                else:
                    leftover.append(conjunct)

            plan = self._access_path(
                source_table, select.source.binding,
                pushable[select.source.binding], schemas,
            )

            for join in select.joins:
                right_table = schemas[join.table.binding]
                right_plan = self._access_path(
                    right_table, join.table.binding,
                    pushable[join.table.binding], schemas,
                )
                equi = None
                if self.optimize and join.kind == "inner":
                    equi = self._split_equi_condition(
                        join.condition, plan.frame,
                        join.table.binding, schemas,
                    )
                if equi is not None:
                    left_key, right_key, residual = equi
                    joined: PlanNode = HashJoin(
                        plan, right_plan, left_key, right_key,
                        self._evaluator, join.kind, residual,
                        runtime=self._database.columnar,
                    )
                else:
                    joined = NestedLoopJoin(
                        plan, right_plan, join.condition,
                        self._evaluator, join.kind,
                        runtime=self._database.columnar,
                    )
                joined.estimated_rows = max(
                    plan.estimated_rows, right_plan.estimated_rows
                )
                plan = joined

            for conjunct in leftover:
                filtered = Filter(plan, conjunct, self._evaluator)
                filtered.estimated_rows = (
                    plan.estimated_rows * self._selectivity(conjunct)
                )
                plan = filtered

        # -- projection bookkeeping ------------------------------------------

        items: list[tuple[ast.Expression, str]] = []
        for item in select.items:
            if item.is_star:
                if select.source is None:
                    raise SqlSyntaxError("SELECT * requires a FROM clause")
                for binding, column in plan.frame.slots:
                    if binding is None:
                        continue  # synthetic kernel slots are not columns
                    items.append(
                        (ast.ColumnRef(binding, column), column)
                    )
                continue
            expression = item.expression
            assert expression is not None
            if item.alias:
                name = item.alias
            elif isinstance(expression, ast.ColumnRef):
                name = expression.column
            else:
                name = str(expression)
            items.append((expression, name))

        alias_map = {
            name: expression for expression, name in items
            if not isinstance(expression, ast.ColumnRef)
            or expression.column != name
        }

        def substitute_alias(expression: ast.Expression) -> ast.Expression:
            if (isinstance(expression, ast.ColumnRef)
                    and expression.table is None
                    and expression.column in alias_map):
                return alias_map[expression.column]
            return expression

        order_items = [
            ast.OrderItem(substitute_alias(item.expression), item.ascending)
            for item in select.order_by
        ]
        having = select.having

        # -- aggregation --------------------------------------------------------

        aggregate_calls = self._collect_aggregates(
            [expression for expression, _ in items]
            + ([having] if having is not None else [])
            + [item.expression for item in order_items]
        )
        needs_aggregate = bool(select.group_by) or bool(aggregate_calls)

        if needs_aggregate:
            group_map = {
                str(expression): f"__group_{index}"
                for index, expression in enumerate(select.group_by)
            }
            aggregate_names = {str(call) for call in aggregate_calls}
            aggregated: PlanNode | None = None
            if (self.optimize and not select.group_by and aggregate_calls
                    and isinstance(plan, ColumnarScan)
                    and not plan.bounds and not plan.kernel_slots):
                specs = [self._vector_spec(call, plan, schemas)
                         for call in aggregate_calls]
                if all(spec is not None for spec in specs):
                    aggregated = VectorAggregate(
                        plan, aggregate_calls, self._evaluator,
                        self._database, specs,
                    )
            if aggregated is None:
                aggregated = Aggregate(
                    plan, select.group_by, aggregate_calls,
                    self._evaluator, self._database,
                    runtime=self._database.columnar,
                )
            plan = aggregated
            plan.estimated_rows = max(
                1.0, plan.children()[0].estimated_rows / 10.0
            )
            items = [
                (self._rewrite_for_aggregate(expression, group_map,
                                             aggregate_names), name)
                for expression, name in items
            ]
            if having is not None:
                having = self._rewrite_for_aggregate(
                    having, group_map, aggregate_names
                )
                plan = Filter(plan, having, self._evaluator)
            order_items = [
                ast.OrderItem(
                    self._rewrite_for_aggregate(item.expression, group_map,
                                                aggregate_names),
                    item.ascending,
                )
                for item in order_items
            ]
        elif having is not None:
            raise SqlSyntaxError("HAVING requires GROUP BY or aggregates")
        elif self.optimize and select.source is not None and not select.joins:
            plan, items, order_items = self._vectorize_projection(
                plan, items, order_items, schemas,
            )

        if order_items:
            plan = Sort(plan, order_items, self._evaluator,
                        runtime=self._database.columnar)

        project = Project(plan, items, self._evaluator)
        project.estimated_rows = plan.estimated_rows
        plan = project

        if select.distinct:
            plan = Distinct(plan)
        if select.limit is not None or select.offset is not None:
            plan = Limit(plan, select.limit, select.offset)
        return plan


@dataclasses.dataclass
class ExplainedPlan:
    """EXPLAIN output: the textual tree plus the root node."""

    text: str
    root: PlanNode
