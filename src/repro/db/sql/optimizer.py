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
- **join strategy by access path** — an equi-join (inner or left)
  probes an equality index on the right key column of a bare table
  scan, else builds a hash table; everything else is a nested loop;
- **read sets, bounded sorts** — a table scan reads only the columns the
  finished plan names; ``ORDER BY … LIMIT n`` keeps *n* rows (over joins,
  of the FROM table); only a LIMIT makes a row source start at one row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.db.sql import ast
from repro.db.sql.expressions import Evaluator, Frame
from repro.db.sql.plan import (
    Aggregate,
    Change,
    ColumnarScan,
    Distinct,
    Filter,
    IndexContainsScan,
    IndexEqualScan,
    IndexRangeScan,
    Limit,
    Join,
    OneRow,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    TableScan,
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

#: Comparison operators an access path reads, each with the operator
#: that says the same with its operands swapped.
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


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


def _map_order(fn, order_items: Iterable[ast.OrderItem]) -> list:
    """The ORDER BY list with *fn* applied to every sort key."""
    return [ast.OrderItem(fn(item.expression), item.ascending)
            for item in order_items]


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

    @staticmethod
    def _owner(reference: ast.ColumnRef,
               schemas: dict[str, Table]) -> "str | None":
        """The binding a column reference resolves to at this query level.

        An unqualified name belongs to the one binding whose table has
        it; one matching several (or none — it may belong to an outer
        query) is unresolvable, reported as ``None``.
        """
        if reference.table is not None:
            return reference.table if reference.table in schemas else None
        owners = [binding for binding, table in schemas.items()
                  if table.schema.has_column(reference.column)]
        return owners[0] if len(owners) == 1 else None

    def _bindings_of(
        self,
        expression: ast.Expression,
        schemas: dict[str, Table],
    ) -> "set[str] | None":
        """Binding names an expression touches; ``None`` when it holds a
        subquery or an unresolvable column, which makes it non-pushable."""
        found: set[str] = set()
        for node in ast.walk_expression(expression):
            if isinstance(node, (ast.InSelect, ast.Exists)):
                return None  # subqueries are never pushed into scans
            if isinstance(node, ast.ColumnRef):
                owner = self._owner(node, schemas)
                if owner is None:
                    return None
                found.add(owner)
        return found

    def _equality_selectivity(
        self,
        conjunct: ast.Binary,
        schemas: "dict[str, Table] | None",
    ) -> float:
        """Equality selectivity: ``1/ndistinct`` after ANALYZE, else the
        fixed default (section 6.5's statistics hook)."""
        for side in (conjunct.left, conjunct.right):
            owner = (self._owner(side, schemas)
                     if schemas and isinstance(side, ast.ColumnRef) else None)
            if owner is None:
                continue
            table = schemas[owner]
            stats = table.statistics
            if stats and stats.get(side.column, 0) > 0:
                floor = 1.0 / max(1, len(table))
                return min(1.0, max(floor, 1.0 / stats[side.column]))
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

    def _independent(self, expression: ast.Expression,
                     schemas: dict[str, Table]) -> bool:
        """True when the expression uses no columns of this query level."""
        return self._bindings_of(expression, schemas) == set()

    def _comparison_bounds(
        self,
        conjunct: ast.Expression,
        binding: str,
        table: Table,
        schemas: dict[str, Table],
    ) -> "tuple | None":
        """Normalise ``column <op> value`` (either way round) and
        ``column BETWEEN low AND high`` into ``(column, low, include_low,
        high, include_high, probe_first)``, or None.

        Bounds are expressions independent of this query level (``None``
        = unbounded; an equality has its one value as both);
        ``probe_first`` records that the statement wrote the value on the
        left.  Index selection and zone-map pruning both read comparisons
        through this.
        """
        if isinstance(conjunct, ast.Between):
            column = self._column_of(conjunct.operand, binding, table)
            if (column is None or conjunct.negated
                    or not self._independent(conjunct.low, schemas)
                    or not self._independent(conjunct.high, schemas)):
                return None
            return (column, conjunct.low, True, conjunct.high, True, False)
        if not (isinstance(conjunct, ast.Binary)
                and conjunct.operator in _MIRRORED):
            return None
        for column_side, value, operator, probe_first in (
            (conjunct.left, conjunct.right, conjunct.operator, False),
            (conjunct.right, conjunct.left, _MIRRORED[conjunct.operator],
             True),
        ):
            column = self._column_of(column_side, binding, table)
            if column is None or not self._independent(value, schemas):
                continue
            if operator == "=":
                return (column, value, True, value, True, probe_first)
            if operator in ("<", "<="):
                return (column, None, True, value, operator == "<=",
                        probe_first)
            return (column, value, operator == ">=", None, True, probe_first)
        return None

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
            bounds = self._comparison_bounds(conjunct, binding, table,
                                             schemas)
            if bounds is not None:
                (column, low, include_low, high, include_high,
                 probe_first) = bounds
                equality = low is high
                for index in table.indexes_on(column):
                    if equality and "equal" in index.probes:
                        plan: PlanNode = IndexEqualScan(
                            table, binding, index, low, self._evaluator,
                            probe_first,
                        )
                        if index.unique:
                            # At most one row whatever the table's size:
                            # ranks ahead of every estimate.
                            plan.estimated_rows = 1.0
                            candidates.append((0.0, plan, rest))
                            break
                        plan.estimated_rows = (
                            base_rows * self._selectivity(conjunct, schemas)
                        )
                    elif not equality and "range" in index.probes:
                        plan = IndexRangeScan(
                            table, binding, index, self._evaluator,
                            low, high, include_low, include_high,
                            probe_first,
                        )
                        plan.estimated_rows = base_rows * RANGE_SELECTIVITY
                    else:
                        continue
                    candidates.append((plan.estimated_rows, plan, rest))
                    break

            # Genomic contains(col, pattern): candidate fetch + re-check.
            if (isinstance(conjunct, ast.FunctionCall)
                    and conjunct.name.lower() == "contains"
                    and len(conjunct.args) == 2):
                column = self._column_of(conjunct.args[0], binding, table)
                pattern = conjunct.args[1]
                if (column is not None
                        and self._independent(pattern, schemas)):
                    for index in table.indexes_on(column):
                        if "contains" in index.probes:
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
            scan = ColumnarScan(table, binding, self._evaluator)
            for conjunct in conjuncts:
                # Zone maps only skip whole row groups, never decide a
                # row: the conjunct itself stays in a Filter above.
                bounds = self._comparison_bounds(conjunct, binding, table,
                                                 schemas)
                if bounds is not None:
                    scan.bounds.append(
                        (table.schema.position(bounds[0]), *bounds[1:5]))
            plan, remaining = scan, conjuncts
        else:
            plan = SeqScan(table, binding)
            remaining = conjuncts
        return self._filtered(plan, remaining, schemas)

    def _filtered(
        self,
        plan: PlanNode,
        conjuncts: Iterable[ast.Expression],
        schemas: "dict[str, Table] | None" = None,
    ) -> PlanNode:
        """*plan* under one Filter per conjunct, estimates compounding."""
        for conjunct in conjuncts:
            estimated = (plan.estimated_rows
                         * self._selectivity(conjunct, schemas))
            plan = Filter(plan, conjunct, self._evaluator)
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
            for left_key, right_key in ((conjunct.left, conjunct.right),
                                        (conjunct.right, conjunct.left)):
                left_side = self._bindings_of(left_key, schemas)
                if (left_side and left_side <= left_bindings
                        and self._bindings_of(right_key, schemas)
                        == {right_binding}):
                    return left_key, right_key, conjoin(
                        conjuncts[:position] + conjuncts[position + 1:])
        return None

    # --------------------------------------------------------------- aggregation

    def _resolved(self, expression: ast.Expression,
                  schemas: dict[str, Table]) -> ast.Expression:
        """*expression* in the form two expressions are compared in.

        Every unqualified column reference gains the one binding that
        owns it, so ``g`` and ``t.g`` come out equal; everything else
        compares as the nodes do (parameters by index, literals by type
        and value).  Only ever a comparison key — the tree that executes
        stays as written, and so do the names and messages users see.
        """
        def qualify(node, rebuilt):
            owner = (self._owner(node, schemas)
                     if isinstance(node, ast.ColumnRef) else None)
            return rebuilt if owner is None else ast.ColumnRef(owner,
                                                               node.column)

        return ast.map_expression(qualify, expression)

    def _collect_aggregates(
        self,
        expressions: Iterable[ast.Expression],
        schemas: dict[str, Table],
    ) -> tuple[list[ast.FunctionCall], list[ast.Expression]]:
        """The distinct aggregate calls of *expressions*, as written,
        and the resolved form that tells them apart."""
        calls: list[ast.FunctionCall] = []
        keys: list[ast.Expression] = []
        for expression in expressions:
            for node in ast.walk_expression(expression):
                if self._evaluator.is_aggregate_call(node):
                    key = self._resolved(node, schemas)
                    if key not in keys:
                        calls.append(node)
                        keys.append(key)
        return calls, keys

    # ------------------------------------------------------------- the read set

    def _materialised(self, expression: ast.Expression,
                      scan: "ColumnarScan | None"):
        """The parts of *expression* an operator evaluates from decoded
        columns: all of them, but for the column a page kernel over
        *scan* reads off its stored page."""
        yield expression
        skip = self._evaluator.kernel_position(expression, scan) is not None
        for child in ast.children(expression)[skip:]:
            yield from self._materialised(child, scan)

    def _narrow_scans(self, plan: PlanNode) -> None:
        """Every table scan of this query level reads only the columns
        the finished plan names (the naive plan keeps whole rows).

        A reference reaches a scan by name — qualified with the scan's
        binding, or unqualified and a column of its table; an
        unqualified name stays in *every* scan that has it, so an
        ambiguous one still fails as ambiguous.  A column only page
        kernels touch is not materialised at all.  A level with a
        sub-select in it keeps whole rows, because a correlated
        sub-select resolves outer names at run time, against the frame
        it finds there.
        """
        nodes = list(plan.walk())
        scans = [node for node in nodes if isinstance(node, TableScan)]
        if not (scans and self.optimize):
            return
        parts = [part for node in nodes for expression in node.expressions()
                 for part in self._materialised(expression,
                                                node.page_scan())]
        if any(isinstance(part, (ast.InSelect, ast.Exists))
               for part in parts):
            return
        for scan in scans:
            schema = scan.table.schema
            scan.read_only({
                schema.position(part.column) for part in parts
                if isinstance(part, ast.ColumnRef)
                and part.table in (None, scan.binding)
                and schema.has_column(part.column)
            })

    # ----------------------------------------------------------------- the plan

    def _from_where(self, select: ast.Select) -> tuple[PlanNode, dict]:
        """FROM, JOIN and WHERE as a plan, and the table of each binding."""
        if select.source is None:
            if select.joins or select.group_by or select.having:
                raise SqlSyntaxError("FROM clause required here")
            return self._filtered(OneRow(),
                                  split_conjuncts(select.where)), {}
        source_table = self._database.catalog.table(select.source.name)
        schemas: dict[str, Table] = {select.source.binding: source_table}
        for join in select.joins:
            if join.table.binding in schemas:
                raise SqlSyntaxError(
                    f"duplicate table binding {join.table.binding!r}")
            schemas[join.table.binding] = self._database.catalog.table(
                join.table.name)

        conjuncts = split_conjuncts(select.where)
        pushable: dict[str, list[ast.Expression]] = {
            binding: [] for binding in schemas}
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

        plan = self._access_path(source_table, select.source.binding,
                                 pushable[select.source.binding], schemas)

        for join in select.joins:
            right_table = schemas[join.table.binding]
            right_plan = self._access_path(right_table, join.table.binding,
                                           pushable[join.table.binding],
                                           schemas)
            equi = index = None
            if self.optimize:
                equi = self._split_equi_condition(
                    join.condition, plan.frame, join.table.binding, schemas)
            column = equi and self._column_of(equi[1], join.table.binding,
                                              right_table)
            if column and not pushable[join.table.binding]:
                # A bare scan of the right table: probe the index its
                # key column has instead of running it into a hash table.
                index = next((index for index
                              in right_table.indexes_on(column)
                              if "equal" in index.probes), None)
            plan = Join(plan, right_plan, join.condition, self._evaluator,
                        join.kind, equi, self._database.columnar, index)

        return self._filtered(plan, leftover), schemas

    def _size_batches(self, plan: PlanNode, stoppable: bool) -> None:
        """The batch rule: a row source starts at one row where a LIMIT
        (through Filter, Project, Distinct or a join's left input) or a
        sub-select may stop it, else at MAX_BATCH_ROWS, the default."""
        if (stoppable and isinstance(plan, (TableScan, Sort))
                and getattr(plan, "top", None) is None):
            plan.first_batch = 1
        if isinstance(plan, Limit):
            stoppable = stoppable or plan.limit is not None
        elif not isinstance(plan, (Filter, Project, Distinct, Join)):
            stoppable = False
        for child in plan.children():  # a join's right input is drained
            self._size_batches(child, stoppable and child is not getattr(
                plan, "right", None))

    def plan_change(self, statement: "ast.Update | ast.Delete") -> PlanNode:
        """An UPDATE's or DELETE's plan: its table read the way a SELECT
        with the same WHERE reads it, under the :class:`Change` that
        drains it to row ids."""
        table = self._database.catalog.table(statement.table)
        path, _ = self._from_where(ast.Select(
            [], ast.TableRef(table.name), where=statement.where))
        plan = Change(type(statement).__name__, table.name, path)
        self._narrow_scans(plan)
        plan.bind()
        return plan

    def _ordinal(self, term: ast.Expression,
                 items: list[tuple[ast.Expression, str]],
                 clause: str) -> ast.Expression | None:
        """The select item an integer literal written as a whole ORDER BY or
        GROUP BY term names, counting from 1, as in SQLite."""
        if not (isinstance(term, ast.Literal) and type(term.value) is int):
            return None
        if not 1 <= term.value <= len(items):
            raise SqlSyntaxError(
                f"{clause} term {term.value} out of range - should be "
                f"between 1 and {len(items)}")
        named = items[term.value - 1][0]
        if clause == "GROUP BY" and self._evaluator.contains_aggregate(named):
            raise SqlSyntaxError(
                f"GROUP BY term {term.value} names an aggregate: {named}")
        return named

    def _driving_join(self, select: ast.Select, plan: PlanNode,
                      order_items: list[ast.OrderItem],
                      schemas: dict[str, Table]) -> "Join | None":
        """The join whose left input a sorted LIMIT may sort instead: a
        stable sort by FROM-table columns commutes with joins that cannot
        raise (no residual, no kind stranger, no WHERE conjunct above)."""
        def declared(key: ast.Expression):  # a column's declared type
            owner = type(key) is ast.ColumnRef and self._owner(key, schemas)
            column = owner and self._column_of(key, owner, schemas[owner])
            return column and schemas[owner].schema.column(column).sql_type

        keys = (self._resolved(item.expression, schemas)
                for item in order_items)
        joins = [node for node in plan.walk() if isinstance(node, Join)]
        if (self.optimize and isinstance(plan, Join)
                and select.limit is not None and not select.distinct
                and all(declared(key) and key.table == select.source.binding
                        for key in keys)
                and all(join.equi and not join.equi[2]
                        and (left := declared(join.equi[0]))
                        and left == declared(join.equi[1]) for join in joins)):
            return joins[-1]
        return None

    def plan_select(self, select: ast.Select, stoppable=False) -> PlanNode:
        """A SELECT's plan; *stoppable* if its caller may stop early."""
        plan, schemas = self._from_where(select)

        # -- projection bookkeeping ------------------------------------------

        items: list[tuple[ast.Expression, str]] = []
        for item in select.items:
            if item.is_star:
                if select.source is None:
                    raise SqlSyntaxError("SELECT * requires a FROM clause")
                items.extend((ast.ColumnRef(binding, column), column)
                             for binding, column in plan.frame.slots)
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

        def output_alias(expression: ast.Expression) -> ast.Expression:
            """ORDER BY sees output aliases: a bare name means the alias;
            inside a larger key an input column of that name wins."""
            def substitute(node, rebuilt):
                if (isinstance(node, ast.ColumnRef) and node.table is None
                        and node.column in alias_map
                        and (node is expression or not any(
                            table.schema.has_column(node.column)
                            for table in schemas.values()))):
                    return alias_map[node.column]
                return rebuilt

            return ast.map_expression(substitute, expression)

        order_items = _map_order(
            lambda key: self._ordinal(key, items, "ORDER BY")
            or output_alias(key), select.order_by)
        group_by = [self._ordinal(expression, items, "GROUP BY") or expression
                    for expression in select.group_by]
        having = select.having

        # -- aggregation --------------------------------------------------------

        aggregate_calls, aggregate_keys = self._collect_aggregates(
            [expression for expression, _ in items]
            + ([having] if having is not None else [])
            + [item.expression for item in order_items],
            schemas,
        )
        needs_aggregate = bool(group_by) or bool(aggregate_calls)

        if needs_aggregate:
            estimated = max(1.0, plan.estimated_rows / 10.0)
            plan = Aggregate(
                plan, group_by, aggregate_calls,
                self._evaluator, self._database,
                runtime=self._database.columnar,
            )
            plan.estimated_rows = estimated
            # The aggregation frame is group columns, then one per call:
            # pair each with the resolved expression it stands for.
            group_keys = [self._resolved(expression, schemas)
                          for expression in group_by]
            columns = [(key, column) for key, (_, column) in
                       zip(group_keys + aggregate_keys, plan.frame.slots)]

            def to_frame_column(node, rebuilt):
                # Matched as written, outermost first: inside ``count(g)``
                # the ``g`` is the call's argument, not the group key.
                key = self._resolved(node, schemas)
                for candidate, column in columns:
                    if candidate == key:
                        return ast.ColumnRef(None, column)
                return rebuilt

            def above(expression: ast.Expression) -> ast.Expression:
                return ast.map_expression(to_frame_column, expression)

            items = [(above(expression), name) for expression, name in items]
            if having is not None:
                plan = Filter(plan, above(having), self._evaluator)
            order_items = _map_order(above, order_items)
        elif having is not None:
            raise SqlSyntaxError("HAVING requires GROUP BY or aggregates")

        if order_items:
            # A LIMIT straight above (a Project in between keeps every
            # row; DISTINCT does not) bounds the rows the sort keeps.
            top = (None if select.limit is None or select.distinct
                   else select.limit + (select.offset or 0))
            driven = self._driving_join(select, plan, order_items, schemas)
            if driven and any(join.kind != "left" for join in select.joins):
                top = None  # only a LEFT join keeps a row per left row
            sort = Sort(plan if driven is None else driven.left, order_items,
                        self._evaluator, self._database.columnar, top)
            if driven is None:
                plan = sort
            else:
                driven.left = sort

        project = Project(plan, items, self._evaluator)
        project.estimated_rows = plan.estimated_rows
        plan = project

        if select.distinct:
            plan = Distinct(plan)
        if select.limit is not None or select.offset is not None:
            plan = Limit(plan, select.limit, select.offset)
        self._narrow_scans(plan)
        self._size_batches(plan, stoppable)
        plan.bind()
        return plan
