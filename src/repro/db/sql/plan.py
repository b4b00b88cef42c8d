"""Physical plan operators: the executor half of the query engine.

Every node produces an iterator of value tuples described by its
:class:`~repro.db.sql.expressions.Frame`.  Nodes carry the optimizer's
row estimate so ``EXPLAIN`` output shows both the shape and the numbers
the planner believed.

Operator set: sequential scan, columnar scan (zone-map page skipping +
vectorized kernels), three index scans (equality / range /
contains-candidate), filter, nested-loop and hash joins (inner + left),
grouping/aggregation (streaming + vectorized), projection, distinct,
external-merge sort, limit.

Every pipeline breaker runs in bounded memory when the database has a
``memory_budget``: ORDER BY spills sorted runs and merges them with
``heapq.merge``, GROUP BY spills overflow groups to hash partitions,
and both join build sides live in spillable runs
(:mod:`repro.db.columnar.spill`).  All of them are bit-identical to the
unbounded versions they replaced — same values, same order, same
errors — which the differential suite enforces.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.db.columnar.spill import IndexedRun, RowRun
from repro.db.columnar.vector import KernelError, apply_kernel
from repro.db.sql import ast
from repro.db.sql.expressions import (
    NATIVE_AGGREGATES,
    Evaluator,
    Frame,
    RowContext,
)
from repro.db.table import Table
from repro.db.values import NULL, comparable, compare, sort_key
from repro.errors import DatabaseError, SqlSyntaxError, TypeCheckError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.columnar import ColumnarRuntime
    from repro.db.index.base import Index

#: Hash partitions the aggregate spills overflow groups into.
SPILL_PARTITIONS = 16


def _page_function(name: str, function) -> Any:
    """Wrap a catalog function with the evaluator's error mapping,
    capturing instead of raising (see :class:`KernelError`)."""
    def call(*arguments):
        try:
            return function(*arguments)
        except (DatabaseError, TypeCheckError) as exc:
            return KernelError(exc)
        except Exception as exc:
            return KernelError(
                DatabaseError(f"function {name!r} failed: {exc}")
            )
    return call


def _unwrap(value: Any) -> Any:
    if isinstance(value, KernelError):
        raise value.error
    return value


class _Desc:
    """Inverts comparisons so one composite key handles mixed ASC/DESC."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __eq__(self, other: Any) -> bool:
        return self.key == other.key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key


class PlanNode:
    """Base plan operator."""

    frame: Frame
    estimated_rows: float = 0.0
    #: The input of a single-input operator.
    child: "PlanNode | None" = None
    #: The operator hands its input's rows on as they are, so its frame
    #: is its input's.
    passes_rows = False

    def execute(self, parameters: Sequence[Any],
                outer: "RowContext | None") -> Iterator[tuple]:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["PlanNode", ...]:
        return () if self.child is None else (self.child,)

    def walk(self) -> Iterator["PlanNode"]:
        """Every operator of the subtree, this one first."""
        yield self
        for child in self.children():
            yield from child.walk()

    def expressions(self) -> Sequence[ast.Expression]:
        """Every expression the operator evaluates against its input
        rows — what the planner reads a scan's read set from."""
        return ()

    def reframe(self) -> None:
        """Re-derive the frames of this subtree, inputs first.  The
        planner calls it once, after narrowing a scan's frame under
        operators that had already taken a copy of it."""
        for child in self.children():
            child.reframe()
        if self.passes_rows:
            self.frame = self.child.frame

    def explain(self, indent: int = 0) -> str:
        lines = [f"{'  ' * indent}{self.label()}  "
                 f"(~{self.estimated_rows:.0f} rows)"]
        lines.extend(child.explain(indent + 1) for child in self.children())
        return "\n".join(lines)


class SeqScan(PlanNode):
    """Full scan of a base table."""

    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding
        self.frame = Frame.for_table(binding, table.schema.column_names)
        self.estimated_rows = float(len(table))

    def label(self) -> str:
        return f"SeqScan({self.table.name} AS {self.binding})"

    def execute(self, parameters, outer) -> Iterator[tuple]:
        for _, row in self.table.rows():
            yield tuple(row)


class _IndexScan(PlanNode):
    """What the three index scans share: the table frame, probe
    evaluation and fetching the live rows behind a list of row ids."""

    #: The statement wrote ``value = column``, not ``column = value``.
    probe_first = False

    def __init__(self, table: Table, binding: str, index: "Index",
                 evaluator: Evaluator) -> None:
        self.table = table
        self.binding = binding
        self.index = index
        self.evaluator = evaluator
        self.frame = Frame.for_table(binding, table.schema.column_names)

    def _label(self, detail: str) -> str:
        return (f"{type(self).__name__}({self.table.name} AS {self.binding} "
                f"USING {self.index.name} {detail})")

    def _probe(self, expression: "ast.Expression | None", parameters,
               outer) -> Any:
        """Evaluate one probe value, type-checked as the comparison it
        replaces would be.

        A scan compares the probe with every non-NULL stored value and so
        rejects a mistyped one; a dict or tree lookup would silently find
        nothing (or, for ``1.0 = TRUE``, the wrong thing).  An index
        without entries has nothing to compare with, and neither has a
        NULL probe.
        """
        if expression is None:
            return None
        value = self.evaluator.evaluate(
            expression, RowContext.without_row(parameters, outer))
        if value is not NULL and len(self.index):
            schema = self.table.schema
            if not comparable(schema.column(self.index.column).sql_type,
                              value):
                # Let compare() raise what the scan would have: same
                # function, first stored value, same operand order.
                position = schema.position(self.index.column)
                stored = next(row[position] for _, row in self.table.rows()
                              if row[position] is not NULL)
                compare("=", *((value, stored) if self.probe_first
                               else (stored, value)))
        return value

    def _fetch(self, row_ids) -> Iterator[tuple]:
        for row_id in row_ids:
            if self.table.has_row(row_id):
                yield tuple(self.table.row(row_id))


class IndexEqualScan(_IndexScan):
    """Equality probe through a hash, unique-key or B-tree index."""

    def __init__(self, table: Table, binding: str, index: "Index",
                 key: ast.Expression, evaluator: Evaluator,
                 probe_first: bool = False) -> None:
        super().__init__(table, binding, index, evaluator)
        self.key = key
        self.probe_first = probe_first

    def label(self) -> str:
        return self._label(f"ON {self.index.column} = {self.key}")

    def execute(self, parameters, outer) -> Iterator[tuple]:
        key = self._probe(self.key, parameters, outer)
        return self._fetch(self.index.search_equal(key))


class IndexRangeScan(_IndexScan):
    """Range scan through a B-tree index."""

    def __init__(
        self,
        table: Table,
        binding: str,
        index: "Index",
        evaluator: Evaluator,
        low: ast.Expression | None = None,
        high: ast.Expression | None = None,
        include_low: bool = True,
        include_high: bool = True,
        probe_first: bool = False,
    ) -> None:
        super().__init__(table, binding, index, evaluator)
        self.probe_first = probe_first
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high

    def label(self) -> str:
        low = str(self.low) if self.low is not None else "-inf"
        high = str(self.high) if self.high is not None else "+inf"
        return self._label(
            f"ON {self.index.column} "
            f"IN {'[' if self.include_low else '('}{low}, {high}"
            f"{']' if self.include_high else ')'}")

    def execute(self, parameters, outer) -> Iterator[tuple]:
        low = self._probe(self.low, parameters, outer)
        high = self._probe(self.high, parameters, outer)
        if ((self.low is not None and low is NULL)
                or (self.high is not None and high is NULL)):
            return iter(())  # a comparison with NULL is never true
        return self._fetch(self.index.search_range(
            low, high, self.include_low, self.include_high
        ))


class IndexContainsScan(_IndexScan):
    """Candidate fetch through a genomic (k-mer / suffix) index.

    Produces the index's candidate rows; the enclosing
    :class:`Filter` re-checks the real predicate, so over-approximate
    candidate sets stay correct.
    """

    def __init__(self, table: Table, binding: str, index: "Index",
                 pattern: ast.Expression, evaluator: Evaluator) -> None:
        super().__init__(table, binding, index, evaluator)
        self.pattern = pattern

    def label(self) -> str:
        return self._label(f"PATTERN {self.pattern}")

    def execute(self, parameters, outer) -> Iterator[tuple]:
        pattern = self.evaluator.evaluate(
            self.pattern, RowContext.without_row(parameters, outer))
        candidates = self.index.search_contains(str(pattern))
        if candidates is None:
            return (tuple(row) for _, row in self.table.rows())
        return self._fetch(sorted(candidates))


class OneRow(PlanNode):
    """Produces a single empty row (for ``SELECT expr`` without FROM)."""

    def __init__(self) -> None:
        self.frame = Frame(())
        self.estimated_rows = 1.0

    def execute(self, parameters, outer) -> Iterator[tuple]:
        yield ()


class Filter(PlanNode):
    """Keeps rows whose predicate evaluates to true."""

    passes_rows = True

    def __init__(self, child: PlanNode, predicate: ast.Expression,
                 evaluator: Evaluator) -> None:
        self.child = child
        self.predicate = predicate
        self.evaluator = evaluator
        self.frame = child.frame

    def label(self) -> str:
        return f"Filter({self.predicate})"

    def expressions(self):
        return (self.predicate,)

    def execute(self, parameters, outer) -> Iterator[tuple]:
        for values in self.child.execute(parameters, outer):
            context = RowContext(self.frame, values, parameters, outer)
            if self.evaluator.evaluate_predicate(self.predicate, context):
                yield values


class _Join(PlanNode):
    """What the two joins share: two inputs, rows that are a left row
    followed by a right row, inner or left-outer."""

    def __init__(self, left: PlanNode, right: PlanNode, evaluator: Evaluator,
                 kind: str, runtime: "ColumnarRuntime | None") -> None:
        if kind not in ("inner", "left"):
            raise DatabaseError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.evaluator = evaluator
        self.kind = kind
        self.runtime = runtime
        self.frame = left.frame + right.frame

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def reframe(self) -> None:
        self.left.reframe()
        self.right.reframe()
        self.frame = self.left.frame + self.right.frame


class NestedLoopJoin(_Join):
    """General join: re-evaluates the condition per row pair."""

    def __init__(self, left: PlanNode, right: PlanNode,
                 condition: ast.Expression, evaluator: Evaluator,
                 kind: str = "inner",
                 runtime: "ColumnarRuntime | None" = None) -> None:
        super().__init__(left, right, evaluator, kind, runtime)
        self.condition = condition

    def label(self) -> str:
        return f"NestedLoopJoin[{self.kind}]({self.condition})"

    def expressions(self):
        return (self.condition,)

    def execute(self, parameters, outer) -> Iterator[tuple]:
        # Block-nested-loop: the inner relation lives in a spillable run,
        # so a right side larger than the memory budget goes to disk
        # instead of materializing as one unbounded list.
        right_rows = (self.runtime.spill.row_run()
                      if self.runtime is not None else RowRun(None, None))
        right_rows.extend(self.right.execute(parameters, outer))
        null_pad = (NULL,) * len(self.right.frame)
        try:
            for left_values in self.left.execute(parameters, outer):
                matched = False
                for right_values in right_rows:
                    combined = left_values + right_values
                    context = RowContext(self.frame, combined, parameters,
                                         outer)
                    if self.evaluator.evaluate_predicate(self.condition,
                                                         context):
                        matched = True
                        yield combined
                if not matched and self.kind == "left":
                    yield left_values + null_pad
        finally:
            right_rows.close()


class HashJoin(_Join):
    """Equi-join: builds a hash table on the right input."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: ast.Expression,
        right_key: ast.Expression,
        evaluator: Evaluator,
        kind: str = "inner",
        residual: ast.Expression | None = None,
        runtime: "ColumnarRuntime | None" = None,
    ) -> None:
        super().__init__(left, right, evaluator, kind, runtime)
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual

    def label(self) -> str:
        residual = f" AND {self.residual}" if self.residual else ""
        return (f"HashJoin[{self.kind}]({self.left_key} = "
                f"{self.right_key}{residual})")

    def expressions(self):
        keys = (self.left_key, self.right_key)
        return keys if self.residual is None else keys + (self.residual,)

    @staticmethod
    def _bucket_key(value: Any) -> Any:
        try:
            hash(value)
            return value
        except TypeError:
            return repr(value)

    def execute(self, parameters, outer) -> Iterator[tuple]:
        # Build rows live in an offset-addressed spillable run; the hash
        # table itself only holds ordinals, so a build side larger than
        # the memory budget keeps the resident footprint bounded.
        build = (self.runtime.spill.indexed_run()
                 if self.runtime is not None else IndexedRun(None, None))
        buckets: dict[Any, list[int]] = {}
        for right_values in self.right.execute(parameters, outer):
            context = RowContext(self.right.frame, right_values,
                                 parameters, outer)
            key = self.evaluator.evaluate(self.right_key, context)
            if key is NULL:
                continue  # NULL never equi-joins
            ordinal = build.append(right_values)
            buckets.setdefault(self._bucket_key(key), []).append(ordinal)

        null_pad = (NULL,) * len(self.right.frame)
        try:
            for left_values in self.left.execute(parameters, outer):
                context = RowContext(self.left.frame, left_values,
                                     parameters, outer)
                key = self.evaluator.evaluate(self.left_key, context)
                matched = False
                if key is not NULL:
                    for ordinal in buckets.get(self._bucket_key(key), ()):
                        combined = left_values + tuple(build[ordinal])
                        if self.residual is not None:
                            combined_context = RowContext(
                                self.frame, combined, parameters, outer
                            )
                            if not self.evaluator.evaluate_predicate(
                                self.residual, combined_context
                            ):
                                continue
                        matched = True
                        yield combined
                if not matched and self.kind == "left":
                    yield left_values + null_pad
        finally:
            build.close()


class Project(PlanNode):
    """Evaluates the projection expressions of a SELECT."""

    def __init__(self, child: PlanNode,
                 items: Sequence[tuple[ast.Expression, str]],
                 evaluator: Evaluator) -> None:
        self.child = child
        self.items = list(items)
        self.evaluator = evaluator
        self.frame = Frame([(None, name) for _, name in self.items])

    def label(self) -> str:
        inner = ", ".join(f"{expr} AS {name}" for expr, name in self.items)
        return f"Project({inner})"

    def expressions(self):
        return [expression for expression, _ in self.items]

    def execute(self, parameters, outer) -> Iterator[tuple]:
        for values in self.child.execute(parameters, outer):
            context = RowContext(self.child.frame, values, parameters, outer)
            yield tuple(
                self.evaluator.evaluate(expression, context)
                for expression, _ in self.items
            )


class _NativeAccumulator:
    """Streaming state of one native aggregate call within one group.

    Value-for-value identical to the list-then-reduce computation it
    replaced: ``sum`` starts from ``int`` 0 like ``sum()``, ``avg`` is
    running-sum over non-NULL count, and ``min``/``max`` replace only on
    strict comparison so the first of equal keys wins, exactly as
    ``min(values, key=sort_key)`` does.
    """

    __slots__ = ("name", "star", "argument", "evaluator",
                 "rows", "nonnull", "total", "best", "best_key")

    def __init__(self, call: ast.FunctionCall, evaluator: Evaluator) -> None:
        self.name = call.name.lower()
        self.star = call.star
        if call.star:
            if self.name != "count":
                raise SqlSyntaxError(f"{self.name}(*) is not defined")
            self.argument = None
        else:
            if len(call.args) != 1:
                raise SqlSyntaxError(
                    f"aggregate {self.name!r} takes exactly one argument"
                )
            self.argument = call.args[0]
        self.evaluator = evaluator
        self.rows = 0
        self.nonnull = 0
        self.total: Any = 0
        self.best: Any = None
        self.best_key: Any = None

    def step(self, context: RowContext) -> None:
        if self.star:
            self.rows += 1
            return
        self.add(self.evaluator.evaluate(self.argument, context))

    def add(self, value: Any) -> None:
        if value is NULL:
            return
        self.nonnull += 1
        name = self.name
        if name in ("sum", "avg"):
            try:
                self.total = self.total + value
            except TypeError:
                raise TypeCheckError(
                    f"cannot apply aggregate {name!r} to {value!r}"
                ) from None
        elif name in ("min", "max"):
            key = sort_key(value)
            if self.nonnull == 1:
                self.best, self.best_key = value, key
            elif name == "min":
                if key < self.best_key:
                    self.best, self.best_key = value, key
            elif key > self.best_key:
                self.best, self.best_key = value, key

    def final(self) -> Any:
        if self.name == "count":
            return self.rows if self.star else self.nonnull
        if self.nonnull == 0:
            return NULL
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            return self.total / self.nonnull
        return self.best


class _CustomAccumulator:
    """Streaming state of one registered (initial/step/final) aggregate."""

    __slots__ = ("call", "evaluator", "aggregate", "state")

    def __init__(self, call: ast.FunctionCall, evaluator: Evaluator,
                 aggregate) -> None:
        self.call = call
        self.evaluator = evaluator
        self.aggregate = aggregate
        self.state = aggregate.initial()

    def step(self, context: RowContext) -> None:
        arguments = [self.evaluator.evaluate(argument, context)
                     for argument in self.call.args]
        self.state = self.aggregate.step(self.state, *arguments)

    def final(self) -> Any:
        return self.aggregate.final(self.state)


class _GroupState:
    """One group's key values, first-seen ordinal and accumulators."""

    __slots__ = ("keys", "ordinal", "accumulators")

    def __init__(self, keys: list, ordinal: int, accumulators: list) -> None:
        self.keys = keys
        self.ordinal = ordinal
        self.accumulators = accumulators


class Aggregate(PlanNode):
    """Grouping + aggregate evaluation, streaming with group spill.

    Output columns: one slot per group expression (named ``__group_i``)
    followed by one per distinct aggregate call (:func:`slot_names`).
    The optimizer rewrites outer expressions (projection, HAVING, ORDER
    BY) to reference these synthetic columns.

    Rows fold into per-group accumulators as they stream past — no
    per-group row lists.  Under a finite ``memory_budget`` the number
    of in-memory groups is capped: rows of groups past the cap are
    routed by a stable hash of their key into on-disk partitions and
    aggregated in a second pass.  Output order stays first-seen
    (groups merge on their first input ordinal).
    """

    def __init__(
        self,
        child: PlanNode,
        group_expressions: Sequence[ast.Expression],
        aggregate_calls: Sequence[ast.FunctionCall],
        evaluator: Evaluator,
        database,
        runtime: "ColumnarRuntime | None" = None,
    ) -> None:
        self.child = child
        self.group_expressions = list(group_expressions)
        self.aggregate_calls = list(aggregate_calls)
        self.evaluator = evaluator
        self.database = database
        self.runtime = runtime
        slots = [(None, f"__group_{i}")
                 for i in range(len(self.group_expressions))]
        slots.extend((None, name)
                     for name in slot_names(self.aggregate_calls))
        self.frame = Frame(slots)

    def label(self) -> str:
        groups = ", ".join(str(e) for e in self.group_expressions) or "<all>"
        aggs = ", ".join(str(c) for c in self.aggregate_calls)
        return f"Aggregate(BY {groups}; {aggs})"

    def expressions(self):
        return self.group_expressions + self.aggregate_calls

    def _accumulators(self) -> list:
        accumulators = []
        for call in self.aggregate_calls:
            if call.name.lower() in NATIVE_AGGREGATES:
                accumulators.append(_NativeAccumulator(call, self.evaluator))
            else:
                accumulators.append(_CustomAccumulator(
                    call, self.evaluator,
                    self.database.catalog.aggregate(call.name),
                ))
        return accumulators

    def execute(self, parameters, outer) -> Iterator[tuple]:
        spill = self.runtime.spill if self.runtime is not None else None
        capacity = spill.run_capacity() if spill is not None else None
        partitions: "list | None" = None
        results: list[_GroupState] = []
        # The child's rows fold first, capped at *capacity* live groups;
        # rows of groups past the cap go to on-disk partitions, which
        # join this list and fold, uncapped, through the same loop.
        sources: list = [enumerate(self.child.execute(parameters, outer))]
        for source in sources:
            groups: dict[tuple, _GroupState] = {}
            for ordinal, values in source:
                context = RowContext(self.child.frame, values, parameters,
                                     outer)
                keys = [self.evaluator.evaluate(expression, context)
                        for expression in self.group_expressions]
                bucket_key = tuple(sort_key(k) for k in keys)
                state = groups.get(bucket_key)
                if state is None:
                    if capacity is not None and len(groups) >= capacity:
                        # Too many live groups: route this row to an
                        # on-disk partition by a stable hash of its key.
                        if partitions is None:
                            partitions = [spill.disk_run()
                                          for _ in range(SPILL_PARTITIONS)]
                            sources.extend(_run_entries(run)
                                           for run in partitions)
                        index = (zlib.crc32(repr(bucket_key).encode("utf-8"))
                                 % SPILL_PARTITIONS)
                        partitions[index].append((ordinal,) + tuple(values))
                        continue
                    state = _GroupState(keys, ordinal, self._accumulators())
                    groups[bucket_key] = state
                for accumulator in state.accumulators:
                    accumulator.step(context)
            results.extend(groups.values())
            capacity = None  # a partition holds whole groups; none re-spill

        if partitions is not None:
            for run in partitions:
                run.close()
            # First-seen group order across the memory/disk split.
            results.sort(key=lambda state: state.ordinal)

        if not results and not self.group_expressions:
            # Global aggregate over an empty input still yields one row.
            results = [_GroupState([], 0, self._accumulators())]

        for state in results:
            yield tuple(state.keys) + tuple(
                accumulator.final() for accumulator in state.accumulators
            )


class Distinct(PlanNode):
    """Removes duplicate rows (by value identity)."""

    passes_rows = True

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.frame = child.frame

    def execute(self, parameters, outer) -> Iterator[tuple]:
        seen: set = set()
        for values in self.child.execute(parameters, outer):
            key = tuple(sort_key(v) for v in values)
            if key not in seen:
                seen.add(key)
                yield values


class Sort(PlanNode):
    """External-merge sort on arbitrary expressions, mixed ASC/DESC.

    One composite key per row — per-item ``sort_key``, DESC items
    wrapped in :class:`_Desc`, the input ordinal last — totally orders
    the input identically to the stable last-key-first multi-pass sort
    this replaced (the ordinal reproduces stability).  Without a memory
    budget the input sorts as a single in-memory chunk; with one, full
    chunks sort and flush as runs that ``heapq.merge`` recombines.
    """

    passes_rows = True

    def __init__(self, child: PlanNode, items: Sequence[ast.OrderItem],
                 evaluator: Evaluator,
                 runtime: "ColumnarRuntime | None" = None) -> None:
        self.child = child
        self.items = list(items)
        self.evaluator = evaluator
        self.runtime = runtime
        self.frame = child.frame

    def label(self) -> str:
        inner = ", ".join(
            f"{item.expression} {'ASC' if item.ascending else 'DESC'}"
            for item in self.items
        )
        return f"Sort({inner})"

    def expressions(self):
        return [item.expression for item in self.items]

    def execute(self, parameters, outer) -> Iterator[tuple]:
        def entry_key(entry: tuple):
            ordinal, values = entry
            context = RowContext(self.frame, values, parameters, outer)
            key: list = []
            for item in self.items:
                part = sort_key(
                    self.evaluator.evaluate(item.expression, context)
                )
                key.append(part if item.ascending else _Desc(part))
            key.append(ordinal)
            return tuple(key)

        spill = self.runtime.spill if self.runtime is not None else None
        capacity = spill.run_capacity() if spill is not None else None
        chunk: list = []
        runs: list = []
        try:
            for ordinal, values in enumerate(
                    self.child.execute(parameters, outer)):
                chunk.append((ordinal, values))
                if capacity is not None and len(chunk) >= capacity:
                    chunk.sort(key=entry_key)
                    run = spill.disk_run()
                    for entry_ordinal, entry_values in chunk:
                        run.append((entry_ordinal,) + tuple(entry_values))
                    runs.append(run)
                    chunk = []
            chunk.sort(key=entry_key)
            if not runs:
                for _, values in chunk:
                    yield values
                return
            streams = [_run_entries(run) for run in runs]
            streams.append(iter(chunk))
            for _, values in heapq.merge(*streams, key=entry_key):
                yield values
        finally:
            for run in runs:
                run.close()


def _run_entries(run: RowRun) -> Iterator[tuple]:
    """The ``(ordinal, values)`` entries a Sort or Aggregate spilled."""
    for entry in run:
        yield entry[0], tuple(entry[1:])


class Limit(PlanNode):
    """LIMIT/OFFSET."""

    passes_rows = True

    def __init__(self, child: PlanNode, limit: int | None,
                 offset: int | None) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.frame = child.frame

    def label(self) -> str:
        return f"Limit({self.limit} OFFSET {self.offset})"

    def execute(self, parameters, outer) -> Iterator[tuple]:
        produced = 0
        skipped = 0
        for values in self.child.execute(parameters, outer):
            if skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield values


def _unique_name(name: str, taken: Sequence[str]) -> str:
    return name if name not in taken else f"{name}#{len(taken)}"


def slot_names(calls: Sequence[ast.FunctionCall]) -> list[str]:
    """The frame column of each (distinct) call: ``str(call)``, which is
    what EXPLAIN shows, suffixed ``#n`` only where two different calls
    print alike (``sum((n + ?))`` for two different parameters)."""
    names: list[str] = []
    for call in calls:
        names.append(_unique_name(str(call), names))
    return names


@dataclass
class KernelSlot:
    """One vectorized function column: ``function_name`` applied to the
    scanned column at ``position`` with ``extra_args``, page-at-a-time.

    A :class:`ColumnarScan` appends one frame column per distinct slot
    and the optimizer rewrites matching calls in filters, projections
    and ORDER BY into references to it; a :class:`VectorAggregate` folds
    the same columns without materializing rows.  Two slots are the same
    when everything but ``name`` (the frame label) is.
    """

    name: str = field(compare=False)
    kernel: str
    function_name: str
    position: int
    extra_args: tuple

    def bind(self, evaluator: Evaluator, catalog, parameters, outer):
        """Ready the slot for one execution: returns ``view -> values``,
        the function applied to every ordinal of a row group."""
        context = RowContext.without_row(parameters, outer)
        args = tuple(evaluator.evaluate(argument, context)
                     for argument in self.extra_args)
        descriptor = catalog.function(self.function_name)
        fallback = _page_function(self.function_name, descriptor.function)
        position = self.position
        if descriptor.kernel != self.kernel:
            # The function was re-registered without the kernel tag since
            # planning: evaluate it row-at-a-time, as the evaluator would.
            return lambda view: [fallback(value, *args)
                                 for value in view.column_values(position)]

        def column(view) -> list:
            return apply_kernel(
                self.kernel, view.seq_rows(position),
                lambda: view.column_values(position), fallback, args,
            )
        return column


class ColumnarScan(PlanNode):
    """Scan of a column-layout table: zone-map skipping + page kernels.

    Emits the rows ``SeqScan`` would, in the same order, narrowed to its
    **read set**.  Three columnar-only abilities:

    - ``columns`` — the schema positions the scan materialises, schema
      order.  A new scan reads them all; the planner's last step
      (:meth:`read_only`) narrows it to the columns the finished plan
      names, and only their pages are fetched and decoded.  The frame
      narrows with it, so nothing above can name, carry or spill a
      column that was not read.
    - ``bounds`` — already-split WHERE comparisons ``(position, low,
      include_low, high, include_high)``, evaluated at execute
      time and checked against each row group's zone maps; excluded
      groups are skipped without reading (or decoding) their pages.
      Every conjunct is still re-checked by the Filter above, so the
      pruning only has to be conservative, never exact.
    - ``kernel_slots`` — tagged function calls computed page-at-a-time
      over the packed column data and appended to the frame as synthetic
      columns; failures are deferred per row (:class:`KernelError`) so
      tombstoned ordinals never raise.  A kernel reads its column's
      page as stored, whether or not the column is in the read set.
    """

    def __init__(self, table: Table, binding: str, evaluator: Evaluator,
                 catalog) -> None:
        self.table = table
        self.binding = binding
        self.evaluator = evaluator
        self.catalog = catalog
        self.columns = list(range(len(table.schema.columns)))
        self.bounds: list = []
        self.kernel_slots: list[KernelSlot] = []
        self._rebuild_frame()
        self.estimated_rows = float(len(table))

    def _rebuild_frame(self) -> None:
        names = self.table.schema.column_names
        slots = [(self.binding, names[position])
                 for position in self.columns]
        slots.extend((None, slot.name) for slot in self.kernel_slots)
        self.frame = Frame(slots)

    def read_only(self, positions) -> None:
        """Narrow the scan (and its frame) to these schema positions."""
        self.columns = sorted(positions)
        self._rebuild_frame()

    def ensure_kernel_slot(self, slot: KernelSlot) -> str:
        """The frame column computing *slot*, appended unless an equal
        slot is already there."""
        for existing in self.kernel_slots:
            if existing == slot:
                return existing.name
        slot.name = _unique_name(slot.name,
                                 [s.name for s in self.kernel_slots])
        self.kernel_slots.append(slot)
        self._rebuild_frame()
        return slot.name

    def label(self) -> str:
        parts = [f"{self.table.name} AS {self.binding}"]
        names = self.table.schema.column_names
        if len(self.columns) < len(names):
            parts.append("columns " + (", ".join(
                names[position] for position in self.columns) or "none"))
        if self.bounds:
            parts.append(f"zones on {len(self.bounds)} bound(s)")
        if self.kernel_slots:
            parts.append("kernels "
                         + ", ".join(s.name for s in self.kernel_slots))
        return f"ColumnarScan({'; '.join(parts)})"

    def execute(self, parameters, outer) -> Iterator[tuple]:
        store = self.table.column_store
        if len(store) == 0:
            return
        probe = RowContext.without_row(parameters, outer)

        def bound(expression: "ast.Expression | None") -> Any:
            return (None if expression is None
                    else self.evaluator.evaluate(expression, probe))

        bounds = [
            (position, bound(low), include_low, bound(high), include_high)
            for position, low, include_low, high, include_high in self.bounds
        ]
        kernels = [slot.bind(self.evaluator, self.catalog, parameters, outer)
                   for slot in self.kernel_slots]
        reading = len({*self.columns,
                       *(slot.position for slot in self.kernel_slots)})
        for view in store.scan(bounds or None, reading):
            rows = view.enumerate_rows(self.columns)
            if not kernels:
                for _, row in rows:
                    yield row
                continue
            # Kernel failures stay wrapped (KernelError) here: they
            # raise only if an expression actually reads the slot,
            # matching the row path's lazy evaluation order.
            extras = list(zip(*(kernel(view) for kernel in kernels)))
            for offset, row in rows:
                yield row + extras[offset]


class VectorAggregate(PlanNode):
    """Global native aggregation evaluated page-at-a-time.

    Stands in for :class:`Aggregate` when the child is a bare
    :class:`ColumnarScan` (no GROUP BY, no filters, no bounds) and every
    call is a native aggregate over ``*``, a scanned column, or a
    kernel-tagged function of one — ``count``/``sum``/``avg``/``min``/
    ``max`` then fold whole column pages without materializing rows,
    fetching only the pages of the columns the calls name.
    The output frame matches :class:`Aggregate` exactly (one
    :func:`slot_names` column per call), so the planner's rewrite
    machinery is shared.

    ``specs`` aligns with ``aggregate_calls``: ``None`` for ``count(*)``,
    a column position, or the :class:`KernelSlot` computing the argument.
    """

    def __init__(self, scan: ColumnarScan,
                 aggregate_calls: Sequence[ast.FunctionCall],
                 evaluator: Evaluator, database,
                 specs: "Sequence[KernelSlot | int | None]") -> None:
        self.scan = scan
        self.aggregate_calls = list(aggregate_calls)
        self.evaluator = evaluator
        self.database = database
        self.specs = list(specs)
        self.frame = Frame([(None, name)
                            for name in slot_names(self.aggregate_calls)])
        self.estimated_rows = 1.0

    def label(self) -> str:
        aggs = ", ".join(str(call) for call in self.aggregate_calls)
        return f"VectorAggregate({aggs})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.scan,)

    def expressions(self):
        # A kernel argument is read off the stored page, not materialised.
        return [call.args[0]
                for call, spec in zip(self.aggregate_calls, self.specs)
                if isinstance(spec, int)]

    def execute(self, parameters, outer) -> Iterator[tuple]:
        store = self.scan.table.column_store
        accumulators = [_NativeAccumulator(call, self.evaluator)
                        for call in self.aggregate_calls]
        if len(store) == 0:
            yield tuple(acc.final() for acc in accumulators)
            return
        sources = [
            spec.bind(self.evaluator, self.database.catalog, parameters,
                      outer) if isinstance(spec, KernelSlot) else spec
            for spec in self.specs
        ]
        for view in store.scan():
            live = view.row_ids
            live_count = sum(1 for row_id in live if row_id is not None)
            if live_count == 0:
                continue
            all_live = live_count == len(live)
            for accumulator, source in zip(accumulators, sources):
                if source is None:
                    accumulator.rows += live_count
                    continue
                values = (view.column_values(source)
                          if isinstance(source, int) else source(view))
                if all_live:
                    for value in values:
                        accumulator.add(_unwrap(value))
                else:
                    for row_id, value in zip(live, values):
                        if row_id is not None:
                            accumulator.add(_unwrap(value))
        yield tuple(acc.final() for acc in accumulators)
