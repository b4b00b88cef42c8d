"""Physical plan operators: the executor half of the query engine.

Every operator consumes and produces :class:`~repro.db.sql.expressions.
Batch` es — equal-length columns described by its :class:`~repro.db.sql.
expressions.Frame` — and evaluates expressions only through the column
closures :meth:`PlanNode.bind` compiled once for the plan.  A columnar
scan emits one batch per live row group; a row source (a sort, or a scan
transposing rows, :func:`table_batches`) doubles its batches from its
``first_batch``: one row only where a ``LIMIT`` may stop it (the batch
rule).  :meth:`PlanNode.execute` is the root's row iterator.

A cell that fails while a column is evaluated raises only when its row
is consumed, in row order (:func:`~repro.db.sql.expressions.settled`): a
pipelined operator first hands on the rows before it, a pipeline breaker
raises on reaching it.  Nodes carry the optimizer's row estimate and
count the rows and batches of their last execution, for ``EXPLAIN``.

Every pipeline breaker runs in bounded memory when the database has a
``memory_budget``: it charges the page cache for what it holds and, once
refused, ORDER BY spills sorted runs of column blocks merged block-wise
(:func:`merged`), GROUP BY overflow groups to hash partitions, a join's
build side its run (:mod:`repro.db.columnar.spill`) — bit-identical to
the unbounded versions (same values, order and errors), which the
differential suite enforces.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_left
from collections import defaultdict, deque, namedtuple
from itertools import accumulate, chain, count, filterfalse, islice, repeat
from operator import eq, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.db.columnar.spill import IndexedRun, cut, footprint
from repro.db.columnar.vector import KernelError
from repro.db.index.hashindex import hashable
from repro.db.sql import ast
from repro.db.sql.expressions import (
    NATIVE_AGGREGATES,
    NO_COLUMNS,
    Batch,
    Column,
    Evaluator,
    Frame,
    RowContext,
    gather,
    kept,
    one,
    settled,
)
from repro.db.table import Table
from repro.db.values import (
    NULL,
    OneKind,
    comparable,
    compare,
    comparison_kind,
    sort_key,
    sort_keys,
)
from repro.errors import DatabaseError, SqlSyntaxError, TypeCheckError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.columnar import ColumnarRuntime
    from repro.db.index.base import Index

#: Hash partitions the aggregate spills overflow groups into.
SPILL_PARTITIONS = 16
#: Where the doubling of a row source's batches stops.
MAX_BATCH_ROWS = 1024


def chunks(items: Iterable[Any], first: int) -> Iterator[list]:
    """*items* in lists of *first* items, doubling up to MAX_BATCH_ROWS."""
    items = iter(items)
    while chunk := list(islice(items, first)):
        yield chunk
        first = min(2 * first, MAX_BATCH_ROWS)


def table_batches(pairs: Iterable[tuple], columns: Sequence[int],
                  first: int) -> Iterator[Batch]:
    """A base table's ``(row id, row)`` *pairs* in batches of the schema
    positions *columns*, doubling from *first* rows, each of which knows
    its rows' ids (:meth:`Batch.row_ids`).  A pair is split as it is read:
    keeping a chunk of them to transpose costs a scan a third of its speed."""
    pairs, size = iter(pairs), first
    while True:
        ids, rows = [], []
        for row_id, row in islice(pairs, size):
            ids.append(row_id)
            rows.append(row)
        if not rows:
            return
        if 3 * len(columns) < len(rows[0]):
            # Under a third of the row, picking cells beats transposing.
            data = [[row[position] for row in rows] for position in columns]
        else:
            data = list(zip(*rows))
            if len(columns) < len(data):
                data = [data[position] for position in columns]
        yield Batch(data, len(rows), ids=ids)
        size = min(size * 2, MAX_BATCH_ROWS)


#: The exact types of a column that is its own group keys.
_OWN_KEYS = frozenset((int, float, str, bytes))


def _group_key(value: Any) -> Any:
    """The cell itself where its ``sort_key`` only wraps it (a number, a
    text, a bytes value: equal and hashing alike exactly when the keys
    do) — every NaN as ``math.nan``, so all NaNs are one group — else
    that key — NULL, a bool (``True`` is not ``1``), a UDT."""
    key = sort_key(value)
    if 2 <= key[0] <= 4:
        return value if value == value else math.nan
    return key


def _own_keys(column: Sequence[Any]) -> bool:
    """Whether *column* keys its groups itself: numbers, texts and bytes
    values, and no NaN (the only value unequal to itself)."""
    kinds = set(map(type, column))
    return kinds <= _OWN_KEYS and (float not in kinds
                                   or all(map(eq, column, column)))


def _bucket_keys(columns: Sequence[Sequence[Any]]) -> Iterable[Any]:
    """Per row, the key that tells groups (or DISTINCT rows) apart: the
    :func:`_group_key` of its one cell, or the tuple of them."""
    keyed = [column if _own_keys(column) else list(map(_group_key, column))
             for column in columns]
    return keyed[0] if len(keyed) == 1 else zip(*keyed)


def merged(sources: Sequence[Iterator[list]],
           order: Callable[[list], list]) -> Iterator[list]:
    """One stream of blocks (lists of equal-length columns) in the row
    order ``order(columns)`` spells, out of *sources* that each yield
    such blocks already in it.

    A round orders afresh the rows not yet emitted of one block per
    source, source after source — *order* is stable, so equal rows stay
    in source order — and emits them up to the first row that ends its
    block: past it, a block not yet read may hold something smaller.
    Only a source whose block is used up is asked for the next one.
    """
    live = [[source, None] for source in sources]
    while True:
        for entry in live:
            if not entry[1] or not entry[1][0]:
                entry[1] = next(entry[0], None)
        live = [entry for entry in live if entry[1] is not None]
        if not live:
            return
        pool = [list(chain.from_iterable(columns))
                for columns in zip(*(rest for _, rest in live))]
        ranked = order(pool)
        ends = list(accumulate(len(rest[0]) for _, rest in live))
        last = {end - 1 for end in ends}
        emitted = ranked[:1 + next(
            at for at, row in enumerate(ranked) if row in last)]
        yield [gather(column, emitted) for column in pool]
        emitted.sort()
        for entry, start, end in zip(live, [0] + ends, ends):
            taken = bisect_left(emitted, end) - bisect_left(emitted, start)
            entry[1] = [column[taken:] for column in entry[1]]


def _partition(values: Sequence[Any]) -> int:
    """The spill partition of a group's key *values*: the same in every
    process, and for equal keys — numbers go by ``hash``: ``0.0 == -0.0``
    print apart; a NaN, whose hash is its identity, and anything else is
    printed."""
    return zlib.crc32(repr([
        hash(value) if rank == 2 and value == value else value
        for rank, value in map(sort_key, values)]).encode("utf-8")
    ) % SPILL_PARTITIONS


class PlanNode:
    """Base plan operator."""

    frame: Frame
    estimated_rows: float = 0.0
    #: Rows and batches the last execution produced, and the ``(runs,
    #: bytes)`` it spilled.
    rows_out = 0
    batches_out = 0
    spilled = (0, 0)
    #: The input of a single-input operator.
    child: "PlanNode | None" = None
    #: The operator hands its input's rows on as they are, so its frame
    #: is its input's.
    passes_rows = False
    #: The columnar scan whose row-group views this operator's batches
    #: still carry, if any.
    view_scan: "ColumnarScan | None" = None
    #: A row source's first batch: the planner's batch rule sets it.
    first_batch = MAX_BATCH_ROWS

    def execute(self, parameters: Sequence[Any],
                outer: "RowContext | None" = None) -> Iterator[tuple]:
        """The rows of the plan rooted here, one tuple at a time (batch
        by batch, as it is iterated)."""
        context = RowContext.without_row(parameters, outer)
        return chain.from_iterable(map(Batch.rows, self.run(context)))

    def run(self, context: RowContext) -> Iterator[Batch]:
        """The operator's non-empty batches, counted."""
        self.rows_out, self.batches_out, self.spilled = 0, 0, (0, 0)
        for batch in self.batches(context):
            self.rows_out += batch.size
            self.batches_out += 1
            yield batch

    def batches(self, context: RowContext) -> Iterator[Batch]:
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

    def page_scan(self) -> "ColumnarScan | None":
        """The columnar scan whose stored pages the operator's
        expressions may read in place of decoded columns: its input
        batches are that scan's row groups, filtered at most."""
        return self.child.view_scan if self.child is not None else None

    def bind(self) -> None:
        """Planning's last step, inputs first: settle the frame (the
        planner may have narrowed a scan under operators that had taken
        a copy of its frame) and compile the operator's expressions
        against the frames they will meet."""
        for child in self.children():
            child.bind()
        if self.passes_rows:
            self.frame = self.child.frame
        self.compile()

    def compile(self) -> None:
        pass

    def _close(self, runs: Sequence) -> None:
        """Note what the operator spilled, and give the runs back."""
        self.spilled = (sum(run.bytes > 0 for run in runs),
                        sum(run.bytes for run in runs))
        for run in runs:
            run.close()

    def _compiled(self, expression: "ast.Expression | None",
                  frame: Frame) -> "Column | None":
        if expression is None:
            return None
        return self.evaluator.compile(expression, frame, self.page_scan())

    def explain(self, indent: int = 0, analyze: bool = False) -> str:
        actual = (f"; actual {self.rows_out} rows in {self.batches_out} "
                  f"batches" if analyze else "")
        if analyze and self.spilled[0]:
            actual += "; spilled {} runs, {} bytes".format(*self.spilled)
        lines = [f"{'  ' * indent}{self.label()}  "
                 f"(~{self.estimated_rows:.0f} rows{actual})"]
        lines.extend(child.explain(indent + 1, analyze)
                     for child in self.children())
        return "\n".join(lines)


class TableScan(PlanNode):
    """A scan of a base table and its **read set**: ``columns``, the
    schema positions it materialises — all of them, until the planner's
    last step (:meth:`read_only`) narrows it, and its frame, to those the
    finished plan names: nothing above carries a column not read."""

    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding
        self.read_only(range(len(table.schema.columns)))
        self.estimated_rows = float(len(table))

    def read_only(self, positions) -> None:
        """Narrow the scan (and its frame) to these schema positions."""
        self.columns = sorted(positions)
        names = self.table.schema.column_names
        self.frame = Frame([(self.binding, names[position])
                            for position in self.columns])

    def _label(self, how: str = "", *details: str) -> str:
        """``Scan(table AS binding how; columns …; details…)``: the read
        set is named when it is not the whole row."""
        names = self.table.schema.column_names
        parts = [f"{self.table.name} AS {self.binding}{how}"]
        if len(self.columns) < len(names):
            parts.append("columns " + (", ".join(
                names[position] for position in self.columns) or "none"))
        return f"{type(self).__name__}({'; '.join((*parts, *details))})"


class SeqScan(TableScan):
    """Full scan of a row-layout table."""

    def label(self) -> str:
        return self._label()

    def batches(self, context) -> Iterator[Batch]:
        return table_batches(self.table.rows(), self.columns, self.first_batch)


class _IndexScan(TableScan):
    """What the three index scans share: probe evaluation and fetching
    the live rows behind a list of row ids."""

    #: The statement wrote ``value = column``, not ``column = value``.
    probe_first = False

    def __init__(self, table: Table, binding: str, index: "Index",
                 evaluator: Evaluator) -> None:
        super().__init__(table, binding)
        self.index = index
        self.evaluator = evaluator

    def _probe(self, column: "Column | None", context: RowContext) -> Any:
        """One probe value, type-checked as the comparison it replaces
        would be: a scan compares the probe with every non-NULL stored
        value and so rejects a mistyped one, where a dict or tree lookup
        silently finds nothing (or, for ``1.0 = TRUE``, the wrong thing).
        An empty index and a NULL probe have nothing to compare."""
        if column is None:
            return None
        value = one(column, context)
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

    def _fetch(self, row_ids) -> Iterator[Batch]:
        return table_batches(((row_id, self.table.row(row_id))
                              for row_id in row_ids
                              if self.table.has_row(row_id)), self.columns,
                             self.first_batch)


class IndexEqualScan(_IndexScan):
    """Equality probe through a hash, unique-key or B-tree index."""

    def __init__(self, table: Table, binding: str, index: "Index",
                 key: ast.Expression, evaluator: Evaluator,
                 probe_first: bool = False) -> None:
        super().__init__(table, binding, index, evaluator)
        self.key, self._key = key, self._compiled(key, NO_COLUMNS)
        self.probe_first = probe_first

    def label(self) -> str:
        return self._label(f" USING {self.index.name} "
                           f"ON {self.index.column} = {self.key}")

    def batches(self, context) -> Iterator[Batch]:
        return self._fetch(self.index.search_equal(
            self._probe(self._key, context)))


class IndexRangeScan(_IndexScan):
    """Range scan through a B-tree index."""

    def __init__(self, table: Table, binding: str, index: "Index",
                 evaluator: Evaluator,
                 low: ast.Expression | None = None,
                 high: ast.Expression | None = None,
                 include_low: bool = True, include_high: bool = True,
                 probe_first: bool = False) -> None:
        super().__init__(table, binding, index, evaluator)
        self.probe_first = probe_first
        self.low, self._low = low, self._compiled(low, NO_COLUMNS)
        self.high, self._high = high, self._compiled(high, NO_COLUMNS)
        self.include_low = include_low
        self.include_high = include_high

    def label(self) -> str:
        low = str(self.low) if self.low is not None else "-inf"
        high = str(self.high) if self.high is not None else "+inf"
        return self._label(
            f" USING {self.index.name} ON {self.index.column} "
            f"IN {'[' if self.include_low else '('}{low}, {high}"
            f"{']' if self.include_high else ')'}")

    def batches(self, context) -> Iterator[Batch]:
        low = self._probe(self._low, context)
        high = self._probe(self._high, context)
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
        self._pattern = self._compiled(pattern, NO_COLUMNS)

    def label(self) -> str:
        return self._label(f" USING {self.index.name} PATTERN {self.pattern}")

    def batches(self, context) -> Iterator[Batch]:
        candidates = self.index.search_contains(
            one(self._pattern, context))
        if candidates is None:
            return table_batches(self.table.rows(), self.columns,
                                 self.first_batch)
        return self._fetch(sorted(candidates))


class OneRow(PlanNode):
    """Produces a single empty row (for ``SELECT expr`` without FROM)."""

    def __init__(self) -> None:
        self.frame = Frame(())
        self.estimated_rows = 1.0

    def batches(self, context) -> Iterator[Batch]:
        yield Batch((), 1)


class Filter(PlanNode):
    """Keeps rows whose predicate evaluates to true."""

    passes_rows = True

    def __init__(self, child: PlanNode, predicate: ast.Expression,
                 evaluator: Evaluator) -> None:
        self.child = child
        self.predicate = predicate
        self.evaluator = evaluator
        self.frame = child.frame

    @property
    def view_scan(self):
        return self.child.view_scan

    def label(self) -> str:
        return f"Filter({self.predicate})"

    def expressions(self):
        return (self.predicate,)

    def compile(self) -> None:
        self._test = self._compiled(self.predicate, self.frame)

    def batches(self, context) -> Iterator[Batch]:
        for batch in self.child.run(context):
            keep, _, error = kept(batch, self._test, context)
            if len(keep) == batch.size:
                yield batch
            elif keep:
                yield batch.take(keep)
            if error is not None:
                raise error


class Change(PlanNode):
    """The root of an UPDATE's or DELETE's plan, over the access path to
    the rows its WHERE keeps.  :meth:`row_ids` drains that path **before
    the statement changes any row** — a sub-select over the same table,
    or a key UPDATE moving a row across its own probe value, never meets
    a half-changed table — and sorts, so every access path changes the
    same rows in the same (row-id) order."""

    passes_rows = True

    def __init__(self, verb: str, table: str, child: PlanNode) -> None:
        self.verb, self.table, self.child = verb, table, child
        self.frame, self.estimated_rows = child.frame, child.estimated_rows

    def label(self) -> str:
        return f"{self.verb}({self.table})"

    def batches(self, context) -> Iterator[Batch]:
        return self.child.run(context)

    def row_ids(self, parameters: Sequence[Any]) -> list[int]:
        batches = self.run(RowContext.without_row(parameters))
        return sorted(chain.from_iterable(map(Batch.row_ids, batches)))


#: How a join reaches its right rows: ``rows(handles)`` behind handles,
#: ``matches(keys)`` — per key, the handles of the rows whose key equals
#: it, ``everything()`` — every handle in scan order, ``refuses(key)`` —
#: would ``=`` refuse a key of this kind against some right key?
_Side = namedtuple("_Side", "rows matches everything refuses")


class Join(PlanNode):
    """Inner or left-outer join: a left row followed by a right row (or
    by NULLs), a left row's matches in the right table's row order.

    One body tests a left batch's **candidate pairs**; there are three
    ways to find them.  A **nested loop** pairs every left row with
    every right row and tests the whole ``ON`` condition.  Given *equi*
    — the ``left key = right key`` conjunct the planner split off, and
    the residual — a **hash join** looks a left key up in buckets built
    from the right input (kept, as the nested loop's is, in a run that
    spills past the memory budget) and an **index join** in the equality
    *index* of the right key column: its right input, a bare table
    scan, is never run and nothing is built.  Both test the residual.

    A lookup never compares, so a left key of a kind (:func:`~repro.db.
    values.comparison_kind`) other than the right keys' is one ``=``
    would refuse (or, ``TRUE`` hashing to ``1``, wrongly match): its row
    takes the nested loop, raising or matching exactly what ``compare``
    does.  Kinds are read per batch, off one key of each type.  NULL
    never joins.
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 condition: ast.Expression, evaluator: Evaluator,
                 kind: str = "inner", equi: "tuple | None" = None,
                 runtime: "ColumnarRuntime | None" = None,
                 index: "Index | None" = None) -> None:
        if kind not in ("inner", "left"):
            raise DatabaseError(f"unsupported join kind {kind!r}")
        self.left = left
        self.right = right
        self.condition = condition
        self.evaluator = evaluator
        self.kind = kind
        self.equi = equi
        self.runtime = runtime
        self.index = index
        self.frame = left.frame + right.frame
        self.estimated_rows = max(left.estimated_rows, right.estimated_rows)

    def label(self) -> str:
        if self.equi is None:
            return f"NestedLoopJoin[{self.kind}]({self.condition})"
        left_key, right_key, residual = self.equi
        residual = f" AND {residual}" if residual else ""
        how, using = (("HashJoin", "") if self.index is None
                      else ("IndexJoin", f" USING {self.index.name}"))
        return f"{how}[{self.kind}]({left_key} = {right_key}{residual}{using})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def expressions(self):
        return (self.condition,)

    def bind(self) -> None:
        self.left.bind()
        self.right.bind()
        self.frame = self.left.frame + self.right.frame
        left_key, right_key, residual = self.equi or (None, None, None)
        self._condition = self._compiled(self.condition, self.frame)
        self._left_key = self._compiled(left_key, self.left.frame)
        self._right_key = self._compiled(right_key, self.right.frame)
        self._residual = self._compiled(residual, self.frame)

    def _keys(self, batch: Batch, key: "Column | None",
              context: RowContext) -> tuple:
        """``(an equi-join's keys up to the first failed one, it)``."""
        if key is None:
            return [NULL] * batch.size, None
        _, (keys,), error = settled(batch.size, [key(batch, context)])
        return keys, error

    @staticmethod
    def _samples(keys: Sequence[Any]) -> dict:
        """One non-NULL key of each exact type among *keys*."""
        samples = dict(zip(map(type, keys), keys))
        samples.pop(type(NULL), None)
        return samples

    @staticmethod
    def _hashable(keys: Sequence[Any]) -> Sequence[Any]:
        try:
            hash(tuple(keys))
            return keys
        except TypeError:
            return list(map(hashable, keys))

    def _built(self, build: IndexedRun, context: RowContext) -> _Side:
        """The right input, run into *build*: handles are ordinals."""
        buckets: dict[Any, list[int]] = {}
        kinds: set[type] = set()
        for batch in self.right.run(context):
            keys, error = self._keys(batch, self._right_key, context)
            ordinals = build.extend(list(islice(batch.rows(), len(keys))),
                                    [*batch.columns, keys])  # and buckets
            kinds.update(map(comparison_kind, self._samples(keys).values()))
            for key, ordinal in zip(self._hashable(keys), ordinals):
                if key is not NULL:  # NULL never equi-joins
                    buckets.setdefault(key, []).append(ordinal)
            if error is not None:
                raise error
        return _Side(
            lambda ordinals: map(build.__getitem__, ordinals),
            lambda keys: map(buckets.get, self._hashable(keys), repeat(())),
            lambda: range(len(build)),
            lambda key: bool(kinds - {comparison_kind(key)}))

    def _probed(self) -> _Side:
        """The right table itself, through the index: handles are row
        ids, a row is cut to the right scan's read set."""
        table, index = self.right.table, self.index
        columns = self.right.columns
        sql_type = table.schema.column(index.column).sql_type
        pick = (itemgetter(*columns) if len(columns) > 1 else
                lambda row: tuple(row[position] for position in columns))
        # A bucket is in update order, a scan in row-id order.
        order = tuple if index.unique else sorted
        return _Side(
            lambda row_ids: map(pick, map(table.row, row_ids)),
            lambda keys: map(order, map(index.search_equal, keys)),
            lambda: [row_id for row_id, _ in table.rows()],
            lambda key: len(index) > 0 and not comparable(sql_type, key))

    def batches(self, context) -> Iterator[Batch]:
        build = (self.runtime.spill.indexed_run()
                 if self.runtime is not None else IndexedRun(None))
        null_pad = (NULL,) * len(self.right.frame)
        try:
            right = (self._built(build, context) if self.index is None
                     else self._probed())
            for batch in self.left.run(context):
                keys, error = self._keys(batch, self._left_key, context)
                strangers = {exact for exact, key
                             in self._samples(keys).items()
                             if right.refuses(key)}
                # One sequence of handles per left row; its pairs, left
                # row then right row, at most MAX_BATCH_ROWS at a time.
                if self.equi is None or strangers:
                    test, everything = self._condition, right.everything()
                    found = [everything if self.equi is None
                             or type(key) in strangers else matches
                             for key, matches
                             in zip(keys, right.matches(keys))]
                else:
                    test, found = self._residual, list(right.matches(keys))
                at = (position for position, matches in enumerate(found)
                      for _ in matches)
                # The kept pairs — left position, right row — and the left
                # rows every pair of which was tested.
                lefts, rights, tested, failed = [], [], len(keys), None
                for handles in chunks(chain.from_iterable(found),
                                      MAX_BATCH_ROWS):
                    here = list(islice(at, len(handles)))
                    rows = list(right.rows(handles))
                    if test is not None:
                        keep, size, failed = kept(Batch(
                            [gather(column, here) for column in batch.columns]
                            + list(zip(*rows)), len(here)), test, context)
                        if failed is not None:
                            error, tested = failed, here[size]
                        here = [here[pair] for pair in keep]
                        rows = [rows[pair] for pair in keep]
                    lefts.extend(here)
                    rights.extend(rows)
                    if failed is not None:
                        break  # at the pair one-row-at-a-time would fail on
                lone = (sorted(set(range(tested)).difference(lefts))
                        if self.kind == "left" else ())
                if lone:  # pad the left rows no kept pair names, in place
                    lefts, rights = zip(*sorted(
                        chain(zip(lefts, rights), zip(lone, repeat(null_pad))),
                        key=itemgetter(0)))
                if lefts:
                    yield Batch([gather(column, lefts)
                                 for column in batch.columns]
                                + list(zip(*rights)), len(lefts))
                if error is not None:
                    raise error
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

    def compile(self) -> None:
        self._columns = [self._compiled(expression, self.child.frame)
                         for expression, _ in self.items]

    def batches(self, context) -> Iterator[Batch]:
        for batch in self.child.run(context):
            size, columns, error = settled(
                batch.size,
                [column(batch, context) for column in self._columns])
            if size:
                yield Batch(columns, size)
            if error is not None:
                raise error


#: How one aggregate call folds, chosen when the plan is compiled: the
#: state a group starts from, ``absorb(state, columns, count)`` — a
#: group's next *count* rows, one column of values per argument of the
#: call — and the value a final state stands for.
_Fold = namedtuple("_Fold", "initial absorb final")


def _present(absorb: Callable) -> Callable:
    """A native aggregate of one argument sees its non-NULL values: all
    of a one-kind column's."""
    return lambda state, columns, count: absorb(state, (
        columns[0] if type(columns[0]) is OneKind
        else [value for value in columns[0] if value is not NULL]))


def _running_total(name: str) -> Callable:
    """``(non-NULL count, total)``: ``sum`` starts from ``int`` 0 like
    ``sum()`` and adds in row order, so floats round as they always did."""
    def absorb(state: tuple, values: list) -> tuple:
        count, total = state
        try:
            for value in values:
                total = total + value
        except TypeError:
            raise TypeCheckError(
                f"cannot apply aggregate {name!r} to {value!r}"
            ) from None
        return count + len(values), total
    return absorb


def _best(pick: Callable) -> Callable:
    """``(value, its sort key)`` of the least / greatest value so far;
    the first of equal keys wins, as ``min(values, key=sort_key)`` over
    every value in row order however the rows are batched: a NaN, which
    no comparison prefers, wins only as the very first."""
    def absorb(state: "tuple | None", values: list) -> "tuple | None":
        if not values:
            return state
        keys = (values if type(values) is OneKind  # its own bare keys
                else sort_keys(values, bare=True))
        best = values[keys.index(pick(keys))]
        if state is not None and isinstance(best, float) and best != best:
            # A batch a NaN leads picks it; past a best every NaN loses.
            return absorb(state, [value for value in values if not (
                isinstance(value, float) and value != value)])
        key = sort_key(best)
        if state is None or (key < state[1] if pick is min
                             else key > state[1]):
            return best, key
        return state
    return absorb


_NATIVE_FOLDS = {
    "count": _Fold(int, _present(lambda state, values: state + len(values)),
                   lambda state: state),
    "sum": _Fold(lambda: (0, 0), _present(_running_total("sum")),
                 lambda state: state[1] if state[0] else NULL),
    "avg": _Fold(lambda: (0, 0), _present(_running_total("avg")),
                 lambda state: state[1] / state[0] if state[0] else NULL),
    "min": _Fold(lambda: None, _present(_best(min)),
                 lambda state: NULL if state is None else state[0]),
    "max": _Fold(lambda: None, _present(_best(max)),
                 lambda state: NULL if state is None else state[0]),
}
_COUNT_ROWS = _Fold(int, lambda state, columns, count: state + count,
                    lambda state: state)


def _malformed(message: str) -> _Fold:
    """A call like ``sum(*)``: reported when the first group needs its
    state (so never over an empty grouped input), as it always was."""
    def initial():
        raise SqlSyntaxError(message)
    return _Fold(initial, None, None)


def _custom_fold(aggregate) -> _Fold:
    """A registered (initial/step/final) aggregate, stepped row by row."""
    def absorb(state: Any, columns: list, count: int) -> Any:
        for arguments in (zip(*columns) if columns else [()] * count):
            state = aggregate.step(state, *arguments)
        return state
    return _Fold(aggregate.initial, absorb, aggregate.final)


#: One group: its key values, first-seen input ordinal and the state of
#: every fold (a list, updated in place).
_GroupState = namedtuple("_GroupState", "keys ordinal states")


class Aggregate(PlanNode):
    """Grouping + aggregate evaluation, streaming with group spill.

    Output columns: one slot per group expression (named ``__group_i``)
    followed by one per distinct aggregate call (:func:`slot_names`);
    the optimizer rewrites projection, HAVING and ORDER BY to reference
    them.  Each batch is split by group key and every call folds its
    argument column, a group's share at a time — no per-group row
    lists.  Under a finite ``memory_budget`` each batch's new groups are
    charged to the page cache; from the first refusal on, rows of new
    groups go by a stable hash of their key to on-disk partitions,
    folded in a second pass.
    Output order stays first-seen (groups merge on their first ordinal).
    """

    def __init__(self, child: PlanNode,
                 group_expressions: Sequence[ast.Expression],
                 aggregate_calls: Sequence[ast.FunctionCall],
                 evaluator: Evaluator, database,
                 runtime: "ColumnarRuntime | None" = None) -> None:
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

    def page_scan(self):
        # Spilled rows are re-read without their row group: only an
        # aggregation that cannot spill (one group) reads pages.
        return None if self.group_expressions else self.child.view_scan

    def _fold(self, call: ast.FunctionCall) -> _Fold:
        name = call.name.lower()
        if name not in NATIVE_AGGREGATES:
            return _custom_fold(self.database.catalog.aggregate(name))
        if call.star:
            return (_COUNT_ROWS if name == "count"
                    else _malformed(f"{name}(*) is not defined"))
        if len(call.args) != 1:
            return _malformed(f"aggregate {name!r} takes exactly one argument")
        return _NATIVE_FOLDS[name]

    def compile(self) -> None:
        frame = self.child.frame
        self._keys = [self._compiled(expression, frame)
                      for expression in self.group_expressions]
        self._arguments = [[self._compiled(argument, frame)
                            for argument in call.args]
                           for call in self.aggregate_calls]
        self._folds = [self._fold(call) for call in self.aggregate_calls]

    def _new_states(self) -> list:
        return [fold.initial() for fold in self._folds]

    def batches(self, context) -> Iterator[Batch]:
        spill = self.runtime.spill if self.runtime is not None else None
        # (A global aggregation's one group is never charged or spilled.)
        cache = spill.cache if spill is not None and self._keys else None
        partitions: "list | None" = None
        results: list[_GroupState] = []
        # The child's batches fold first, charging for new groups; rows of
        # groups refused go to on-disk partitions, which join this list and
        # fold, uncharged, through the same loop.
        charged = 0
        sources: list = [self._numbered(self.child.run(context))]
        try:
            for source in sources:
                groups: dict[tuple, _GroupState] = {}
                for batch, ordinals in source:
                    size, columns, error = settled(batch.size, [
                        column(batch, context)
                        for column in chain(self._keys, *self._arguments)])
                    keys = columns[:len(self._keys)]
                    routed: dict[int, list] = {}  # partition -> its rows
                    # group key -> its rows in this batch (None: all)
                    if keys:  # each row onto its group's list, in C
                        members: dict = defaultdict(list)
                        deque(map(list.append, map(members.__getitem__,
                                                   _bucket_keys(keys)),
                                  count()), maxlen=0)
                    else:
                        members = {(): None} if size else {}
                    if cache and not partitions:  # key cells, a cell a fold
                        new = len(members.keys() - groups.keys())
                        need = 8 * new * (len(keys) + len(self._folds))
                        if not new or cache.charge(need):
                            charged += need
                        else:
                            partitions = [spill.disk_run()
                                          for _ in range(SPILL_PARTITIONS)]
                            sources.extend(map(self._reread, partitions))
                    for key, rows in members.items():
                        state = groups.get(key)
                        if state is None:
                            if cache and partitions:
                                routed.setdefault(_partition(
                                    [column[rows[0]] for column in keys]),
                                    []).extend(rows)
                                continue
                            first = rows[0] if rows else 0
                            state = groups[key] = _GroupState(
                                [column[first] for column in keys],
                                ordinals[first], self._new_states())
                        self._absorb(state, columns[len(keys):], rows, size)
                    for partition, rows in routed.items():
                        partitions[partition].extend([
                            gather(column, rows)
                            for column in (ordinals, *batch.columns)])
                    if error is not None:
                        raise error
                results.extend(groups.values())
                cache = None  # a partition holds whole groups: no re-spill

            if partitions is not None:
                self._close(partitions)
                # First-seen group order across the memory/disk split.
                results.sort(key=lambda state: state.ordinal)

            if not results and not self.group_expressions:
                # Global aggregate over an empty input still yields one row.
                results = [_GroupState([], 0, self._new_states())]

            # Every budget folds each group alike: the first that failed
            # (in first-seen order) raises.
            for failed in (value for state in results for value
                           in state.states if type(value) is KernelError):
                raise failed.error
            if results:
                yield Batch.of_rows([
                    tuple(state.keys) + tuple(
                        fold.final(value)
                        for fold, value in zip(self._folds, state.states))
                    for state in results])
        finally:
            if charged:
                spill.cache.release(charged)

    @staticmethod
    def _numbered(batches: Iterable[Batch]) -> Iterator[tuple[Batch, range]]:
        """Each input batch with the input ordinals of its rows."""
        start = 0
        for batch in batches:
            yield batch, range(start, start + batch.size)
            start += batch.size

    @staticmethod
    def _reread(run) -> Iterator[tuple[Batch, list]]:
        """A spilled partition's blocks: input ordinals, then the rows."""
        for ordinals, *columns in run.blocks():
            yield Batch(columns, len(ordinals)), ordinals

    def _absorb(self, state: _GroupState, columns: list,
                rows: "list | None", size: int) -> None:
        """Fold one batch's share of a group — its *rows*, or all *size*
        of them — into *state*, call by call.  A fold that fails keeps
        what it raised as its state, and folds no more."""
        position = 0
        for index, arguments in enumerate(self._arguments):
            share = columns[position:position + len(arguments)]
            position += len(arguments)
            if rows is not None:
                share = [gather(column, rows) for column in share]
            if type(state.states[index]) is not KernelError:
                try:
                    state.states[index] = self._folds[index].absorb(
                        state.states[index], share,
                        size if rows is None else len(rows))
                except Exception as exc:
                    state.states[index] = KernelError(exc)


class Distinct(PlanNode):
    """Removes duplicate rows (by value identity)."""

    passes_rows = True

    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.frame = child.frame
        self.estimated_rows = child.estimated_rows

    def batches(self, context) -> Iterator[Batch]:
        seen: set = set()
        for batch in self.child.run(context):
            first: dict = {}  # row key -> its first row in this batch
            deque(map(first.setdefault, _bucket_keys(batch.columns),
                      count()), maxlen=0)
            keep = list(map(first.__getitem__,
                            filterfalse(seen.__contains__, first)))
            seen.update(first)
            if keep:
                yield batch.take(keep)


class Sort(PlanNode):
    """External-merge sort on arbitrary expressions, mixed ASC/DESC.

    Key columns are built once, per input batch (a kernel call reads
    the row group's page), and travel beside the rows.  A chunk is
    ordered by one stable ``list.sort`` per key, last key first,
    ``reverse=True`` for DESC (:meth:`_order`): every comparison is C's,
    ties stay in input order.  Without a memory budget the input is one
    chunk; with one, each batch is charged to the page cache, and when a
    charge is refused the chunk held flushes, before that batch, as a
    sorted run of column blocks (a batch refused with nothing held is a
    run alone); :func:`merged` recombines the runs under the same order,
    holding a block per run.

    Under a ``LIMIT`` only *top* rows are wanted: an order is cut to them
    before a column is gathered; a chunk that fills (unbudgeted: at
    ``max(2 * top, MAX_BATCH_ROWS)`` rows) is pruned to them (in input
    order: ties fall as they would have), flushed if half full still.
    """

    passes_rows = True

    def __init__(self, child: PlanNode, items: Sequence[ast.OrderItem],
                 evaluator: Evaluator,
                 runtime: "ColumnarRuntime | None" = None,
                 top: "int | None" = None) -> None:
        self.child = child
        self.items = list(items)
        self.evaluator = evaluator
        self.runtime = runtime
        self.top = top
        self.frame = child.frame
        self.estimated_rows = (child.estimated_rows if top is None
                               else min(top, child.estimated_rows))

    def label(self) -> str:
        inner = ", ".join(
            f"{item.expression} {'ASC' if item.ascending else 'DESC'}"
            for item in self.items
        )
        top = "" if self.top is None else f"; top {self.top}"
        return f"Sort({inner}{top})"

    def expressions(self):
        return [item.expression for item in self.items]

    def compile(self) -> None:
        #: The computed key columns, and where each item's key sits among
        #: the frame's columns and them: a frame column is not carried twice.
        self._keys, self._at = [], []
        for item in self.items:
            key = item.expression
            found = (self.frame.positions(key.table, key.column)
                     if isinstance(key, ast.ColumnRef) else ())
            if len(found) != 1:
                found = [len(self.frame) + len(self._keys)]
                self._keys.append(self._compiled(key, self.frame))
            self._at.append(found[0])

    def _order(self, columns: list, top: "int | None" = None) -> list[int]:
        """The row positions of *columns* — the frame's, then the
        computed keys — in sort order, the first *top* of them."""
        order = list(range(len(columns[-1])))
        for item, at in zip(reversed(self.items), reversed(self._at)):
            order.sort(key=sort_keys(columns[at], bare=True).__getitem__,
                       reverse=not item.ascending)
        return order[:top]

    def _chunk(self, held: list, left: "int | None", runs: list, spill,
               limit: int) -> list:
        """Cut the chunk *held* to its first *left* rows (in input order)
        if that frees half of *limit* rows, else flush it as a sorted run
        (or a chunk is re-sorted for every few rows that arrive); returns
        what is held on."""
        order = self._order(held, left)
        if 2 * len(order) > limit:
            runs.append(spill.disk_run())
            runs[-1].extend([gather(column, order) for column in held])
            order = []
        order.sort()  # what is held on is in input order
        return [gather(column, order) for column in held]

    def batches(self, context) -> Iterator[Batch]:
        spill = self.runtime.spill if self.runtime is not None else None
        cache = spill.cache if spill is not None else None
        left, width = self.top, len(self.frame)
        full = (max(2 * left, MAX_BATCH_ROWS)  # prunes, never flushes
                if cache is None and left is not None else None)
        held: list = [[] for _ in range(width + len(self._keys))]
        runs: list = []
        charged = 0
        try:
            for batch in self.child.run(context):
                _, keys, error = settled(
                    batch.size, [key(batch, context) for key in self._keys])
                if error is not None:
                    raise error
                more = [*batch.columns, *keys]
                need = footprint(more) if cache else 0
                while cache and not cache.charge(need):
                    if not held[-1]:  # refused, nothing held: a run alone
                        self._chunk(more, left, runs, spill, 0)
                        break
                    # refused: the chunk is cut before this batch
                    held = self._chunk(held, left, runs, spill, len(held[-1]))
                    kept = footprint(held)
                    cache.release(charged - kept)
                    charged = kept
                else:
                    charged += need
                    for column, cells in zip(held, more):
                        column.extend(cells)
                    if full is not None and len(held[-1]) >= full:
                        held = self._chunk(held, left, runs, spill, full)
            order = self._order(held, left)
            if runs:  # the last, short chunk is merged from memory
                blocks = merged([run.blocks() for run in runs] + [
                    cut([gather(column, order) for column in held],
                        spill.block_rows)], self._order)
            else:
                blocks = ([gather(column, rows) for column in held]
                          for rows in chunks(order, self.first_batch))
            for columns in blocks:
                size = len(columns[-1])
                if left is not None:
                    if left < size:
                        size = left
                        columns = [column[:size] for column in columns]
                    left -= size
                yield Batch(columns[:width], size)
                if left == 0:
                    return
        finally:
            self._close(runs)
            if charged:
                cache.release(charged)


class Limit(PlanNode):
    """LIMIT/OFFSET: stops pulling input at the last row it returns."""

    passes_rows = True

    def __init__(self, child: PlanNode, limit: int | None,
                 offset: int | None) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.frame = child.frame
        rows = max(0.0, child.estimated_rows - self.offset)
        self.estimated_rows = rows if limit is None else min(limit, rows)

    def label(self) -> str:
        return f"Limit({self.limit} OFFSET {self.offset})"

    def batches(self, context) -> Iterator[Batch]:
        skip, wanted = self.offset, self.limit
        if wanted == 0:
            return
        for batch in self.child.run(context):
            if skip >= batch.size:
                skip -= batch.size
                continue
            stop = (batch.size if wanted is None
                    else min(batch.size, skip + wanted))
            if skip or stop < batch.size:
                batch = batch.take(range(skip, stop))
            skip = 0
            yield batch
            if wanted is not None:
                wanted -= batch.size
                if wanted == 0:
                    return


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


class ColumnarScan(TableScan):
    """Scan of a column-layout table: one batch per live row group — the
    decoded column pages themselves where no row of the group is dead —
    holding the rows ``SeqScan`` would emit, in the same order.

    - ``bounds`` — WHERE comparisons ``(position, low, include_low,
      high, include_high)`` checked against each row group's zone maps;
      excluded groups are skipped unread.  The Filter above re-checks
      every conjunct, so pruning only has to be conservative.
    - ``kernels`` — the calls that operators reading this scan's batches
      compiled to read a column's page as stored (:meth:`Evaluator.
      kernel_position`), whether or not the column is in the read set.
    """

    def __init__(self, table: Table, binding: str,
                 evaluator: Evaluator) -> None:
        super().__init__(table, binding)
        self.evaluator = evaluator
        self.bounds: list = []
        #: what identifies a page-kernel call -> its EXPLAIN label
        self.kernels: dict[tuple, str] = {}

    @property
    def view_scan(self):
        return self

    def note_kernel(self, key: tuple, label: str) -> None:
        """An operator above compiled the call *key* as a page kernel."""
        if key not in self.kernels:
            self.kernels[key] = _unique_name(label,
                                             list(self.kernels.values()))

    def label(self) -> str:
        details = []
        if self.bounds:
            details.append(f"zones on {len(self.bounds)} bound(s)")
        if self.kernels:
            details.append("kernels " + ", ".join(self.kernels.values()))
        return self._label("", *details)

    def compile(self) -> None:
        self.kernels.clear()  # the operators above re-note theirs
        self._bounds = [
            (position, self._compiled(low, NO_COLUMNS), include_low,
             self._compiled(high, NO_COLUMNS), include_high)
            for position, low, include_low, high, include_high in self.bounds
        ]

    def batches(self, context) -> Iterator[Batch]:
        store = self.table.column_store
        if len(store) == 0:
            return
        bounds = [
            (position, low and one(low, context), include_low,
             high and one(high, context), include_high)
            for position, low, include_low, high, include_high
            in self._bounds
        ]
        reading = len({*self.columns,
                       *(position for _, position, _ in self.kernels)})
        for view in store.scan(bounds or None, reading):
            columns = [view.column_values(position)
                       for position in self.columns]
            if None not in view.row_ids:
                yield Batch(columns, len(view.row_ids), view)
                continue
            live = [offset for offset, row_id in enumerate(view.row_ids)
                    if row_id is not None]
            if live:
                yield Batch(columns, len(view.row_ids), view).take(live)
