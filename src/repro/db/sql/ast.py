"""Abstract syntax trees for the engine's SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression:
    """Base class of all expression nodes.

    Nodes are values: ``==`` and ``hash`` are structural, so two parses
    of the same expression are equal and ``?`` placeholders differ by
    index.  (A node holding a ``Select`` compares but does not hash.)
    """


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    value: Any

    # Compared by (type, value): Python's 1 == True == 1.0 would
    # otherwise make ``sum(id + 1)`` and ``sum(id + 1.0)`` one aggregate.
    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, Literal)
                and type(self.value) is type(other.value)
                and self.value == other.value)

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` placeholder (0-based index)."""

    index: int

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Unary(Expression):
    operator: str  # '-' or 'NOT'
    operand: Expression

    def __str__(self) -> str:
        if self.operator == "NOT":
            return f"NOT ({self.operand})"
        return f"{self.operator}({self.operand})"


@dataclass(frozen=True)
class Binary(Expression):
    operator: str  # + - * / % = != <> < <= > >= AND OR LIKE
    left: Expression
    right: Expression

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def __str__(self) -> str:
        tail = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {tail})"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} {maybe_not}BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {maybe_not}IN ({inner}))"


@dataclass(frozen=True)
class InSelect(Expression):
    operand: Expression
    select: "Select"
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} {maybe_not}IN (<subquery>))"


@dataclass(frozen=True)
class Exists(Expression):
    select: "Select"
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({maybe_not}EXISTS (<subquery>))"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar UDF or aggregate call; ``star`` marks ``count(*)``."""

    name: str
    args: tuple[Expression, ...]
    star: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class of all statement nodes."""

    parameter_count = 0  # the ``?`` placeholders its text holds


@dataclass
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    default: Literal | None = None


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[ColumnDef]
    if_not_exists: bool = False


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    column: str
    using: str = "btree"
    parameters: dict[str, int] = field(default_factory=dict)
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass
class DropIndex(Statement):
    name: str
    table: str
    if_exists: bool = False


@dataclass
class Analyze(Statement):
    """``ANALYZE t`` — collect per-column distinct counts for planning."""

    table: str


@dataclass
class Insert(Statement):
    table: str
    columns: list[str] | None
    rows: list[list[Expression]]


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expression]]
    where: Expression | None = None


@dataclass
class Delete(Statement):
    table: str
    where: Expression | None = None


@dataclass
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name rows of this table are visible under."""
        return self.alias or self.name


@dataclass
class Join:
    table: TableRef
    condition: Expression
    kind: str = "inner"  # 'inner' or 'left'


@dataclass
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass
class SelectItem:
    """One projection: an expression with an optional alias, or ``*``."""

    expression: Expression | None  # None means '*'
    alias: str | None = None

    @property
    def is_star(self) -> bool:
        return self.expression is None


@dataclass
class Select(Statement):
    items: list[SelectItem]
    source: TableRef | None = None
    joins: list[Join] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# The fold: the one place that knows which children a node has
# ---------------------------------------------------------------------------

#: Every expression node type (all are direct subclasses).
EXPRESSION_TYPES = tuple(Expression.__subclasses__())

#: Per node type, its child-holding fields as ``(name, holds a tuple)``,
#: read off the annotations.  A ``Select`` field is a scope of its own
#: and not a child.
_CHILD_FIELDS = {
    node_type: tuple(
        (spec.name, spec.type != "Expression") for spec in fields(node_type)
        if spec.type in ("Expression", "tuple[Expression, ...]")
    )
    for node_type in EXPRESSION_TYPES
}


def children(expression: Expression) -> list[Expression]:
    """The direct sub-expressions of a node, in source order."""
    found: list[Expression] = []
    for name, many in _CHILD_FIELDS[type(expression)]:
        value = getattr(expression, name)
        found.extend(value if many else (value,))
    return found


def walk_expression(expression: Expression):
    """Yield every node of an expression tree, pre-order."""
    yield expression
    for child in children(expression):
        yield from walk_expression(child)


def fold_expression(fn, expression: Expression) -> Any:
    """Compute a result for an expression tree bottom-up:
    ``fn(node, results)`` sees a node and the results of its
    :func:`children`, in their order."""
    return fn(expression, [fold_expression(fn, child)
                           for child in children(expression)])


def map_expression(fn, expression: Expression) -> Expression:
    """Rewrite an expression tree bottom-up.

    Every node is first rebuilt from its rewritten children, then
    ``fn(node, rebuilt)`` — the node as written and that rebuilt copy —
    returns what stands in its place: ``rebuilt`` to keep it, anything
    else to replace it (a replacement is not descended into again).
    """
    changed = {}
    for name, many in _CHILD_FIELDS[type(expression)]:
        old = getattr(expression, name)
        new = (tuple(map_expression(fn, child) for child in old) if many
               else map_expression(fn, old))
        if new != old:
            changed[name] = new
    return fn(expression,
              replace(expression, **changed) if changed else expression)
