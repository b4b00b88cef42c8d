"""The system catalog: tables, indexes, UDTs, UDFs and aggregates.

This is the registration surface of the "extensible DBMS" the paper
requires (section 6.2): user-defined opaque types enter through
:meth:`Catalog.register_type`, user-defined functions — usable anywhere an
expression may occur, per section 6.3 — through
:meth:`Catalog.register_function`, and user-defined index structures
through the table's index attachment, driven by ``CREATE INDEX``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.db.values import OpaqueType, SqlType, builtin_type
from repro.errors import CatalogError


@dataclass
class SqlFunction:
    """A scalar user-defined function callable from SQL expressions.

    ``selectivity`` estimates, for boolean functions used as predicates,
    the fraction of rows they keep — the genomic-predicate selectivity
    hook of section 6.5 the optimizer consults.  ``None`` means "returns
    a value, not a predicate" or "unknown" (the optimizer uses a default).

    ``kernel`` names a vectorized page kernel (see
    :mod:`repro.db.columnar.vector`) whose semantics this function is
    known to match.  Only explicitly tagged registrations are ever
    vectorized — a user function that merely reuses a builtin's name
    keeps row-at-a-time evaluation.
    """

    name: str
    function: Callable[..., Any]
    selectivity: float | None = None
    description: str = ""
    kernel: str | None = None

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        if self.selectivity is not None and not 0.0 <= self.selectivity <= 1.0:
            raise CatalogError("selectivity must be in [0, 1]")


@dataclass
class SqlAggregate:
    """An aggregate: initial state, per-row step, final projection."""

    name: str
    initial: Callable[[], Any]
    step: Callable[[Any, Any], Any]
    final: Callable[[Any], Any]

    def __post_init__(self) -> None:
        self.name = self.name.lower()


class Catalog:
    """All schema objects of one database."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._types: dict[str, OpaqueType] = {}
        self._functions: dict[str, SqlFunction] = {}
        self._aggregates: dict[str, SqlAggregate] = {}
        # value class -> OpaqueType (or None), so hot serialization paths
        # don't scan every registered UDT per cell.
        self._opaque_by_class: dict[type, OpaqueType | None] = {}
        #: Moves whenever something a query plan was built from changes:
        #: a table created or dropped, an index attached or detached
        #: (however it was attached), ANALYZE, a type, function or
        #: aggregate registered.  Cached plans compare against it.
        self.version = 0

    def _bump_version(self) -> None:
        self.version += 1

    # -- tables -----------------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     table: "Table | None" = None) -> Table:
        """Register a table; *table* lets the database pick the heap layout."""
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        if table is None:
            table = Table(schema)
        self._tables[schema.name] = table
        table.on_plan_change = self._bump_version
        self._bump_version()
        return table

    def drop_table(self, name: str) -> None:
        try:
            del self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None
        self._bump_version()

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    # -- types ------------------------------------------------------------------

    def register_type(self, opaque: OpaqueType) -> None:
        if builtin_type(opaque.name) is not None:
            raise CatalogError(
                f"{opaque.name!r} clashes with a built-in type"
            )
        if opaque.name in self._types:
            raise CatalogError(f"type {opaque.name!r} already registered")
        self._types[opaque.name] = opaque
        self._opaque_by_class.clear()
        self._bump_version()

    def resolve_type(self, name: str) -> SqlType:
        """Look up a type name: built-ins first, then registered UDTs."""
        built_in = builtin_type(name)
        if built_in is not None:
            return built_in
        try:
            return self._types[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown type {name!r}") from None

    def opaque_type(self, name: str) -> OpaqueType:
        try:
            return self._types[name.upper()]
        except KeyError:
            raise CatalogError(f"unknown opaque type {name!r}") from None

    def opaque_type_for(self, value: Any) -> OpaqueType | None:
        """The registered UDT containing *value*, or ``None`` — memoised
        per value class (registration order breaks ties, as before)."""
        klass = type(value)
        try:
            return self._opaque_by_class[klass]
        except KeyError:
            pass
        found = None
        for opaque in self._types.values():
            if opaque.contains(value):
                found = opaque
                break
        self._opaque_by_class[klass] = found
        return found

    @property
    def type_names(self) -> tuple[str, ...]:
        return tuple(self._types)

    # -- functions ----------------------------------------------------------------

    def register_function(
        self,
        name: str,
        function: Callable[..., Any],
        selectivity: float | None = None,
        description: str = "",
        replace: bool = False,
        kernel: str | None = None,
    ) -> None:
        """Register a scalar UDF (section 6.3)."""
        descriptor = SqlFunction(name, function, selectivity, description,
                                 kernel)
        if descriptor.name in self._functions and not replace:
            raise CatalogError(
                f"function {descriptor.name!r} already registered"
            )
        self._functions[descriptor.name] = descriptor
        self._bump_version()

    def function(self, name: str) -> SqlFunction:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown function {name!r}") from None

    def has_function(self, name: str) -> bool:
        return name.lower() in self._functions

    @property
    def function_names(self) -> tuple[str, ...]:
        return tuple(self._functions)

    # -- aggregates -----------------------------------------------------------------

    def register_aggregate(self, aggregate: SqlAggregate,
                           replace: bool = False) -> None:
        if aggregate.name in self._aggregates and not replace:
            raise CatalogError(
                f"aggregate {aggregate.name!r} already registered"
            )
        self._aggregates[aggregate.name] = aggregate
        self._bump_version()

    def aggregate(self, name: str) -> SqlAggregate:
        try:
            return self._aggregates[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown aggregate {name!r}") from None

    def has_aggregate(self, name: str) -> bool:
        return name.lower() in self._aggregates
