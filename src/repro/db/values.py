"""SQL value model: types, NULL, and three-valued logic.

The engine stores plain Python objects in rows; this module defines the
SQL-visible type system used to validate and coerce them, including the
**opaque user-defined types** of section 6.2 — types whose "internal and
mostly complex structure is unknown to the DBMS".  An
:class:`OpaqueType` only gives the engine three capabilities: a membership
test, a serializer and a deserializer.  Everything else about a UDT value
(its operations) enters the engine as user-defined functions.

``NULL`` is a singleton distinct from Python ``None`` in intent (it *is*
``None`` at the storage level, but comparisons and boolean connectives go
through the three-valued-logic helpers here, never through Python's).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Sequence

from repro.errors import TypeCheckError

#: SQL NULL at the storage level.
NULL = None

#: The "unknown" truth value of three-valued logic.
UNKNOWN = None


class SqlType:
    """Base class of all SQL-visible types."""

    name: str = "ANY"

    def contains(self, value: Any) -> bool:
        """Membership test (NULL is always acceptable; checked separately)."""
        raise NotImplementedError

    def coerce(self, value: Any) -> Any:
        """Convert *value* into the type, or raise :class:`TypeCheckError`."""
        if value is NULL or self.contains(value):
            return value
        raise TypeCheckError(
            f"value {value!r} is not a {self.name}"
        )

    def __repr__(self) -> str:
        return f"SqlType({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SqlType) and self.name == other.name


class IntegerType(SqlType):
    name = "INTEGER"

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def coerce(self, value: Any) -> Any:
        if value is NULL:
            return NULL
        if isinstance(value, bool):
            raise TypeCheckError("BOOLEAN is not an INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeCheckError(f"value {value!r} is not an INTEGER")


class RealType(SqlType):
    name = "REAL"

    def contains(self, value: Any) -> bool:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))

    def coerce(self, value: Any) -> Any:
        if value is NULL:
            return NULL
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeCheckError(f"value {value!r} is not a REAL")
        return float(value)


class TextType(SqlType):
    name = "TEXT"

    def contains(self, value: Any) -> bool:
        return isinstance(value, str)


class BooleanType(SqlType):
    name = "BOOLEAN"

    def contains(self, value: Any) -> bool:
        return isinstance(value, bool)


class BytesType(SqlType):
    name = "BLOB"

    def contains(self, value: Any) -> bool:
        return isinstance(value, (bytes, bytearray))

    def coerce(self, value: Any) -> Any:
        if value is NULL:
            return NULL
        if isinstance(value, bytearray):
            return bytes(value)
        if isinstance(value, bytes):
            return value
        raise TypeCheckError(f"value {value!r} is not a BLOB")


class OpaqueType(SqlType):
    """A user-defined type the engine treats as a black box (section 6.2).

    Parameters
    ----------
    name:
        The SQL-level type name (``DNA``, ``PROTEIN``, ``GENE`` ...).
    python_type:
        The in-memory class (or tuple of classes) of values.
    serialize / deserialize:
        Compact byte-level round-trip, used by persistence and the WAL.
        The engine never interprets the bytes.
    """

    def __init__(
        self,
        name: str,
        python_type: "type | tuple[type, ...]",
        serialize: Callable[[Any], bytes],
        deserialize: Callable[[bytes], Any],
    ) -> None:
        self.name = name.upper()
        self.python_type = python_type
        self.serialize = serialize
        self.deserialize = deserialize

    def contains(self, value: Any) -> bool:
        return isinstance(value, self.python_type)

    def __repr__(self) -> str:
        return f"OpaqueType({self.name})"


INTEGER = IntegerType()
REAL = RealType()
TEXT = TextType()
BOOLEAN = BooleanType()
BLOB = BytesType()

_BUILTIN_TYPES = {
    "INTEGER": INTEGER, "INT": INTEGER, "BIGINT": INTEGER,
    "REAL": REAL, "FLOAT": REAL, "DOUBLE": REAL,
    "TEXT": TEXT, "STRING": TEXT, "VARCHAR": TEXT, "CHAR": TEXT,
    "BOOLEAN": BOOLEAN, "BOOL": BOOLEAN,
    "BLOB": BLOB, "BYTES": BLOB,
}


def builtin_type(name: str) -> SqlType | None:
    """Resolve a built-in type name (case-insensitive), else ``None``."""
    return _BUILTIN_TYPES.get(name.upper())


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------

def and3(left: "bool | None", right: "bool | None") -> "bool | None":
    """SQL AND: false dominates, unknown propagates."""
    if left is False or right is False:
        return False
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    return True


def or3(left: "bool | None", right: "bool | None") -> "bool | None":
    """SQL OR: true dominates, unknown propagates."""
    if left is True or right is True:
        return True
    if left is UNKNOWN or right is UNKNOWN:
        return UNKNOWN
    return False


def not3(value: "bool | None") -> "bool | None":
    """SQL NOT: unknown stays unknown."""
    if value is UNKNOWN:
        return UNKNOWN
    return not value


def compare(operator: str, left: Any, right: Any) -> "bool | None":
    """SQL comparison with NULL propagation.

    Any comparison involving NULL yields unknown.  Mixed int/float
    compares numerically; everything else requires matching types.
    """
    if left is NULL or right is NULL:
        return UNKNOWN
    numeric = (int, float)
    if isinstance(left, bool) != isinstance(right, bool):
        raise TypeCheckError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}"
        )
    if not (isinstance(left, numeric) and isinstance(right, numeric)):
        if type(left) is not type(right):
            raise TypeCheckError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}"
            )
    if operator == "=":
        return left == right
    if operator in ("!=", "<>"):
        return left != right
    try:
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        if operator == ">=":
            return left >= right
    except TypeError as exc:
        raise TypeCheckError(str(exc)) from exc
    raise TypeCheckError(f"unknown comparison operator {operator!r}")


def comparison_kind(value: Any) -> type:
    """The class of non-NULL values :func:`compare` accepts *value*
    against: ``bool``, number (``float`` stands for both) or its exact
    type.  Two values compare without a ``TypeCheckError`` exactly when
    their kinds are the same — what a hash join asks before it trusts a
    bucket lookup, which never compares."""
    if isinstance(value, bool):
        return bool
    if isinstance(value, (int, float)):
        return float
    return type(value)


def comparable(sql_type: SqlType, value: Any) -> bool:
    """Would :func:`compare` accept non-NULL *value* against the
    non-NULL values of a *sql_type* column?

    Numeric columns take ``int``/``float`` (never ``bool``), every
    other column only values of its own type.  Index scans ask this
    before looking a probe up, because a lookup never compares.
    """
    if isinstance(sql_type, (IntegerType, RealType)):
        return REAL.contains(value)
    return sql_type.contains(value)


def sort_key(value: Any) -> tuple:
    """A total-order key across NULLs and mixed values (NULLs first)."""
    if value is NULL:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, bytes):
        return (4, value)
    return (5, repr(value))


#: ``sort_key``'s rank of a value by exact type, where the type alone
#: decides it (a subclass, NULL or an opaque value goes through
#: :func:`sort_key`).
_RANK_OF_TYPE = {bool: 1, int: 2, float: 2, str: 3, bytes: 4}


def sort_keys(column: Sequence[Any], bare: bool = False) -> Sequence[Any]:
    """``sort_key`` of every value of *column*, at C speed when all of
    them share one rank (no NULL among them).

    With *bare*, such a column is returned as it is: within one rank
    the values order exactly as their keys do, and a sort compares
    floats faster than tuples.  Keys that must agree across columns or
    batches (grouping, merging sorted runs) are never taken bare.
    """
    ranks = {_RANK_OF_TYPE.get(kind) for kind in set(map(type, column))}
    if len(ranks) == 1 and None not in ranks:
        return column if bare else list(zip(repeat(ranks.pop()), column))
    return list(map(sort_key, column))
