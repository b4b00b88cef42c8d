"""Built-in scalar functions registered into every new database."""

from __future__ import annotations

import math
from typing import Any

from repro.db.catalog import Catalog
from repro.db.values import NULL
from repro.errors import TypeCheckError


def null_safe(function):
    """Wrap a function so any NULL argument yields NULL: what the engine
    registers its builtins through."""
    def wrapper(*arguments: Any) -> Any:
        for argument in arguments:  # runs per cell: no generator
            if argument is NULL:
                return NULL
        return function(*arguments)
    return wrapper


def _sql_length(value: Any) -> int:
    try:
        return len(value)
    except TypeError:
        raise TypeCheckError(f"length() not defined for {value!r}") from None


def _sql_substr(value: str, start: int, count: int | None = None) -> str:
    if not isinstance(value, str):
        raise TypeCheckError("substr() requires text")
    begin = max(0, start - 1)  # SQL substr is 1-based
    if count is None:
        return value[begin:]
    return value[begin:begin + count]


def _coalesce(*arguments: Any) -> Any:
    for argument in arguments:
        if argument is not NULL:
            return argument
    return NULL


def _nullif(first: Any, second: Any) -> Any:
    if first is NULL or second is NULL:
        return first
    return NULL if first == second else first


def _round(value: float, digits: int = 0) -> float:
    return round(value, digits)


def register_builtin_functions(catalog: Catalog) -> None:
    """Install the standard scalar library into *catalog*."""
    register = catalog.register_function
    register("lower", null_safe(lambda s: s.lower()),
             description="lower-case text")
    register("upper", null_safe(lambda s: s.upper()),
             description="upper-case text")
    register("length", null_safe(_sql_length),
             description="length of text/blob/sequence",
             kernel="length")
    register("substr", null_safe(_sql_substr),
             description="1-based substring")
    register("trim", null_safe(lambda s: s.strip()),
             description="strip surrounding whitespace")
    register("replace", null_safe(lambda s, old, new: s.replace(old, new)),
             description="replace substring")
    register("abs", null_safe(abs), description="absolute value")
    register("round", null_safe(_round), description="round to digits")
    register("floor", null_safe(lambda x: math.floor(x)),
             description="round down")
    register("ceil", null_safe(lambda x: math.ceil(x)),
             description="round up")
    register("sqrt", null_safe(math.sqrt), description="square root")
    register("mod", null_safe(lambda a, b: a % b), description="modulo")
    register("coalesce", _coalesce,
             description="first non-NULL argument")
    register("nullif", _nullif,
             description="NULL when both arguments are equal")
    register("typeof", lambda v: "null" if v is NULL else type(v).__name__,
             description="Python type name of a value")
