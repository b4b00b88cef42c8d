"""BiQL: the biological query language (parse → translate → run)."""

from repro.lang.biql.parser import BiqlQuery, Condition, parse_biql
from repro.lang.biql.session import BiqlSession
from repro.lang.biql.translator import ENTITIES, translate

__all__ = [
    "BiqlQuery",
    "Condition",
    "parse_biql",
    "translate",
    "ENTITIES",
    "BiqlSession",
]
