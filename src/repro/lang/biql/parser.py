"""BiQL: the biological query language of section 6.4.

"Biologists frequently dislike SQL … the issue is here to design such a
biological query language based on the biologists' needs.  A query
formulated in this query language will then be mapped to the extended
SQL of the Unifying Database."

BiQL reads like a lab notebook line::

    FIND genes WHERE organism IS 'Escherichia coli'
                 AND sequence CONTAINS 'TATAAT'
                 AND length > 500
    SHOW accession, name, gc
    SORT BY gc DESC
    LIMIT 10
    AS TABLE

Grammar (keywords case-insensitive)::

    query     := verb entity [WHERE cond {(AND|OR) cond}]
                 [SHOW field {, field}] [SORT BY field [ASC|DESC]]
                 [LIMIT n] [AS format]
    verb      := FIND | COUNT
    entity    := genes | proteins | sequences | annotations | conflicts
    cond      := field IS [NOT] value
               | field (= | != | > | >= | < | <=) value
               | field LIKE 'pattern'
               | field BETWEEN value AND value
               | sequence CONTAINS 'motif'
               | sequence RESEMBLES 'text' [WITHIN fraction]
    format    := TABLE | FASTA | HISTOGRAM OF field
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field

from repro.errors import BiqlError

FIND = "FIND"
COUNT = "COUNT"

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*')|"
    r"(?P<number>-?\d+(?:\.\d+)?)|"
    r"(?P<op><=|>=|!=|=|<|>|,)|"
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r")"
)

_KEYWORDS = {
    "FIND", "COUNT", "WHERE", "AND", "OR", "NOT", "IS", "LIKE", "BETWEEN",
    "CONTAINS", "RESEMBLES", "WITHIN", "SHOW", "SORT", "BY", "ASC", "DESC",
    "LIMIT", "AS", "OF", "TABLE", "FASTA", "HISTOGRAM", "TRUE", "FALSE",
}


@dataclass(frozen=True)
class Condition:
    """One WHERE condition: a field, a comparator, and operand value(s)."""

    kind: str            # 'compare' | 'like' | 'between' | 'contains'
    #                    # | 'resembles'
    field: str
    operator: str = "="
    value: object = None
    high: object = None       # for BETWEEN
    threshold: float | None = None  # for RESEMBLES ... WITHIN


@dataclass
class BiqlQuery:
    """A parsed BiQL query."""

    verb: str
    entity: str
    conditions: list[tuple[str, Condition]] = dataclass_field(
        default_factory=list
    )  # (connective, condition); connective of the first entry is 'AND'
    show: list[str] = dataclass_field(default_factory=list)
    sort_field: str | None = None
    sort_ascending: bool = True
    limit: int | None = None
    render: str = "table"
    histogram_field: str | None = None


class _Tokens:
    def __init__(self, text: str) -> None:
        self.items: list[tuple[str, str]] = []
        position = 0
        while position < len(text):
            match = _TOKEN.match(text, position)
            if match is None:
                if text[position:].strip():
                    raise BiqlError(
                        f"cannot read BiQL near {text[position:][:20]!r}"
                    )
                break
            position = match.end()
            if match.group("string") is not None:
                raw = match.group("string")[1:-1].replace("''", "'")
                self.items.append(("string", raw))
            elif match.group("number") is not None:
                self.items.append(("number", match.group("number")))
            elif match.group("op") is not None:
                self.items.append(("op", match.group("op")))
            else:
                word = match.group("word")
                if word.upper() in _KEYWORDS:
                    self.items.append(("keyword", word.upper()))
                else:
                    self.items.append(("field", word.lower()))
        self.position = 0

    def peek(self) -> tuple[str, str]:
        if self.position >= len(self.items):
            return ("end", "")
        return self.items[self.position]

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token[0] != "end":
            self.position += 1
        return token

    def accept_keyword(self, *words: str) -> str | None:
        kind, text = self.peek()
        if kind == "keyword" and text in words:
            self.take()
            return text
        return None

    def expect_keyword(self, word: str) -> None:
        if self.accept_keyword(word) is None:
            raise BiqlError(f"expected {word} near {self.peek()[1]!r}")

    def expect_field(self) -> str:
        kind, text = self.take()
        if kind == "field":
            return text
        # Allow keyword-looking names used as fields (e.g. a column
        # literally called "table") — but not structural keywords.
        raise BiqlError(f"expected a field name, got {text!r}")


def _parse_value(tokens: _Tokens) -> object:
    kind, text = tokens.take()
    if kind == "string":
        return text
    if kind == "number":
        return float(text) if "." in text else int(text)
    if kind == "keyword" and text in ("TRUE", "FALSE"):
        return text == "TRUE"
    raise BiqlError(f"expected a value, got {text!r}")


def _parse_condition(tokens: _Tokens) -> Condition:
    field_name = tokens.expect_field()

    if tokens.accept_keyword("IS"):
        negated = tokens.accept_keyword("NOT") is not None
        value = _parse_value(tokens)
        return Condition("compare", field_name,
                         "!=" if negated else "=", value)
    if tokens.accept_keyword("LIKE"):
        value = _parse_value(tokens)
        if not isinstance(value, str):
            raise BiqlError("LIKE needs a quoted pattern")
        return Condition("like", field_name, "LIKE", value)
    if tokens.accept_keyword("BETWEEN"):
        low = _parse_value(tokens)
        tokens.expect_keyword("AND")
        high = _parse_value(tokens)
        return Condition("between", field_name, "BETWEEN", low, high=high)
    if tokens.accept_keyword("CONTAINS"):
        value = _parse_value(tokens)
        if not isinstance(value, str):
            raise BiqlError("CONTAINS needs a quoted motif")
        return Condition("contains", field_name, "CONTAINS", value)
    if tokens.accept_keyword("RESEMBLES"):
        value = _parse_value(tokens)
        threshold = None
        if tokens.accept_keyword("WITHIN"):
            raw = _parse_value(tokens)
            if not isinstance(raw, (int, float)):
                raise BiqlError("WITHIN needs a number")
            threshold = float(raw)
        return Condition("resembles", field_name, "RESEMBLES", value,
                         threshold=threshold)

    kind, operator = tokens.peek()
    if kind == "op" and operator in ("=", "!=", "<", "<=", ">", ">="):
        tokens.take()
        value = _parse_value(tokens)
        return Condition("compare", field_name, operator, value)
    raise BiqlError(
        f"expected a comparison after field {field_name!r}, "
        f"got {operator!r}"
    )


def parse_biql(text: str) -> BiqlQuery:
    """Parse one BiQL query."""
    tokens = _Tokens(text)

    verb = tokens.accept_keyword(FIND, COUNT)
    if verb is None:
        raise BiqlError("a BiQL query starts with FIND or COUNT")

    kind, entity = tokens.take()
    if kind not in ("field",):
        raise BiqlError(f"expected an entity after {verb}, got {entity!r}")
    query = BiqlQuery(verb=verb, entity=entity)

    if tokens.accept_keyword("WHERE"):
        query.conditions.append(("AND", _parse_condition(tokens)))
        while True:
            connective = tokens.accept_keyword("AND", "OR")
            if connective is None:
                break
            query.conditions.append(
                (connective, _parse_condition(tokens))
            )

    if tokens.accept_keyword("SHOW"):
        query.show.append(tokens.expect_field())
        while tokens.peek() == ("op", ","):
            tokens.take()
            query.show.append(tokens.expect_field())

    if tokens.accept_keyword("SORT"):
        tokens.expect_keyword("BY")
        query.sort_field = tokens.expect_field()
        if tokens.accept_keyword("DESC"):
            query.sort_ascending = False
        else:
            tokens.accept_keyword("ASC")

    if tokens.accept_keyword("LIMIT"):
        kind, number = tokens.take()
        if kind != "number" or "." in number:
            raise BiqlError(f"LIMIT needs a whole number, got {number!r}")
        query.limit = int(number)

    if tokens.accept_keyword("AS"):
        if tokens.accept_keyword("TABLE"):
            query.render = "table"
        elif tokens.accept_keyword("FASTA"):
            query.render = "fasta"
        elif tokens.accept_keyword("HISTOGRAM"):
            query.render = "histogram"
            tokens.expect_keyword("OF")
            query.histogram_field = tokens.expect_field()
        else:
            raise BiqlError(
                f"unknown output format {tokens.peek()[1]!r}"
            )

    if tokens.peek()[0] != "end":
        raise BiqlError(f"trailing BiQL input near {tokens.peek()[1]!r}")
    return query
