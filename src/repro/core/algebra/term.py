"""Terms over a many-sorted signature, with static sort checking.

A term is a constant, a variable, or an operator application whose
arguments are terms.  The sort of a term is the result sort of its
outermost operator — the paper's example being
``getchar(concat("Genomics", "Algebra"), 10)`` of sort ``char``.

Terms are built either programmatically (:class:`Application` checks
sorts at construction time) or from text via :func:`parse_term`, which
accepts the familiar ``f(g(x), 'literal', 42)`` syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.algebra.signature import Operator, Signature
from repro.errors import AlgebraError, SortMismatchError


class Term:
    """Abstract base of :class:`Constant`, :class:`Variable`, :class:`Application`."""

    sort: str

    def variables(self) -> frozenset["Variable"]:
        """All variables occurring in the term."""
        raise NotImplementedError

    def depth(self) -> int:
        """Nesting depth (a constant or variable has depth 1)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Term):
    """A literal value of a known sort."""

    value: Any
    sort: str

    def variables(self) -> frozenset["Variable"]:
        return frozenset()

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)

    def __hash__(self) -> int:
        return hash((repr(self.value), self.sort))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return self.sort == other.sort and self.value == other.value


@dataclass(frozen=True)
class Variable(Term):
    """A named placeholder of a known sort, bound at evaluation time."""

    name: str
    sort: str

    def variables(self) -> frozenset["Variable"]:
        return frozenset({self})

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        return self.name


class Application(Term):
    """An operator applied to argument terms (sort-checked)."""

    __slots__ = ("operator", "args", "sort")

    def __init__(self, operator: Operator, args: tuple[Term, ...]) -> None:
        args = tuple(args)
        actual = tuple(arg.sort for arg in args)
        if actual != operator.arg_sorts:
            raise SortMismatchError(
                f"operator {operator} applied to argument sorts "
                f"({', '.join(actual) or 'none'})"
            )
        self.operator = operator
        self.args = args
        self.sort = operator.result_sort

    def variables(self) -> frozenset[Variable]:
        found: frozenset[Variable] = frozenset()
        for arg in self.args:
            found |= arg.variables()
        return found

    def depth(self) -> int:
        return 1 + max((arg.depth() for arg in self.args), default=0)

    def __str__(self) -> str:
        return f"{self.operator.name}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Application({self})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Application):
            return NotImplemented
        return self.operator == other.operator and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.operator, self.args))


# ---------------------------------------------------------------------------
# Term parser:  name(arg, 'str', 42, 3.5, nested(x))
# ---------------------------------------------------------------------------

class _TermScanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0

    def _skip_space(self) -> None:
        while self.position < len(self.text) and self.text[self.position].isspace():
            self.position += 1

    def peek(self) -> str:
        self._skip_space()
        if self.position >= len(self.text):
            return ""
        return self.text[self.position]

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise AlgebraError(
                f"expected {expected!r} at position {self.position} "
                f"in {self.text!r}"
            )
        self.position += 1

    def identifier(self) -> str:
        self._skip_space()
        start = self.position
        while (self.position < len(self.text)
               and (self.text[self.position].isalnum()
                    or self.text[self.position] == "_")):
            self.position += 1
        if start == self.position:
            raise AlgebraError(
                f"expected an identifier at position {start} in {self.text!r}"
            )
        return self.text[start:self.position]

    def string_literal(self) -> str:
        quote = self.peek()
        self.position += 1
        start = self.position
        while self.position < len(self.text) and self.text[self.position] != quote:
            self.position += 1
        if self.position >= len(self.text):
            raise AlgebraError(f"unterminated string literal in {self.text!r}")
        value = self.text[start:self.position]
        self.position += 1
        return value

    def number_literal(self) -> "int | float":
        self._skip_space()
        start = self.position
        if self.peek() == "-":
            self.position += 1
        while (self.position < len(self.text)
               and (self.text[self.position].isdigit()
                    or self.text[self.position] == ".")):
            self.position += 1
        raw = self.text[start:self.position]
        return float(raw) if "." in raw else int(raw)

    def at_end(self) -> bool:
        self._skip_space()
        return self.position >= len(self.text)


def parse_term(
    text: str,
    signature: Signature,
    variables: Mapping[str, str] | None = None,
) -> Term:
    """Parse ``f(g(x), 'ATTG', 10)`` syntax into a sort-checked term.

    *variables* maps free-variable names to their sorts; bare identifiers
    are looked up there (or treated as zero-argument operators when the
    signature declares one).  String literals are ``string``, integer
    literals ``int``, decimal literals ``float``.
    """
    variables = dict(variables or {})
    scanner = _TermScanner(text)

    def parse_expression() -> Term:
        head = scanner.peek()
        if head in ("'", '"'):
            return Constant(scanner.string_literal(), "string")
        if head.isdigit() or head == "-":
            value = scanner.number_literal()
            return Constant(value, "float" if isinstance(value, float)
                            else "int")
        name = scanner.identifier()
        if scanner.peek() == "(":
            scanner.take("(")
            args: list[Term] = []
            if scanner.peek() != ")":
                args.append(parse_expression())
                while scanner.peek() == ",":
                    scanner.take(",")
                    args.append(parse_expression())
            scanner.take(")")
            operator = signature.resolve(name, (a.sort for a in args))
            return Application(operator, tuple(args))
        if name in variables:
            return Variable(name, variables[name])
        if signature.has_operator(name):
            operator = signature.resolve(name, ())
            return Application(operator, ())
        raise AlgebraError(
            f"unknown identifier {name!r}: not a variable and not a "
            f"declared operator"
        )

    term = parse_expression()
    if not scanner.at_end():
        raise AlgebraError(
            f"trailing input at position {scanner.position} in {text!r}"
        )
    return term
