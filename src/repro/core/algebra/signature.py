"""Many-sorted signatures (section 4.2 of the paper).

A signature is the syntactic half of a many-sorted algebra: a set of
**sorts** (type names) and a set of **operators**, each annotated with its
argument sorts and result sort — the paper's
``concat: string × string → string`` notation.

Operators may be overloaded: the same name can be declared with different
argument-sort strings, and resolution picks the declaration matching the
actual argument sorts.  Signatures are extensible at run time (new sorts
and operators can be declared on a live signature), which is the formal
footing for requirements C13/C14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import SortMismatchError, UnknownOperatorError, UnknownSortError


@dataclass(frozen=True)
class Operator:
    """An operator declaration: name, argument sorts, result sort, and
    annotations a DBMS hosting it reads (a predicate's ``selectivity``,
    a page ``kernel``), which are no part of its identity."""

    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str
    annotations: Mapping[str, Any] = field(default_factory=dict,
                                           compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arg_sorts", tuple(self.arg_sorts))

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __str__(self) -> str:
        args = " × ".join(self.arg_sorts) if self.arg_sorts else "()"
        return f"{self.name}: {args} → {self.result_sort}"

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        """The (name, argument sorts) pair that identifies an overload."""
        return (self.name, self.arg_sorts)


class Signature:
    """A mutable, extensible many-sorted signature."""

    def __init__(self, name: str = "signature") -> None:
        self.name = name
        self._sorts: dict[str, str] = {}          # sort name -> description
        self._operators: dict[str, list[Operator]] = {}

    def __repr__(self) -> str:
        return (f"Signature({self.name!r}, {len(self._sorts)} sorts, "
                f"{sum(len(v) for v in self._operators.values())} operators)")

    # -- sorts ---------------------------------------------------------------

    def declare_sort(self, name: str, description: str = "") -> None:
        """Add a sort; re-declaring an existing sort is an error."""
        if name in self._sorts:
            raise UnknownSortError(f"sort {name!r} is already declared")
        self._sorts[name] = description

    def has_sort(self, name: str) -> bool:
        return name in self._sorts

    def require_sort(self, name: str) -> None:
        if name not in self._sorts:
            raise UnknownSortError(
                f"sort {name!r} is not declared in signature {self.name!r}"
            )

    @property
    def sorts(self) -> tuple[str, ...]:
        return tuple(self._sorts)

    # -- operators -----------------------------------------------------------

    def declare_operator(
        self,
        name: str,
        arg_sorts: Iterable[str],
        result_sort: str,
        **annotations: Any,
    ) -> Operator:
        """Add an operator; every referenced sort must exist.

        Declaring the same (name, argument sorts) twice is an error;
        declaring the same name with *different* argument sorts creates an
        overload.
        """
        operator = Operator(name, tuple(arg_sorts), result_sort, annotations)
        for sort in (*operator.arg_sorts, operator.result_sort):
            self.require_sort(sort)
        overloads = self._operators.setdefault(name, [])
        if any(existing.key == operator.key for existing in overloads):
            raise UnknownOperatorError(
                f"operator {operator} is already declared"
            )
        overloads.append(operator)
        return operator

    def has_operator(self, name: str) -> bool:
        return name in self._operators

    def overloads(self, name: str) -> tuple[Operator, ...]:
        """All declarations sharing *name*."""
        try:
            return tuple(self._operators[name])
        except KeyError:
            raise UnknownOperatorError(
                f"operator {name!r} is not declared in signature "
                f"{self.name!r}"
            ) from None

    def resolve(self, name: str, arg_sorts: Iterable[str]) -> Operator:
        """Pick the overload of *name* matching *arg_sorts* exactly."""
        wanted = tuple(arg_sorts)
        for operator in self.overloads(name):
            if operator.arg_sorts == wanted:
                return operator
        raise self.refusal(name, wanted)

    def refusal(self, name: str, given: Iterable[str]) -> SortMismatchError:
        """The error for *name* applied to arguments of the sorts *given*:
        it names every declared domain and the one given."""
        domains = " or ".join(" × ".join(operator.arg_sorts) or "()"
                              for operator in self.overloads(name))
        return SortMismatchError(f"{name} is declared over {domains}, "
                                 f"not {' × '.join(given) or '()'}")

    def operators(self) -> Iterator[Operator]:
        """Iterate over every declared operator."""
        for overloads in self._operators.values():
            yield from overloads

    def describe(self) -> str:
        """A human-readable dump of the whole signature."""
        lines = [f"signature {self.name}", "sorts"]
        lines.extend(f"  {sort}" for sort in sorted(self._sorts))
        lines.append("ops")
        lines.extend(
            f"  {operator}"
            for operator in sorted(self.operators(),
                                   key=lambda op: (op.name, op.arg_sorts))
        )
        return "\n".join(lines)
