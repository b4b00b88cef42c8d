"""The algebra proper: carrier sets and carrier functions over a signature.

"To assign semantics to a signature, one must assign a (carrier) set to
each sort and a function to each operator" (section 4.2).  An
:class:`Algebra` does exactly that: each sort is given a **carrier**
(the Python types deciding membership) and each operator a **carrier
function** implementing it.  Evaluation of a term walks it bottom-up,
checking every intermediate value against the carrier of its sort — so
an implementation bug that returns a value of the wrong sort is caught
at the algebra boundary, not three operators later.

The algebra is extensible at run time (new sorts, operators and
implementations; C13/C14), and is deliberately independent of any DBMS —
the "kernel algebra" usable as a stand-alone library, which the adapter
(:mod:`repro.adapter`) later plugs into the Unifying Database.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.core.algebra.signature import Operator, Signature
from repro.core.algebra.term import (
    Application,
    Constant,
    Term,
    Variable,
    parse_term,
)
from repro.errors import EvaluationError, SortMismatchError

Carrier = "type | tuple[type, ...]"


class Algebra:
    """A many-sorted algebra: a signature plus its semantics."""

    def __init__(self, signature: Signature) -> None:
        self.signature = signature
        self._carriers: dict[str, tuple[type, ...]] = {}
        self._functions: dict[tuple[str, tuple[str, ...]], Callable] = {}

    def __repr__(self) -> str:
        return (f"Algebra({self.signature.name!r}, "
                f"{len(self._functions)} bound operators)")

    # -- defining the semantics ----------------------------------------------

    def set_carrier(self, sort: str, carrier: Carrier) -> None:
        """Define the carrier set of *sort*: the instances of a type (or
        of any type in a tuple)."""
        self.signature.require_sort(sort)
        self._carriers[sort] = (carrier if isinstance(carrier, tuple)
                                else (carrier,))

    def carrier(self, sort: str) -> tuple[type, ...]:
        """The types of *sort*'s carrier; a sort without one accepts all."""
        self.signature.require_sort(sort)
        return self._carriers.get(sort, (object,))

    def in_carrier(self, value: Any, sort: str) -> bool:
        """Membership test; sorts without a registered carrier accept all."""
        return isinstance(value, self.carrier(sort))

    def sort_of(self, value: Any) -> str:
        """The first declared sort whose carrier holds *value*, else the
        name of its Python type."""
        return next((sort for sort, carrier in self._carriers.items()
                     if isinstance(value, carrier)), type(value).__name__)

    def bind(
        self,
        name: str,
        arg_sorts: Iterable[str],
        function: Callable,
    ) -> None:
        """Attach the carrier function of an operator overload."""
        operator = self.signature.resolve(name, tuple(arg_sorts))
        self._functions[operator.key] = function

    def function_for(self, operator: Operator) -> Callable:
        try:
            return self._functions[operator.key]
        except KeyError:
            raise EvaluationError(
                f"operator {operator} has no bound implementation"
            ) from None

    def is_bound(self, operator: Operator) -> bool:
        return operator.key in self._functions

    # -- extensibility (C13/C14): declare + bind in one step ------------------

    def extend_sort(self, name: str, carrier: Carrier | None = None,
                    description: str = "") -> None:
        """Declare a new sort and (optionally) its carrier."""
        self.signature.declare_sort(name, description)
        if carrier is not None:
            self.set_carrier(name, carrier)

    def extend_operator(self, name: str, arg_sorts: Iterable[str],
                        result_sort: str, function: Callable,
                        **annotations: Any) -> Operator:
        """Declare a new operator (with *annotations* for a DBMS that
        hosts it) and bind its implementation."""
        operator = self.signature.declare_operator(
            name, tuple(arg_sorts), result_sort, **annotations)
        self._functions[operator.key] = function
        return operator

    # -- building and evaluating terms ----------------------------------------

    def constant(self, value: Any, sort: str) -> Constant:
        """A sort-checked constant term."""
        if not self.in_carrier(value, sort):
            raise SortMismatchError(
                f"value {value!r} is not in the carrier of sort {sort!r}"
            )
        return Constant(value, sort)

    def apply(self, name: str, *args: Term) -> Application:
        """Build an application term, resolving the overload by arg sorts."""
        operator = self.signature.resolve(name, (a.sort for a in args))
        return Application(operator, tuple(args))

    def parse(self, text: str,
              variables: Mapping[str, str] | None = None) -> Term:
        """Parse textual term syntax against this algebra's signature."""
        return parse_term(text, self.signature, variables)

    def call(self, name: str, *values_and_sorts: tuple[Any, str]) -> Any:
        """One-shot: wrap values as constants, apply, evaluate."""
        constants = [self.constant(v, s) for v, s in values_and_sorts]
        return self.evaluate(self.apply(name, *constants))

    def evaluate(
        self, term: Term, bindings: Mapping[str, Any] | None = None
    ) -> Any:
        """Evaluate a term bottom-up, carrier-checking every value.

        *bindings* supplies values for free variables by name; a variable
        value is carrier-checked against the variable's sort.
        """
        bindings = dict(bindings or {})

        def walk(node: Term) -> Any:
            if isinstance(node, Constant):
                return node.value
            if isinstance(node, Variable):
                if node.name not in bindings:
                    raise EvaluationError(
                        f"unbound variable {node.name!r} of sort {node.sort!r}"
                    )
                value = bindings[node.name]
                if not self.in_carrier(value, node.sort):
                    raise SortMismatchError(
                        f"binding for {node.name!r} is not in the carrier "
                        f"of sort {node.sort!r}: {value!r}"
                    )
                return value
            if isinstance(node, Application):
                function = self.function_for(node.operator)
                arguments = [walk(arg) for arg in node.args]
                try:
                    result = function(*arguments)
                except EvaluationError:
                    raise
                except Exception as exc:
                    raise EvaluationError(
                        f"operator {node.operator.name!r} failed: {exc}"
                    ) from exc
                if not self.in_carrier(result, node.sort):
                    raise SortMismatchError(
                        f"operator {node.operator} returned a value outside "
                        f"the carrier of {node.sort!r}: {result!r}"
                    )
                return result
            raise EvaluationError(f"unknown term node {node!r}")

        return walk(term)

    # -- introspection --------------------------------------------------------

    def unbound_operators(self) -> list[Operator]:
        """Declared operators that still lack an implementation."""
        return [op for op in self.signature.operators()
                if op.key not in self._functions]
