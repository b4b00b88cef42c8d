"""One harness for the ``--self-test`` scenario matrices.

``repro chaos``, ``repro recover`` and ``repro scrub`` each print a
table of named fault-injection scenarios (the last two from the
schedules in :mod:`repro.sim.matrix`).  What the tables share lives
here, once: the result type, the loop that runs a table (a scenario
that crashes is a failed scenario, never a traceback), the ``only``
filter, and the report printer.

A scenario returns its detail string when it passed; it reports a
broken expectation by raising :class:`ScenarioFailure` (see
:func:`expect`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class ScenarioResult:
    """Outcome of one scenario."""

    name: str
    passed: bool
    detail: str = ""


class ScenarioFailure(AssertionError):
    """A scenario expectation that did not hold."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioFailure(message)


@dataclass(frozen=True)
class ScenarioMatrix:
    """A named table of scenarios and how its report reads."""

    title: str
    verdict: str                  # "<n>/<m> scenarios <verdict>"
    scenarios: Sequence[tuple[str, Callable]]
    passed_label: str = "ok  "
    name_width: int = 28

    def run(self, invoke: Callable,
            only: str | None = None) -> list[ScenarioResult]:
        """Run every scenario (or just *only*) through ``invoke``;
        never raises for a scenario's sake — failures and crashes land
        in the results."""
        if only is not None and only not in dict(self.scenarios):
            known = ", ".join(name for name, __ in self.scenarios)
            raise ValueError(f"unknown scenario {only!r}; one of: {known}")
        results = []
        for name, scenario in self.scenarios:
            if only is not None and name != only:
                continue
            try:
                outcome = ScenarioResult(name, True, invoke(scenario))
            except ScenarioFailure as failure:
                outcome = ScenarioResult(name, False, str(failure))
            except Exception as error:   # a crash is a failed scenario
                outcome = ScenarioResult(
                    name, False, f"crashed: {type(error).__name__}: {error}")
            results.append(outcome)
        return results

    def line(self, result: ScenarioResult) -> str:
        status = self.passed_label if result.passed else "FAIL"
        return f"  {status:<4} {result.name:<{self.name_width}} {result.detail}"

    def self_test(self, invoke: Callable, verbose: bool = True,
                  only: str | None = None) -> bool:
        """Run the matrix, print the report, return whether all passed."""
        results = self.run(invoke, only)
        if verbose:
            print(self.title)
            for result in results:
                print(self.line(result))
            passed = sum(result.passed for result in results)
            print(f"{passed}/{len(results)} {self.verdict}")
        return all(result.passed for result in results)
