"""One harness for the ``--self-test`` scenario matrices.

``repro chaos``, ``repro recover`` and ``repro scrub`` each own a table
of named fault-injection scenarios; the scenario functions live with
the code they break.  What the three tables share lives here, once: the
result type, the loop that runs a table (a scenario that crashes is a
failed scenario, never a traceback), the ``only`` filter, and the
report printer.

A scenario function returns a :class:`ScenarioResult`, or just its
detail string when it passed; it reports a broken expectation by
raising :class:`ScenarioFailure` (see :func:`expect`).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class ScenarioResult:
    """Outcome of one scenario; the two measurements are printed only
    by matrices that are ``timed``."""

    name: str
    passed: bool
    detail: str = ""
    statements_applied: int = 0
    elapsed_ms: float = 0.0


class ScenarioFailure(AssertionError):
    """A scenario expectation that did not hold."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioFailure(message)


def in_temp_dir(scenario: Callable, root: str | None = None):
    """Run *scenario* in a fresh directory (under *root*, when given)
    that is removed afterwards."""
    with tempfile.TemporaryDirectory(dir=root) as workdir:
        return scenario(workdir)


@dataclass(frozen=True)
class ScenarioMatrix:
    """A named table of scenarios and how its report reads."""

    title: str
    verdict: str                  # "<n>/<m> scenarios <verdict>"
    scenarios: Sequence[tuple[str, Callable]]
    passed_label: str = "ok  "
    name_width: int = 28
    timed: bool = False

    def run(self, invoke: Callable = in_temp_dir,
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
                outcome = invoke(scenario)
            except ScenarioFailure as failure:
                outcome = ScenarioResult(name, False, str(failure))
            except Exception as error:   # a crash is a failed scenario
                outcome = ScenarioResult(
                    name, False, f"crashed: {type(error).__name__}: {error}")
            if isinstance(outcome, str):
                outcome = ScenarioResult(name, True, outcome)
            results.append(outcome)
        return results

    def line(self, result: ScenarioResult) -> str:
        status = self.passed_label if result.passed else "FAIL"
        measured = (f"{result.statements_applied:>4} stmts "
                    f"{result.elapsed_ms:>7.1f} ms  " if self.timed else "")
        return (f"  {status:<4} {result.name:<{self.name_width}} "
                f"{measured}{result.detail}")

    def self_test(self, verbose: bool = True, invoke: Callable = in_temp_dir,
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
