"""One harness for the ``--self-test`` scenario matrices.

``repro chaos``, ``repro recover`` and ``repro scrub`` each print a
table of the named schedules in :mod:`repro.sim.matrix`: a scenario
that crashes is a failed scenario, never a traceback.

A scenario returns its detail string when it passed; it reports a
broken expectation by raising :class:`ScenarioFailure` (see
:func:`expect`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SettingError


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

    def self_test(self, invoke: Callable, verbose: bool = True,
                  only: str | None = None) -> bool:
        """Run every scenario (or just *only*) through ``invoke``, print
        the report, and return whether all passed.  A scenario that
        fails or crashes is a ``FAIL`` row, never a traceback."""
        names = [name for name, __ in self.scenarios]
        if only is not None and only not in names:
            raise SettingError(
                f"unknown scenario {only!r}; one of: {', '.join(names)}",
                what="only", where=self.title, value=only)
        rows = []
        for name, scenario in self.scenarios:
            if only not in (None, name):
                continue
            try:
                rows.append(("ok", name, invoke(scenario)))
            except ScenarioFailure as failure:
                rows.append(("FAIL", name, str(failure)))
            except Exception as error:   # a crash is a failed scenario
                rows.append(("FAIL", name,
                             f"crashed: {type(error).__name__}: {error}"))
        passed = sum(status == "ok" for status, __, __ in rows)
        if verbose:
            print(self.title)
            width = max(map(len, names))
            for status, name, detail in rows:
                print(f"  {status:<4} {name:<{width}}  {detail}")
            print(f"{passed}/{len(rows)} {self.verdict}")
        return passed == len(rows)
