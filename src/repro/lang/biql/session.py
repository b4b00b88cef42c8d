"""BiQL sessions: parse → translate → execute → render, in one call.

This is the user-facing surface of the paper's vision statement: "Our
high-level Genomics Algebra allows biologists to pose questions using
biological terms, not SQL statements."

Every session entry point runs under a ``biql.query`` span with
``biql.parse`` / ``biql.translate`` children, so a traced query shows
the language layer's share of the time next to the SQL engine's and the
mediator's (see :mod:`repro.obs`).

A session may also sit behind a
:class:`~repro.serving.FederationServer`: pass ``server=`` (and
optionally ``priority=``) and every executing entry point first asks
:meth:`~repro.serving.FederationServer.admit_inline` for an admission
verdict.  Under overload the statement is refused with
:class:`~repro.errors.OverloadError` *before* any parse/translate/
execute work — interactive shells degrade exactly like the federation
they front.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db import ResultSet
from repro.errors import OverloadError
from repro.lang.biql.parser import BiqlQuery, parse_biql
from repro.lang.biql.translator import translate
from repro.lang.output import render_fasta, render_histogram, render_table
from repro.obs.trace import span as _span

if TYPE_CHECKING:  # pragma: no cover
    from repro.warehouse import UnifyingDatabase


class BiqlSession:
    """A biologist's interactive session against the Unifying Database."""

    def __init__(self, warehouse: "UnifyingDatabase", *,
                 server=None, priority: int | None = None) -> None:
        self.warehouse = warehouse
        #: Optional overload gate: a ``FederationServer`` whose
        #: ``admit_inline`` is consulted before every statement runs.
        self.server = server
        self.priority = priority
        #: The last translation, for the curious (and for tests).
        self.last_sql: str | None = None
        self.last_parameters: list = []

    def _admit(self) -> None:
        """Refuse the statement up front when the federation is shedding."""
        if self.server is None:
            return
        if self.priority is None:
            reason = self.server.admit_inline()
        else:
            reason = self.server.admit_inline(self.priority)
        if reason is not None:
            raise OverloadError(
                f"BiQL statement refused ({reason}): the federation is "
                f"shedding load", reason=reason,
                priority=self.priority,
            )

    def parse(self, text: str) -> BiqlQuery:
        with _span("biql.parse"):
            return parse_biql(text)

    def compile(self, text: str) -> tuple[str, list]:
        """BiQL text → (extended SQL, parameters), without running it."""
        query = self.parse(text)
        with _span("biql.translate"):
            sql, parameters = translate(query)
        return sql, parameters

    def explain(self, text: str, *, analyze: bool = False) -> str:
        """The SQL a BiQL query translates to, its parameters and the
        plan the warehouse runs for it (with *analyze*: run, and what
        each operator actually produced)."""
        sql, parameters = self.compile(text)
        plan = self.warehouse.explain(sql, parameters, analyze=analyze)
        return f"{sql}\n{parameters!r}\n{plan}"

    def run(self, text: str) -> ResultSet:
        """Execute a BiQL query; returns the raw result set."""
        self._admit()
        with _span("biql.query", text=text):
            sql, parameters = self.compile(text)
            self.last_sql = sql
            self.last_parameters = parameters
            return self.warehouse.query(sql, parameters)

    def run_query(self, query: "BiqlQuery | object") -> ResultSet:
        """Execute an already-built query (builder or parse output)."""
        self._admit()
        with _span("biql.query"):
            built = query.build() if hasattr(query, "build") else query
            with _span("biql.translate"):
                sql, parameters = translate(built)
            self.last_sql = sql
            self.last_parameters = parameters
            return self.warehouse.query(sql, parameters)

    def render(self, text: str) -> str:
        """Execute and render per the query's ``AS <format>`` clause."""
        self._admit()
        with _span("biql.query", text=text):
            query = self.parse(text)
            with _span("biql.translate"):
                sql, parameters = translate(query)
            self.last_sql = sql
            self.last_parameters = parameters
            result = self.warehouse.query(sql, parameters)
            with _span("biql.render", format=query.render or "table"):
                if query.render == "fasta":
                    return render_fasta(result)
                if query.render == "histogram":
                    assert query.histogram_field is not None
                    return render_histogram(result, query.histogram_field)
                return render_table(result)
