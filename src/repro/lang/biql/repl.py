"""An interactive BiQL shell (the text UI of section 6.4).

The paper's GUI is future work there and out of scope here, but the
interaction loop it would wrap is this REPL: type BiQL, see rendered
results, inspect the generated extended SQL, discover entities and
fields.  The loop is split from the terminal so it is fully testable
(:meth:`BiqlRepl.handle` maps one input line to one output string).

Run interactively against a demo warehouse::

    python -m repro shell
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ReproError
from repro.lang.biql.session import BiqlSession
from repro.lang.biql.translator import ENTITIES

HELP_TEXT = """\
BiQL shell — type a query, or one of:
  \\help              this message
  \\entities          list queryable entities
  \\fields <entity>   list an entity's fields
  \\sql               show the SQL of the last query
  \\quit              leave

Query shape:
  FIND genes WHERE organism IS 'Escherichia coli'
               AND sequence CONTAINS 'TATAAT'
  SHOW accession, name, gc SORT BY gc DESC LIMIT 10 [AS FASTA]
  COUNT proteins WHERE pi > 9"""


class BiqlRepl:
    """A line-oriented BiQL interpreter over one session."""

    def __init__(self, session: BiqlSession) -> None:
        self.session = session
        self.finished = False

    def handle(self, line: str) -> str:
        """Process one input line; returns the text to display."""
        line = line.strip()
        if not line:
            return ""
        if line.startswith("\\"):
            return self._command(line)
        try:
            return self.session.render(line)
        except ReproError as error:
            return f"error: {error}"

    def _command(self, line: str) -> str:
        parts = line[1:].split()
        name = parts[0].lower() if parts else ""
        if name in ("quit", "q", "exit"):
            self.finished = True
            return "bye"
        if name in ("help", "h", "?"):
            return HELP_TEXT
        if name == "entities":
            return "\n".join(
                f"  {entity:<12} -> {mapping.table}"
                for entity, mapping in sorted(ENTITIES.items())
            )
        if name == "fields":
            if len(parts) != 2:
                return "usage: \\fields <entity>"
            entity = parts[1].lower()
            if entity not in ENTITIES:
                known = ", ".join(sorted(ENTITIES))
                return f"unknown entity {entity!r}; one of: {known}"
            mapping = ENTITIES[entity]
            return "\n".join(
                f"  {field:<12} = {expression}"
                for field, expression in sorted(mapping.fields.items())
            )
        if name == "sql":
            if self.session.last_sql is None:
                return "(no query yet)"
            parameters = self.session.last_parameters
            suffix = f"\n  -- parameters: {parameters}" if parameters else ""
            return self.session.last_sql + suffix
        return f"unknown command \\{name}; try \\help"

    def run(
        self,
        input_fn: Callable[[str], str] = input,
        output_fn: Callable[[str], None] = print,
    ) -> None:
        """The interactive loop (EOF or \\quit ends it)."""
        output_fn("BiQL shell — \\help for help, \\quit to leave")
        while not self.finished:
            try:
                line = input_fn("biql> ")
            except (EOFError, KeyboardInterrupt):
                output_fn("")
                return
            output = self.handle(line)
            if output:
                output_fn(output)


def demo_session(seed: int = 42, size: int = 80) -> BiqlSession:
    """A session over a freshly built demo warehouse."""
    from repro.sources import (
        EmblRepository,
        GenBankRepository,
        SwissProtRepository,
        Universe,
    )
    from repro.warehouse import UnifyingDatabase

    universe = Universe(seed=seed, size=size)
    warehouse = UnifyingDatabase([
        GenBankRepository(universe),
        EmblRepository(universe),
        SwissProtRepository(universe),
    ])
    warehouse.initial_load()
    return BiqlSession(warehouse)
