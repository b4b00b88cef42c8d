"""Wrappers for hierarchical (AceDB-style) and relational (CSV) sources."""

from __future__ import annotations

import csv
import io

from repro.core.ops.basic import decode
from repro.core.types import Interval
from repro.errors import WrapperError
from repro.etl.wrappers.base import ParsedRecord, Wrapper


class AceWrapper(Wrapper):
    """Parses AceDB-style hierarchical object dumps."""

    format_name = "acedb"

    def torn_tail(self, text: str) -> str:
        """Hierarchical: a final object without its identifying tag."""
        blocks = [block for block in text.split("\n\n") if block.strip()]
        if blocks and "Accession" not in blocks[-1]:
            return blocks[-1]
        return ""

    def split_snapshot(self, text: str) -> list[str]:
        self.refuse_torn(text)
        return [block.strip() + "\n"
                for block in text.split("\n\n") if block.strip()]

    def parse_record(self, text: str) -> ParsedRecord:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or ":" not in lines[0]:
            raise WrapperError("not an AceDB object (no class header)")
        header_class, _, header_name = lines[0].partition(":")
        if header_class.strip() != "Gene":
            raise WrapperError(
                f"unsupported AceDB class {header_class.strip()!r}"
            )
        name = header_name.strip().strip('"')

        fields: dict[str, str] = {}
        exons: list[Interval] = []
        for line in lines[1:]:
            parts = line.split("\t")
            tag = parts[0].strip()
            values = [part.strip().strip('"') for part in parts[1:]]
            if tag == "Exon":
                if len(values) != 2:
                    raise WrapperError(f"malformed Exon line {line!r}")
                exons.append(Interval(int(values[0]) - 1, int(values[1])))
            elif values:
                fields[tag] = values[0]

        if "Accession" not in fields:
            raise WrapperError(f"AceDB object {name!r} has no Accession tag")
        if "DNA" not in fields:
            raise WrapperError(f"AceDB object {name!r} has no DNA tag")

        return ParsedRecord(
            source=self.source,
            accession=fields["Accession"],
            version=int(fields.get("Version", 1)),
            name=name,
            organism=fields.get("Organism"),
            description=fields.get("Description"),
            dna=decode(fields["DNA"]),
            exons=tuple(sorted(exons, key=lambda e: e.start)),
            raw=text,
        )


class RelationalWrapper(Wrapper):
    """Parses CSV dumps/rows of the relational source archetype."""

    format_name = "relational"

    _COLUMNS = ("accession", "version", "name", "organism", "description",
                "sequence", "exons")

    def _record_from_row(self, row: list[str], raw: str) -> ParsedRecord:
        if len(row) != len(self._COLUMNS):
            raise WrapperError(
                f"expected {len(self._COLUMNS)} columns, got {len(row)}"
            )
        values = dict(zip(self._COLUMNS, row))
        exons = []
        if values["exons"]:
            for span in values["exons"].split(";"):
                start, _, end = span.partition("-")
                exons.append(Interval(int(start), int(end)))
        return ParsedRecord(
            source=self.source,
            accession=values["accession"],
            version=int(values["version"]),
            name=values["name"],
            organism=values["organism"],
            description=values["description"],
            dna=decode(values["sequence"]),
            exons=tuple(exons),
            raw=raw,
        )

    def torn_tail(self, text: str) -> str:
        return ""  # a torn row fails per-row validation

    def split_snapshot(self, text: str) -> list[str]:
        lines = [line for line in text.splitlines() if line.strip()]
        if lines and lines[0].startswith("accession"):
            lines = lines[1:]  # header row
        return [line + "\n" for line in lines]

    def parse_record(self, text: str) -> ParsedRecord:
        rows = list(csv.reader(io.StringIO(text)))
        rows = [row for row in rows if row]
        if not rows:
            raise WrapperError("empty relational record")
        return self._record_from_row(rows[0], text)
