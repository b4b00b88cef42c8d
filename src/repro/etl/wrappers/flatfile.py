"""Wrappers for the flat-file formats: GenBank, EMBL, SwissProt, FASTA."""

from __future__ import annotations

import re

from repro.core.ops.basic import decode, decode_protein
from repro.errors import WrapperError
from repro.etl.wrappers.base import (
    ParsedRecord,
    Wrapper,
    parse_location,
    required_line,
)

_GENE_QUALIFIER = re.compile(r'/gene="([^"]+)"')


class GenBankWrapper(Wrapper):
    """Parses GenBank flat-file records (LOCUS … ORIGIN … //)."""

    format_name = "genbank"

    def parse_record(self, text: str) -> ParsedRecord:
        lines = text.splitlines()
        if not lines or not lines[0].startswith("LOCUS"):
            raise WrapperError("not a GenBank record (no LOCUS line)")

        accession = required_line(lines, "ACCESSION", "GenBank").split()[0]
        version_text = required_line(lines, "VERSION", "GenBank")
        version = 1
        if "." in version_text:
            try:
                version = int(version_text.rsplit(".", 1)[1])
            except ValueError:
                raise WrapperError(
                    f"bad VERSION line {version_text!r}"
                ) from None
        definition = required_line(lines, "DEFINITION", "GenBank").rstrip(".")
        organism = None
        for line in lines:
            if line.strip().startswith("ORGANISM"):
                organism = line.strip()[len("ORGANISM"):].strip()
                break

        gene_match = _GENE_QUALIFIER.search(text)
        name = gene_match.group(1) if gene_match else None

        exons = ()
        for line in lines:
            stripped = line.strip()
            if stripped.startswith("CDS"):
                exons = parse_location(stripped[len("CDS"):])
                break

        # Sequence: everything between ORIGIN and //.
        try:
            origin_at = next(i for i, line in enumerate(lines)
                             if line.startswith("ORIGIN"))
        except StopIteration:
            raise WrapperError(
                f"GenBank record {accession} has no ORIGIN block"
            ) from None
        sequence_lines = []
        for line in lines[origin_at + 1:]:
            if line.strip() == "//":
                break
            sequence_lines.append(line)
        dna = decode("".join(sequence_lines))

        return ParsedRecord(
            source=self.source,
            accession=accession,
            version=version,
            name=name,
            organism=organism,
            description=definition,
            dna=dna,
            exons=exons,
            raw=text,
        )


class EmblWrapper(Wrapper):
    """Parses EMBL flat-file records (ID / AC / DE / FT / SQ … //)."""

    format_name = "embl"

    def parse_record(self, text: str) -> ParsedRecord:
        lines = text.splitlines()
        if not lines or not lines[0].startswith("ID"):
            raise WrapperError("not an EMBL record (no ID line)")

        id_line = lines[0][2:].strip()
        accession = id_line.split(";")[0].strip()
        version = 1
        sv_match = re.search(r"SV (\d+)", id_line)
        if sv_match:
            version = int(sv_match.group(1))
        description = required_line(lines, "DE", "EMBL").rstrip(".")
        organism = required_line(lines, "OS", "EMBL")

        gene_match = _GENE_QUALIFIER.search(text)
        name = gene_match.group(1) if gene_match else None

        exons = ()
        for line in lines:
            if line.startswith("FT") and "CDS" in line.split():
                exons = parse_location(line.split("CDS", 1)[1])
                break

        try:
            sq_at = next(i for i, line in enumerate(lines)
                         if line.startswith("SQ"))
        except StopIteration:
            raise WrapperError(
                f"EMBL record {accession} has no SQ block"
            ) from None
        sequence_lines = []
        for line in lines[sq_at + 1:]:
            if line.strip() == "//":
                break
            # Trailing position counters are digits; decode() strips them.
            sequence_lines.append(line)
        dna = decode("".join(sequence_lines))

        return ParsedRecord(
            source=self.source,
            accession=accession,
            version=version,
            name=name,
            organism=organism,
            description=description,
            dna=dna,
            exons=exons,
            raw=text,
        )


class SwissProtWrapper(Wrapper):
    """Parses SwissProt-style protein records."""

    format_name = "swissprot"

    def parse_record(self, text: str) -> ParsedRecord:
        lines = text.splitlines()
        if not lines or not lines[0].startswith("ID"):
            raise WrapperError("not a SwissProt record (no ID line)")

        accession = required_line(lines, "AC", "SwissProt").rstrip(";")
        de_line = required_line(lines, "DE", "SwissProt")
        name = None
        name_match = re.search(r"Full=([^;]+)", de_line)
        description = name_match.group(1) if name_match else de_line
        gn_match = re.search(r"Name=([^;]+)", text)
        if gn_match:
            name = gn_match.group(1).strip()
        organism = required_line(lines, "OS", "SwissProt").rstrip(".")

        try:
            sq_at = next(i for i, line in enumerate(lines)
                         if line.startswith("SQ"))
        except StopIteration:
            raise WrapperError(
                f"SwissProt record {accession} has no SQ block"
            ) from None
        sequence_lines = []
        for line in lines[sq_at + 1:]:
            if line.strip() == "//":
                break
            sequence_lines.append(line)
        protein = decode_protein("".join(sequence_lines))

        return ParsedRecord(
            source=self.source,
            accession=accession,
            name=name,
            organism=organism,
            description=description,
            protein=protein,
            raw=text,
        )


class FastaWrapper(Wrapper):
    """Parses FASTA text (the lingua franca of self-generated data, C13)."""

    format_name = "fasta"

    def __init__(self, molecule: str = "dna") -> None:
        if molecule not in ("dna", "protein"):
            raise WrapperError(f"unknown molecule kind {molecule!r}")
        self.molecule = molecule

    def torn_tail(self, text: str) -> str:
        return ""  # no terminator: a prefix of a FASTA file is one too

    def split_snapshot(self, text: str) -> list[str]:
        records: list[str] = []
        current: list[str] = []
        for line in text.splitlines():
            if line.startswith(">") and current:
                records.append("\n".join(current) + "\n")
                current = []
            if line.strip():
                current.append(line)
        if current:
            records.append("\n".join(current) + "\n")
        return records

    def parse_record(self, text: str) -> ParsedRecord:
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].startswith(">"):
            raise WrapperError("not a FASTA record (no '>' header)")
        header = lines[0][1:].strip()
        parts = header.split(None, 1)
        accession = parts[0]
        description = parts[1] if len(parts) > 1 else None
        body = "".join(lines[1:])
        return ParsedRecord(
            source=self.source,
            accession=accession,
            description=description,
            dna=decode(body) if self.molecule == "dna" else None,
            protein=(decode_protein(body) if self.molecule == "protein"
                     else None),
            raw=text,
        )


def write_fasta(records: "list[tuple[str, str, str]]") -> str:
    """Render (accession, description, sequence text) triples as FASTA."""
    blocks = []
    for accession, description, sequence in records:
        header = f">{accession} {description}".rstrip()
        body = "\n".join(sequence[i:i + 70]
                         for i in range(0, len(sequence), 70))
        blocks.append(f"{header}\n{body}\n")
    return "".join(blocks)
