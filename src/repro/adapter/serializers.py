"""Compact binary serializers for every GDT (the UDT storage format).

The engine stores opaque-UDT values as bytes it never interprets
(section 6.2).  These serializers define that byte format: packed
sequences use their native :meth:`~repro.core.types.sequence.PackedSequence.to_bytes`
buffer; composite entities (gene, transcript, protein, …) use a JSON
envelope whose sequence fields embed the packed buffers as hex — the
bulky part stays packed, the structure stays debuggable.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.types import (
    Alternatives,
    AnnotationSet,
    Feature,
    Gene,
    Interval,
    Location,
    MRna,
    PrimaryTranscript,
    Protein,
    Uncertain,
)
from repro.core.types.sequence import (
    DnaSequence,
    PackedSequence,
    ProteinSequence,
    RnaSequence,
    sequence_from_bytes,
)
from repro.errors import ReproError


class SerializationError(ReproError):
    """A GDT value could not be (de)serialized."""


# -- sequences ---------------------------------------------------------------

def serialize_sequence(sequence: PackedSequence) -> bytes:
    """A sequence's packed buffer; its class's ``from_bytes`` reads it."""
    return sequence.to_bytes()


# -- shared fragments -----------------------------------------------------------

def _intervals_to_json(intervals: tuple[Interval, ...]) -> list[list[int]]:
    return [[interval.start, interval.end] for interval in intervals]


def _intervals_from_json(spans: list[list[int]]) -> tuple[Interval, ...]:
    return tuple(Interval(start, end) for start, end in spans)


def _features_to_json(annotations: AnnotationSet) -> list[dict]:
    return [
        {
            "kind": feature.kind,
            "intervals": _intervals_to_json(feature.location.intervals),
            "strand": feature.location.strand,
            "qualifiers": dict(feature.qualifiers),
        }
        for feature in annotations
    ]


def _features_from_json(specs: list[dict]) -> AnnotationSet:
    return AnnotationSet(
        Feature(
            kind=spec["kind"],
            location=Location(_intervals_from_json(spec["intervals"]),
                              spec["strand"]),
            qualifiers=spec["qualifiers"],
        )
        for spec in specs
    )


def _pack(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _unpack(data: bytes, expected_kind: str) -> dict:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt GDT payload: {exc}") from exc
    if payload.get("kind") != expected_kind:
        raise SerializationError(
            f"expected a {expected_kind} payload, got "
            f"{payload.get('kind')!r}"
        )
    return payload


# -- entities --------------------------------------------------------------------

def serialize_gene(gene: Gene) -> bytes:
    return _pack({
        "kind": "gene",
        "name": gene.name,
        "sequence": gene.sequence.to_bytes().hex(),
        "exons": _intervals_to_json(gene.exons),
        "organism": gene.organism,
        "accession": gene.accession,
        "features": _features_to_json(gene.annotations),
    })


def deserialize_gene(data: bytes) -> Gene:
    payload = _unpack(data, "gene")
    return Gene(
        name=payload["name"],
        sequence=DnaSequence.from_bytes(bytes.fromhex(payload["sequence"])),
        exons=_intervals_from_json(payload["exons"]),
        organism=payload["organism"],
        accession=payload["accession"],
        annotations=_features_from_json(payload["features"]),
    )


def serialize_transcript(transcript: PrimaryTranscript) -> bytes:
    return _pack({
        "kind": "primarytranscript",
        "rna": transcript.rna.to_bytes().hex(),
        "exons": _intervals_to_json(transcript.exons),
        "gene_name": transcript.gene_name,
    })


def deserialize_transcript(data: bytes) -> PrimaryTranscript:
    payload = _unpack(data, "primarytranscript")
    return PrimaryTranscript(
        rna=RnaSequence.from_bytes(bytes.fromhex(payload["rna"])),
        exons=_intervals_from_json(payload["exons"]),
        gene_name=payload["gene_name"],
    )


def serialize_mrna(mrna: MRna) -> bytes:
    return _pack({
        "kind": "mrna",
        "rna": mrna.rna.to_bytes().hex(),
        "cds": ([mrna.cds.start, mrna.cds.end]
                if mrna.cds is not None else None),
        "gene_name": mrna.gene_name,
    })


def deserialize_mrna(data: bytes) -> MRna:
    payload = _unpack(data, "mrna")
    cds = payload["cds"]
    return MRna(
        rna=RnaSequence.from_bytes(bytes.fromhex(payload["rna"])),
        cds=Interval(cds[0], cds[1]) if cds is not None else None,
        gene_name=payload["gene_name"],
    )


def serialize_protein(protein: Protein) -> bytes:
    return _pack({
        "kind": "protein",
        "sequence": protein.sequence.to_bytes().hex(),
        "name": protein.name,
        "gene_name": protein.gene_name,
        "organism": protein.organism,
        "accession": protein.accession,
        "features": _features_to_json(protein.annotations),
    })


def deserialize_protein(data: bytes) -> Protein:
    payload = _unpack(data, "protein")
    return Protein(
        sequence=ProteinSequence.from_bytes(
            bytes.fromhex(payload["sequence"])
        ),
        name=payload["name"],
        gene_name=payload["gene_name"],
        organism=payload["organism"],
        accession=payload["accession"],
        annotations=_features_from_json(payload["features"]),
    )


# -- uncertainty --------------------------------------------------------------------

def _value_to_json(value: Any) -> dict:
    """Encode an Uncertain payload: sequences packed, scalars direct."""
    if isinstance(value, PackedSequence):
        return {"t": "seq", "v": value.to_bytes().hex()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return {"t": "scalar", "v": value}
    raise SerializationError(
        f"Alternatives over {type(value).__name__} are not serializable"
    )


def _value_from_json(spec: dict) -> Any:
    if spec["t"] == "seq":
        return sequence_from_bytes(bytes.fromhex(spec["v"]))
    return spec["v"]


def serialize_alternatives(alternatives: Alternatives) -> bytes:
    return _pack({
        "kind": "alternatives",
        "options": [
            {
                "value": _value_to_json(option.value),
                "confidence": option.confidence,
                "source": option.source,
            }
            for option in alternatives
        ],
    })


def deserialize_alternatives(data: bytes) -> Alternatives:
    payload = _unpack(data, "alternatives")
    return Alternatives(
        Uncertain(
            _value_from_json(option["value"]),
            option["confidence"],
            option["source"],
        )
        for option in payload["options"]
    )
