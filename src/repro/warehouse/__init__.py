"""The Unifying Database: warehouse, integrator, schema matcher."""

from repro.warehouse.integrator import (
    ConsolidatedRecord,
    DEFAULT_RELIABILITY,
    Integrator,
    StagedRecord,
)
from repro.warehouse.matching import (
    FieldMatch,
    SchemaMatcher,
    levenshtein,
    name_similarity,
    value_overlap,
)
from repro.warehouse.schema import (
    PUBLIC_TABLES,
    USER_TABLES,
    create_schema,
    is_public_table,
)
from repro.warehouse.assembly import (
    build_chromosome,
    build_genome,
    gene_density,
)
from repro.warehouse.quality import (
    AccuracyReport,
    SourceQuality,
    accuracy_against_truth,
    source_quality_report,
)
from repro.warehouse.warehouse import RefreshReport, UnifyingDatabase

__all__ = [
    "UnifyingDatabase",
    "RefreshReport",
    "SourceQuality",
    "AccuracyReport",
    "source_quality_report",
    "accuracy_against_truth",
    "build_chromosome",
    "build_genome",
    "gene_density",
    "Integrator",
    "StagedRecord",
    "ConsolidatedRecord",
    "DEFAULT_RELIABILITY",
    "SchemaMatcher",
    "FieldMatch",
    "levenshtein",
    "name_similarity",
    "value_overlap",
    "create_schema",
    "PUBLIC_TABLES",
    "USER_TABLES",
    "is_public_table",
]
