"""The integrated schema of the Unifying Database (section 5.1).

Two spaces:

- **public space** — the restructured external data, read-only to users
  (``public_genes``, ``public_proteins``), plus the system bookkeeping
  that supports it (provenance, conflicts, staging, archive);
- **user space** — user-created data: private sequences and annotations,
  updateable by their owners.

Per the design discussion in section 5.2, this is a *bottom-up but
restructured* schema: one gene row regardless of how many sources
mention the gene (not GUS's 180 source-mirroring tables), with
denormalized columns (sequence, length, GC) for query performance and
the full GDT value alongside for algebra operations.
"""

from __future__ import annotations

from repro.db import Database

#: Tables in the read-only public space.
PUBLIC_TABLES = frozenset({
    "public_genes", "public_proteins", "provenance", "conflicts",
    "staging", "archive", "releases", "quarantine",
})

#: Tables users may write to.
USER_TABLES = frozenset({"user_sequences", "annotations"})

_DDL = [
    # -- public space -------------------------------------------------------
    """
    CREATE TABLE public_genes (
        accession TEXT PRIMARY KEY,
        name TEXT,
        organism TEXT,
        description TEXT,
        gene GENE,
        sequence DNA,
        length INTEGER,
        exon_count INTEGER,
        gc REAL,
        source_count INTEGER,
        updated_at INTEGER
    )
    """,
    """
    CREATE TABLE public_proteins (
        accession TEXT PRIMARY KEY,
        name TEXT,
        organism TEXT,
        protein PROTEIN,
        sequence PROTEIN_SEQ,
        length INTEGER,
        updated_at INTEGER
    )
    """,
    """
    CREATE TABLE provenance (
        delta_id TEXT,
        accession TEXT,
        source TEXT,
        source_version INTEGER,
        operation TEXT,
        loaded_at INTEGER
    )
    """,
    """
    CREATE TABLE conflicts (
        accession TEXT,
        field TEXT NOT NULL,
        readings ALTERNATIVES,
        detected_at INTEGER
    )
    """,
    """
    CREATE TABLE staging (
        skey TEXT PRIMARY KEY,
        source TEXT NOT NULL,
        accession TEXT NOT NULL,
        version INTEGER,
        name TEXT,
        organism TEXT,
        description TEXT,
        dna DNA,
        protein PROTEIN_SEQ,
        exons TEXT,
        updated_at INTEGER
    )
    """,
    """
    CREATE TABLE archive (
        accession TEXT NOT NULL,
        source TEXT NOT NULL,
        source_version INTEGER,
        record_text TEXT,
        archived_at INTEGER
    )
    """,
    """
    CREATE TABLE releases (
        source TEXT NOT NULL,
        release_number INTEGER,
        snapshot TEXT,
        archived_at INTEGER
    )
    """,
    """
    CREATE TABLE quarantine (
        source TEXT NOT NULL,
        accession TEXT,
        record_text TEXT,
        error TEXT,
        quarantined_at INTEGER
    )
    """,
    # -- user space ---------------------------------------------------------
    """
    CREATE TABLE user_sequences (
        id INTEGER PRIMARY KEY,
        owner TEXT NOT NULL,
        label TEXT,
        sequence DNA,
        created_at INTEGER
    )
    """,
    """
    CREATE TABLE annotations (
        id INTEGER PRIMARY KEY,
        owner TEXT NOT NULL,
        accession TEXT NOT NULL,
        note TEXT,
        created_at INTEGER,
        stale BOOLEAN
    )
    """,
]

_INDEX_DDL = [
    "CREATE INDEX idx_genes_organism ON public_genes (organism) USING hash",
    "CREATE INDEX idx_genes_length ON public_genes (length) USING btree",
    "CREATE INDEX idx_genes_seq ON public_genes (sequence) "
    "USING kmer WITH (k = 8)",
    "CREATE INDEX idx_staging_accession ON staging (accession) USING hash",
    "CREATE INDEX idx_prov_accession ON provenance (accession) USING hash",
    "CREATE INDEX idx_conflicts_accession ON conflicts (accession) "
    "USING hash",
    "CREATE INDEX idx_annotations_accession ON annotations (accession) "
    "USING hash",
    "CREATE INDEX idx_archive_accession ON archive (accession) USING hash",
]


def create_schema(database: Database, with_indexes: bool = True) -> None:
    """Create the integrated schema (and its indexes) in *database*."""
    for statement in _DDL:
        database.execute(statement)
    if with_indexes:
        for statement in _INDEX_DDL:
            database.execute(statement)


def is_public_table(name: str) -> bool:
    """True when *name* belongs to the read-only public space."""
    return name.lower() in PUBLIC_TABLES


def is_user_table(name: str) -> bool:
    """True when *name* is user-owned (and therefore updateable)."""
    return name.lower() in USER_TABLES
