"""Source wrappers: native formats → GDT-bearing parsed records."""

from repro.etl.wrappers.base import (
    PARSE_FAILURES,
    ParsedRecord,
    Wrapper,
    parse_location,
)
from repro.etl.wrappers.flatfile import (
    EmblWrapper,
    FastaWrapper,
    GenBankWrapper,
    SwissProtWrapper,
    write_fasta,
)
from repro.etl.wrappers.structured import AceWrapper, RelationalWrapper

#: Repository name → the wrapper that understands its native format.
WRAPPER_BY_SOURCE = {
    "GenBank": GenBankWrapper,
    "EMBL": EmblWrapper,
    "SwissProt": SwissProtWrapper,
    "TrEMBL": SwissProtWrapper,  # same flat format, uncurated content
    "AceDB": AceWrapper,
    "RelationalDB": RelationalWrapper,
}


def wrapper_for(source_name: str) -> Wrapper:
    """Instantiate the wrapper matching a simulated repository's name."""
    try:
        return WRAPPER_BY_SOURCE[source_name]()
    except KeyError:
        raise KeyError(f"no wrapper registered for source {source_name!r}")


__all__ = [
    "PARSE_FAILURES",
    "ParsedRecord",
    "Wrapper",
    "parse_location",
    "GenBankWrapper",
    "EmblWrapper",
    "SwissProtWrapper",
    "FastaWrapper",
    "write_fasta",
    "AceWrapper",
    "RelationalWrapper",
    "WRAPPER_BY_SOURCE",
    "wrapper_for",
]
