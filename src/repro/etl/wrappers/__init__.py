"""Source wrappers: native formats → GDT-bearing parsed records."""

from repro.errors import SettingError
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
    """The wrapper made for a simulated repository: its records name
    *source_name* as their ``source``."""
    if source_name not in WRAPPER_BY_SOURCE:
        raise SettingError(f"no wrapper for source {source_name!r}",
                           what="source", where="wrapper_for",
                           value=source_name)
    wrapper = WRAPPER_BY_SOURCE[source_name]()
    wrapper.source = source_name
    return wrapper


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
