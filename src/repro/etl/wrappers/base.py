"""Wrapper infrastructure: native record text → GDT-bearing parsed records.

"Extracting relevant new or changed data from the sources and
restructuring the data into the corresponding types provided by the
Genomics Algebra.  This is done by the sources wrappers." (section 5.1)

Each concrete wrapper understands one source format and produces
:class:`ParsedRecord` objects whose sequence fields are already packed
GDT values (``DnaSequence`` / ``ProteinSequence``) and whose structure
is expressed with :class:`~repro.core.types.Interval` — the "transfer of
these data into high-level, structured, and object-based GDT values" the
abstract promises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.types import DnaSequence, Interval, ProteinSequence
from repro.errors import ReproError, WrapperError

#: What ``parse_record`` may raise on garbled text: the garbage fails
#: wherever it landed (a header check, an ``int()``, the alphabet).
PARSE_FAILURES = (ReproError, ValueError, IndexError, KeyError)


@dataclass(frozen=True)
class ParsedRecord:
    """A source record after wrapping: identity + GDT values.

    The one record value from wrapper to answer: a mediated view, a
    staging row and the integrator's input.  A value: the mediator
    hands the same record to every query that meets the same source
    text, so nothing may change one in place.
    """

    #: The repository the wrapper was made for, by name (``wrapper_for``).
    source: str
    accession: str
    version: int = 1
    name: str | None = None
    organism: str | None = None
    description: str | None = None
    dna: DnaSequence | None = None
    protein: ProteinSequence | None = None
    exons: tuple[Interval, ...] = field(default_factory=tuple)
    raw: str = ""

    def __post_init__(self) -> None:
        if not self.accession:
            raise WrapperError("a parsed record needs an accession")
        object.__setattr__(self, "exons", tuple(self.exons))

    @property
    def sequence_text(self) -> str:
        """The DNA as text, a mediated gene's sequence (``""``: none)."""
        return "" if self.dna is None else str(self.dna)


_SPAN = re.compile(r"(\d+)\.\.(\d+)")


def parse_location(text: str) -> tuple[Interval, ...]:
    """Parse ``12..340`` / ``join(1..120,181..456)`` into intervals.

    Source coordinates are 1-based inclusive; the result is 0-based
    half-open.  Complement/order decorations are not produced by our
    simulated sources and are rejected explicitly.
    """
    text = text.strip()
    if text.startswith("complement") or text.startswith("order"):
        raise WrapperError(f"unsupported location decoration in {text!r}")
    spans = _SPAN.findall(text)
    if not spans:
        raise WrapperError(f"no spans found in location {text!r}")
    intervals = tuple(
        Interval(int(start) - 1, int(end)) for start, end in spans
    )
    for before, after in zip(intervals, intervals[1:]):
        if after.start < before.end:
            raise WrapperError(f"non-ascending location {text!r}")
    return intervals


class Wrapper:
    """Base class of all source wrappers.

    The snapshot law, which every wrapper obeys and the mediator's
    record reuse relies on: ``parse_snapshot(dump)`` is
    ``[parse_record(text) for text in split_snapshot(dump)]``, and each
    record's ``raw`` is the very ``text`` it was parsed from.
    """

    format_name: str = "abstract"
    #: What its records name as their source (``wrapper_for`` sets it).
    source: str = ""
    record_terminator: str = "//"

    def parse_record(self, text: str) -> ParsedRecord:
        raise NotImplementedError

    def torn_tail(self, text: str) -> str:
        """What follows the last complete record of a dump (``""`` for
        a whole one).

        The one truncation rule.  A transfer that died mid-payload
        loses its tail records *silently* to a splitter — it just finds
        fewer of them — so the monitors defer deletions on a non-empty
        tail and :meth:`split_snapshot` refuses the dump.  Flat files:
        the non-blank text after the last terminator line.
        """
        text = text.rstrip()
        if text.rpartition("\n")[2].strip() == self.record_terminator:
            return ""  # the usual case, without splitting the dump
        lines = text.splitlines()
        for at in range(len(lines) - 1, -1, -1):
            if lines[at].strip() == self.record_terminator:
                return "\n".join(lines[at + 1:])
        return "\n".join(lines)

    def refuse_torn(self, text: str) -> None:
        """Raise :class:`WrapperError` if *text* is a torn dump."""
        tail = self.torn_tail(text)
        if tail:
            raise WrapperError(
                f"torn {self.format_name} dump: {tail[-60:]!r} follows "
                f"the last complete record"
            )

    def split_snapshot(self, text: str) -> list[str]:
        """Split a full dump into individual record texts."""
        self.refuse_torn(text)
        return split_records(text, self.record_terminator)

    def parse_snapshot(self, text: str) -> list[ParsedRecord]:
        """Parse every record of a full dump."""
        return [self.parse_record(record)
                for record in self.split_snapshot(text)]


#: The ASCII line boundaries ``str.splitlines`` honours besides ``\n``
#: (each ruled out by a memchr-speed ``in``, never a regex scan).
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def split_records(text: str, terminator: str = "//") -> list[str]:
    """A dump's records (each up to its *terminator* line), torn tail
    dropped.  One ``str.split`` cuts a well-formed dump; the line loop
    runs whenever the two could read it differently: a line boundary
    other than ``\\n``, or a *terminator* that is not a bare line."""
    separator = f"\n{terminator}\n"
    pieces = text.split(separator)
    if (text.isascii() and not any(map(text.__contains__, _OTHER_BREAKS))
            and text.count(terminator) == len(pieces) - 1):
        return [piece + separator for piece in pieces[:-1]]
    records: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        current.append(line)
        if line.strip() == terminator:
            records.append("\n".join(current) + "\n")
            current = []
    return records


def required_line(lines: list[str], prefix: str, record: str) -> str:
    """The first line starting with *prefix* (payload only), or raise."""
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise WrapperError(f"missing {prefix.strip()!r} line in {record} record")
