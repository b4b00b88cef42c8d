"""The one-pass flat-file split ≡ the line loop it replaced.

``Wrapper.split_snapshot`` cuts a well-formed dump with one
``str.split`` and falls back to the line loop whenever the two could
read the text differently.  The loop below is that reference, kept
verbatim; dumps are drawn from whole rendered records and from the
pieces that tell the two readings apart — ``\\r\\n``, ``\\x85`` and the
other line boundaries ``str.splitlines`` honours, blanks, padded,
consecutive and leading ``//`` lines — and are torn at random.  The
split (or the ``WrapperError`` refusing a torn dump) and the monitors'
accession-keyed ``split_flat_snapshot`` must both agree exactly.  The
accession key, read only to its line, is held to the whole-record
``splitlines`` walk it replaced, also kept verbatim, on every record
``split_records`` cuts.

The guard without a timer: every renderer's whole dump takes the
one-split path (a ``str`` whose ``splitlines`` raises passes through
it), and each line boundary in ``NOISE`` still sends a dump to the line
loop.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WrapperError
from repro.etl.diff import split_flat_snapshot
from repro.etl.diff.snapshot import _accession_of
from repro.etl.wrappers import EmblWrapper, GenBankWrapper, SwissProtWrapper
from repro.etl.wrappers.base import split_records
from repro.sources import (
    EmblRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
)

_UNIVERSE = Universe(seed=3, size=6)   # renderers only; never mutated
_LARGER = Universe(seed=11, size=60)


def _formats(universe: Universe) -> dict:
    return {
        "genbank": (GenBankRepository(universe), GenBankWrapper()),
        "embl": (EmblRepository(universe), EmblWrapper()),
        "swissprot": (SwissProtRepository(universe), SwissProtWrapper()),
    }


FORMATS = _formats(_UNIVERSE)

#: Whole records of each format, as their sources render them.
RECORDS = {
    name: [repository.render_record(repository.record_state(accession))
           for accession in repository.accessions()]
    for name, (repository, __) in FORMATS.items()
}

#: Pieces on which a one-pass cut and a line loop could disagree.
NOISE = ("//", "\n//\n", "//\n", " //", "// ", "\t//", "///", "\n", "\n\n",
         "\r\n", "\r", "\x85", "\u2028", "\x0b", "\x0c", "\x1c", "\x1d",
         "\x1e", "\x1f", " ", "x", "AC   Q00001;", "ACCESSION   Q00002")


def reference_records(text: str, terminator: str = "//") -> list[str]:
    """The line loop the flat-file splits ran before the one-pass cut."""
    records: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        current.append(line)
        if line.strip() == terminator:
            records.append("\n".join(current) + "\n")
            current = []
    return records


def reference_split(wrapper, text: str) -> list[str]:
    wrapper.refuse_torn(text)
    return reference_records(text, wrapper.record_terminator)


def reference_accession(lines: list[str]) -> str:
    """The accession walk the monitors ran over every whole record."""
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("ACCESSION"):
            fields = stripped.split()
            return fields[1] if len(fields) > 1 else stripped
        if stripped.startswith("AC "):
            return stripped.split()[1].rstrip(";")
    return lines[0].strip()


def reference_flat(text: str) -> dict[str, str]:
    keyed = {}
    for record in reference_records(text):
        accession = reference_accession(record.splitlines())
        if accession is not None:
            keyed[accession] = record
    return keyed


def outcome(split, *args):
    """What *split* answers, or which error it raises with what text."""
    try:
        return split(*args)
    except (WrapperError, IndexError) as error:
        return type(error).__name__, str(error)


@st.composite
def dumps(draw, name: str) -> str:
    records = st.sampled_from(RECORDS[name])
    parts = draw(st.one_of(
        st.lists(records, max_size=5),
        st.lists(st.one_of(records, st.sampled_from(NOISE)), max_size=12),
    ))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestOnePassSplitEqualsTheLineLoop:
    def _agree(self, name: str, text: str) -> None:
        wrapper = FORMATS[name][1]
        assert (outcome(wrapper.split_snapshot, text)
                == outcome(reference_split, wrapper, text))
        assert (outcome(split_flat_snapshot, text)
                == outcome(reference_flat, text))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), name=st.sampled_from(sorted(FORMATS)))
    def test_drawn_dumps(self, data, name):
        self._agree(name, data.draw(dumps(name)))

    def test_named_edge_cases(self):
        record = RECORDS["genbank"][0]
        whole = "".join(RECORDS["genbank"])
        for text in (
            "", "\n", "//", "//\n", "\n//\n", whole, whole + "\n\n",
            whole.replace("\n", "\r\n"), whole.replace("\n", "\x85"),
            record + "//\n" + record, "//\n" + whole, record + " //\n",
            record.replace("\n//\n", "\n//\n\n//\n"), record + record[:-3],
            whole.replace("ORIGIN", "ORIGIN\x1f"), record + "\x1c//\n",
        ):
            for name in FORMATS:
                self._agree(name, text)

    def test_a_whole_dump_splits_into_its_records(self):
        for name, (repository, wrapper) in FORMATS.items():
            dump = repository.snapshot()
            assert wrapper.split_snapshot(dump) == RECORDS[name]


#: Accession lines as a source could garble them.
ACCESSION_LINES = (
    "ACCESSION   GA100001", "AC   Q00001;", "ACCESSION", "ACCESSION   ",
    "  ACCESSION   GA100002  ", "\tAC   Q00002; Q00003;", "AC", "AC ",
    "ACCESSIONGA1", "ACC   X", "xAC   Q00004;", "AC   ;", "AC   Q00005",
    "ACCESSION   GA100003 GA100004", " AC\tQ00006;",
)

#: Lines that may come before an accession line, and what may cut them.
LEADS = ("", " ", "LOCUS       GA1", "ID   X", "DEFINITION  TRAC gene", "//")
BREAKS = ("", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x1f", "\x85", "\u2028")


@st.composite
def records(draw) -> str:
    """A dump of records with an accession line missing, garbled,
    padded, repeated, or preceded by a line any boundary cuts."""
    whole = draw(st.sampled_from(
        [record for rendered in RECORDS.values() for record in rendered]))
    lines = whole.split("\n")
    if draw(st.booleans()):
        lines = [line for line in lines
                 if not line.strip().startswith(("ACCESSION", "AC "))]
    for __ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), "".join(
            draw(st.sampled_from(pieces))
            for pieces in (LEADS, BREAKS, ACCESSION_LINES + ("",))))
    text = draw(st.sampled_from(("\n", "\r\n", "\n\n"))).join(lines)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))] + "\n//\n"
    return text


class TestTheAccessionKeyEqualsTheWholeRecordWalk:
    """On the records ``split_flat_snapshot`` keys: those
    ``split_records`` cuts, whose one line boundary is ``\\n``."""

    @staticmethod
    def _agree(text: str) -> None:
        for record in split_records(text):
            assert record.splitlines() == record.split("\n")[:-1]
            assert _accession_of(record) \
                == reference_accession(record.splitlines())

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=records())
    def test_drawn_records(self, text):
        self._agree(text)

    def test_named_records(self):
        for text in ("", "\n", "x", "\r\nAC   Q1;", "a\x0bAC   Q1;\nAC   Q2;",
                     "ID   X\n  AC   Q3;\n", "ACCESSION\n", " \n\nAC   Q4",
                     "AC   Q5;\x1cACCESSION   GA1\n//\n", "\tAC   Q6;",
                     "AC   ;", "ACCESSION   \x1f"):
            self._agree(text + "\n//\n")


class _NoLineLoop(str):
    """A ``str`` that refuses the line loop's ``splitlines``."""

    def splitlines(self, keepends=False):
        raise AssertionError("took the line loop")


class TestEveryRenderedDumpTakesTheOneSplitPath:
    def test_whole_dumps_split_once(self):
        for universe in (_UNIVERSE, _LARGER):
            for name, (repository, wrapper) in _formats(universe).items():
                dump = repository.snapshot()
                assert wrapper.split_snapshot(_NoLineLoop(dump)) \
                    == reference_split(wrapper, dump), name
                keyed = split_flat_snapshot(_NoLineLoop(dump))
                assert len(keyed) == len(repository.accessions()), name

    def test_rendered_records_key_by_their_accession(self):
        for universe in (_UNIVERSE, _LARGER):
            for repository, __ in _formats(universe).values():
                for accession in repository.accessions():
                    record = repository.render_record(
                        repository.record_state(accession))
                    assert _accession_of(record) == accession

    def test_each_other_boundary_forces_the_line_loop(self):
        dump = FORMATS["genbank"][0].snapshot()
        breaks = [piece for piece in NOISE if piece != "\n"
                  and len(piece) == 1 and piece.splitlines() == [""]]
        assert set("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028") == set(breaks)
        for piece in breaks:
            noisy = dump.replace("ORIGIN", "ORIGIN" + piece, 1)
            with pytest.raises(AssertionError, match="line loop"):
                split_records(_NoLineLoop(noisy))
