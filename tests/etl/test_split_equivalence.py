"""The one-pass flat-file split ≡ the line loop it replaced.

``Wrapper.split_snapshot`` cuts a well-formed dump with one
``str.split`` and falls back to the line loop whenever the two could
read the text differently.  The loop below is that reference, kept
verbatim; dumps are drawn from whole rendered records and from the
pieces that tell the two readings apart — ``\\r\\n``, ``\\x85`` and the
other line boundaries ``str.splitlines`` honours, blanks, padded,
consecutive and leading ``//`` lines — and are torn at random.  The
split (or the ``WrapperError`` refusing a torn dump) and the monitors'
accession-keyed ``split_flat_snapshot`` must both agree exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import WrapperError
from repro.etl.diff import split_flat_snapshot
from repro.etl.diff.snapshot import _accession_of
from repro.etl.wrappers import EmblWrapper, GenBankWrapper, SwissProtWrapper
from repro.sources import (
    EmblRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
)

_UNIVERSE = Universe(seed=3, size=6)   # renderers only; never mutated

FORMATS = {
    "genbank": (GenBankRepository(_UNIVERSE), GenBankWrapper()),
    "embl": (EmblRepository(_UNIVERSE), EmblWrapper()),
    "swissprot": (SwissProtRepository(_UNIVERSE), SwissProtWrapper()),
}

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


def reference_flat(text: str) -> dict[str, str]:
    keyed = {}
    for record in reference_records(text):
        accession = _accession_of(record.splitlines())
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
