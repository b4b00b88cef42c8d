"""Golden output of the flat-file sequence lines, byte for byte.

GenBank's ORIGIN, EMBL's SQ and SwissProt's SQ blocks share one
formatter (``Repository.sequence_block``: 60 residues a line in groups
of 10) and differ only in case and line decoration.  The digests
pin each format's whole rendered record at the lengths where the line
and group breaks fall: 0, 1, 59, 60, 61 and 600 residues.
"""

import hashlib

import pytest

from repro.sources import (
    EmblRepository,
    GenBankRepository,
    SwissProtRepository,
    Universe,
)
from repro.sources.base import Repository, SourceRecord

_UNIVERSE = Universe(seed=1, size=4)   # renderers only; never mutated
SEQUENCE = "".join("ACGT"[(index * index + index // 7) % 4]
                   for index in range(600))

GOLDEN = {
    GenBankRepository: {
        0: "d1f36dcb5fc7e22ee27fe385641908de1e1a81a57d69da40d96fc5af9b2ded80",
        1: "39d25f2e0f0f2b4cc85debe6541da399f779d5a3334d489bd43c4e04816d55aa",
        59: "2009cecc6762d556c254cfa2f7a33ef38d11d74236c268f2c94f165b5a680de0",
        60: "04285aa7569b0b703d989f2fec1adff73ecfc883e0175e9a0323b96672aa9d31",
        61: "063dcdec297e85ce948d4ed018945bcf40846b93017a986c5bf9f65b45793ff9",
        600: "96ab4d5d0b9b7519739994f191e75926a3224619e0440b3a4692013f90a60f43",
    },
    EmblRepository: {
        0: "0f1d7c6b252fa7f3805e76fa37ee58aa56c084b95f1d59ada7c063f38faba3f9",
        1: "8bce7eac9ef8d4ba5a48bb355d8ebb02c9608d69dfc8e2d86646013e2ecbda2d",
        59: "9ced540964fc8a65f2d5ca287ac9833dff7b1e16dbe36d24574746f5db9e93f6",
        60: "cae6e8d1fd7fece947830973ff776e11f38c81f2f6d857d9a69c3394a05212d0",
        61: "fdc5ff655bbf8c81a31759ad5ae0ad3054ff21f1261c3b783f93ac42a1379bbf",
        600: "83f50d87b0791138b17d6002d340b3aa8689534f89a239e35994ce73ca5a9a5d",
    },
    SwissProtRepository: {
        0: "25312474aaac29c49b814b145b0d01a60c3cc7173302b11c11cb9bf0856e7aee",
        1: "48005d654b6220f09bf00eb5e41ad55e0abbbbf37c6b14ce286961b745817f87",
        59: "f70cb26d8093642903685361d87bcdb9554d6a46528f905cc3db59b5446e0adf",
        60: "97b0a8e088c2192220a9a2a09903f700f5e7ed32ca4aae3c88984a35270211bf",
        61: "a19dd89241e6d4d1c4a96251d52e4ab957153f9941552e14cde2787ead1817f5",
        600: "b645e9ed446b0c82197145a0537bfffc8ff62195eb9f237a3914bc1400e72012",
    },
}

#: The 61-residue block of each format, spelled out.
BLOCK_61 = {
    GenBankRepository: (
        "        1 acacacagcg cgcggtgtgt gatatataac acacagcgcg cggtgtgtga"
        " tatataacac\n"
        "       61 a"),
    EmblRepository: (
        "     acacacagcg cgcggtgtgt gatatataac acacagcgcg cggtgtgtga"
        " tatataacac        60\n"
        "     a" + " " * 72 + "61"),
    SwissProtRepository: (
        "     ACACACAGCG CGCGGTGTGT GATATATAAC ACACAGCGCG CGGTGTGTGA"
        " TATATAACAC\n"
        "     A"),
}


def _record(length: int) -> SourceRecord:
    return SourceRecord("GA00001", 2, "abc1", "Homo sapiens", "Test gene",
                        SEQUENCE[:length], (), 1)


@pytest.mark.parametrize("archetype", sorted(GOLDEN, key=str),
                         ids=lambda archetype: archetype.__name__)
class TestSequenceBlockGolden:
    def test_rendered_records_match_the_digests(self, archetype):
        repository = archetype(_UNIVERSE)
        for length, digest in GOLDEN[archetype].items():
            text = repository.render_record(_record(length))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, length

    def test_the_61_residue_block(self, archetype):
        text = archetype(_UNIVERSE).render_record(_record(61))
        assert "\n" + BLOCK_61[archetype] + "\n//\n" in text


def test_the_template_sees_groups_and_one_based_bounds():
    block = Repository.sequence_block("A" * 65, "{start}-{end}:{groups}")
    assert block == ("1-60:" + " ".join(["A" * 10] * 6) + "\n"
                     "61-65:AAAAA")
    assert Repository.sequence_block("", "{groups}") == ""
