"""The synthetic ground truth behind every simulated repository.

The paper's substrate is the public repositories (GenBank, EMBL,
SwissProt, AceDB).  Offline, we replace them with repositories rendered
from a shared, seeded :class:`Universe` of gene specifications: each
logical gene exists once here, and each repository covers a subset of
them with its own per-source noise.  That overlap-with-noise structure is
exactly what drives the paper's integration problems — additive and
conflicting information across sources (B2), erroneous entries (B10) —
so the warehouse's reconciliation machinery has something real to do.

Everything is deterministic in the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.ops import express
from repro.core.types import DnaSequence, Gene, Interval, Protein

ORGANISMS = (
    "Escherichia coli",
    "Saccharomyces cerevisiae",
    "Drosophila melanogaster",
    "Homo sapiens",
    "Mus musculus",
    "Arabidopsis thaliana",
)

_GENE_STEMS = (
    "lac", "trp", "gal", "ara", "rec", "pol", "dna", "rna", "his",
    "leu", "met", "pro", "thr", "cys", "arg", "tyr", "ilv", "pur",
)

_DESCRIPTION_TEMPLATES = (
    "{name} gene, complete cds",
    "{organism} {name} gene for hypothetical protein",
    "{name}, putative transcription factor",
    "{name} gene, partial sequence",
    "gene {name}, {organism} strain K-12",
)

_STOP = "TAA"
_CODONS = [
    first + second + third
    for first in "ACGT" for second in "ACGT" for third in "ACGT"
    if first + second + third not in ("TAA", "TAG", "TGA")
]


@dataclass
class GeneSpec:
    """One ground-truth gene: identity, true sequence, structure, product."""

    accession: str
    name: str
    organism: str
    description: str
    gene: Gene
    protein: Protein

    @property
    def sequence_text(self) -> str:
        return str(self.gene.sequence)


def _random_coding_dna(rng: random.Random, codons: int) -> str:
    """A start codon, a stop-free codon body, and a stop codon."""
    body = "".join(rng.choice(_CODONS) for _ in range(codons))
    return "ATG" + body + _STOP


def _random_intron(rng: random.Random) -> str:
    length = rng.randrange(12, 60, 3)
    return "GT" + "".join(rng.choice("ACGT")
                          for _ in range(length - 4)) + "AG"


def make_gene_spec(rng: random.Random, index: int) -> GeneSpec:
    """Build one deterministic gene specification."""
    name = (rng.choice(_GENE_STEMS)
            + rng.choice("ABCDEFGH")
            + str(rng.randrange(1, 10)))
    organism = rng.choice(ORGANISMS)
    accession = f"GA{100000 + index}"

    exon_count = rng.choice((1, 1, 2, 3))
    exon_texts = [
        _random_coding_dna(rng, rng.randrange(10, 60))
        if i == 0 else
        "".join(rng.choice(_CODONS) for _ in range(rng.randrange(6, 30)))
        for i in range(exon_count)
    ]
    # Build the genomic span: exon, intron, exon, ...
    pieces: list[str] = []
    exons: list[Interval] = []
    position = 0
    for i, exon_text in enumerate(exon_texts):
        if i > 0:
            intron = _random_intron(rng)
            pieces.append(intron)
            position += len(intron)
        pieces.append(exon_text)
        exons.append(Interval(position, position + len(exon_text)))
        position += len(exon_text)

    # Ensure the spliced product still ends with a stop codon so the
    # gene expresses cleanly: append one in-frame stop to the last exon.
    spliced_length = sum(len(e) for e in exons)
    padding = (3 - spliced_length % 3) % 3
    tail = "A" * padding + _STOP
    pieces.append(tail)
    last = exons[-1]
    exons[-1] = Interval(last.start, last.end + len(tail))

    gene = Gene(
        name=name,
        sequence=DnaSequence("".join(pieces)),
        exons=tuple(exons),
        organism=organism,
        accession=accession,
    )
    description = rng.choice(_DESCRIPTION_TEMPLATES).format(
        name=name, organism=organism
    )
    return GeneSpec(
        accession=accession,
        name=name,
        organism=organism,
        description=description,
        gene=gene,
        protein=express(gene),
    )


class Universe:
    """A deterministic collection of ground-truth genes.

    ``genes[:initial]`` is what repositories start with; the rest is the
    pool new records are drawn from when a repository ``advance``\\ s.
    """

    def __init__(self, seed: int = 42, size: int = 120) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.genes: list[GeneSpec] = [
            make_gene_spec(rng, index) for index in range(size)
        ]
        self._by_accession = {spec.accession: spec for spec in self.genes}

    def spec(self, accession: str) -> GeneSpec:
        return self._by_accession[accession]

    def subset(self, fraction: float, rng: random.Random) -> list[GeneSpec]:
        """A random sample covering *fraction* of the universe."""
        count = max(1, int(len(self.genes) * fraction))
        return rng.sample(self.genes, count)


def corrupt_sequence(text: str, rng: random.Random,
                     mutations: int = 3) -> str:
    """Introduce point errors (substitutions) into sequence text (B10)."""
    if not text:
        return text
    symbols = list(text)
    for _ in range(mutations):
        position = rng.randrange(len(symbols))
        symbols[position] = rng.choice("ACGTN")
    return "".join(symbols)
