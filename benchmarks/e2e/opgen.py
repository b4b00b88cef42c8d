"""Seeded input generation and canonical answers.

Everything here draws from a ``random.Random`` the caller seeded with a
string, so one ``--seed`` gives one op list on every machine.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Sequence


#: Seed of the *data* (the source universe, the reads table) on every
#: run.  ``--seed`` drives which keys are asked for and in what order,
#: not what is stored: tables of one size and one content keep every
#: metric comparable from seed to seed.
DATA_SEED = 1203


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``cls`` is the op class its latency is reported under; a leading
    underscore marks untimed state generation (sources churning), which
    the harness executes but neither times nor counts.
    """

    cls: str
    payload: Any = None

    @property
    def timed(self) -> bool:
        return not self.cls.startswith("_")


def rng_for(seed: int, *scope: str) -> random.Random:
    """The generator for one (seed, scope) — string-seeded on purpose:
    ``tests/test_seed_audit.py`` scans this directory."""
    return random.Random(":".join([str(seed), *scope]))


class Zipf:
    """Draw from *items* with probability ∝ 1 / rank**s.

    The rank order is a seeded shuffle of *items*, so popularity is
    unrelated to storage order."""

    def __init__(self, items: Sequence, rng: random.Random,
                 s: float = 1.1) -> None:
        self.items = list(items)
        rng.shuffle(self.items)
        self._cumulative = list(itertools.accumulate(
            1.0 / rank ** s for rank in range(1, len(self.items) + 1)))

    def draw(self, rng: random.Random):
        point = rng.random() * self._cumulative[-1]
        return self.items[bisect.bisect_left(self._cumulative, point)]


def stratified(rng: random.Random, shares: dict[str, float],
               total: int) -> list[str]:
    """*total* class labels with each class at exactly its share
    (largest-remainder rounding), in seeded random order.  Exact shares
    keep the mix — and so every pooled percentile — the same from seed
    to seed; only the keys inside a class vary."""
    scale = total / sum(shares.values())
    counts = {name: int(share * scale) for name, share in shares.items()}
    by_remainder = sorted(
        shares, key=lambda name: shares[name] * scale - counts[name],
        reverse=True)
    for name in by_remainder[:total - sum(counts.values())]:
        counts[name] += 1
    labels = [name for name, count in counts.items()
              for __ in range(count)]
    rng.shuffle(labels)
    return labels


def random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ACGT") for __ in range(length))


def canon(value: Any) -> str:
    """A canonical text for one answer.

    Floats keep nine significant digits, so a change that only
    reassociates a sum still matches; everything else is exact."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canon(item) for item in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{canon(key)}:{canon(item)}"
            for key, item in sorted(value.items())) + "}"
    return repr(str(value))


def digest(texts: Sequence[str]) -> str:
    """SHA-256 over canonical answers, in order."""
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()
