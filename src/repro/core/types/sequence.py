"""Compact, immutable genomic sequences.

Section 4.3 of the paper demands that genomic data types "not employ
pointer data structures in main memory but be embedded into compact storage
areas which can be efficiently transferred between main memory and disk".
:class:`PackedSequence` realizes that: symbols are stored as packed integer
codes in a single contiguous ``bytes`` buffer — 4 bits per symbol for
nucleotide alphabets (two bases per byte), 8 bits for the protein alphabet —
and :meth:`PackedSequence.to_bytes` / :meth:`PackedSequence.from_bytes`
move a sequence to and from disk with a single buffer copy.

Concrete classes:

- :class:`DnaSequence` — IUPAC DNA (including ambiguity codes).
- :class:`RnaSequence` — IUPAC RNA.
- :class:`ProteinSequence` — amino acids including stop ``*``.
"""

from __future__ import annotations

import struct
from binascii import hexlify, unhexlify
from typing import ClassVar, Iterator, Type, TypeVar

from repro.core.types.alphabet import (
    DNA,
    PROTEIN,
    RNA,
    Alphabet,
    alphabet_by_name,
)
from repro.errors import SequenceError

S = TypeVar("S", bound="PackedSequence")

# The nibble codec is two C calls over the whole buffer: a code is one hex
# digit, so packing is "spell the codes in hex, read the hex as bytes" and
# unpacking the reverse.  A code past 15 spells as a non-digit and is
# refused by ``unhexlify``.
_TO_HEX = b"0123456789abcdef" + b"?" * 240
_FROM_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _pack4(codes: bytes) -> bytes:
    """Pack one-code-per-byte data into two codes per byte (high, low)."""
    codes = bytes(codes)  # a copy of anything mutable: the pad is ours
    if len(codes) % 2:
        codes += b"\x00"
    return unhexlify(codes.translate(_TO_HEX))


def _unpack4(packed: bytes, length: int) -> bytes:
    """Inverse of :func:`_pack4`; *length* trims the possible pad code."""
    return hexlify(packed).translate(_FROM_HEX)[:length]


class PackedSequence:
    """Immutable sequence over a fixed alphabet, stored bit-packed.

    Subclasses set the class attribute :attr:`alphabet`.  Instances behave
    like immutable strings restricted to the alphabet: they support
    indexing, slicing (returning a sequence of the same type), iteration,
    concatenation, ``in``, ``count`` and ``find``, equality and hashing.
    """

    alphabet: ClassVar[Alphabet]
    #: Two codes to the byte?  Decided once per class, by its alphabet.
    _nibble: ClassVar[bool]

    #: ``_derived`` stays unset until :meth:`derive` first stores a fact.
    __slots__ = ("_packed", "_length", "_derived")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._nibble = cls.alphabet.bits_per_symbol <= 4

    def __init__(self, text: str = "") -> None:
        codes = self.alphabet.encode(text.upper())
        self._length = len(codes)
        self._packed = self._pack(codes)

    # -- packing helpers ----------------------------------------------------

    @classmethod
    def _pack(cls, codes: bytes) -> bytes:
        return _pack4(codes) if cls._nibble else bytes(codes)

    @classmethod
    def _unpack(cls, packed: bytes) -> bytes:
        """Every code of a packed buffer, a trailing pad code included:
        the buffer of one sequence, or of a page of them end to end."""
        return (_unpack4(packed, 2 * len(packed)) if cls._nibble
                else packed)

    def codes(self) -> bytes:
        """The sequence as one integer code per byte (unpacked form)."""
        if self._nibble:
            return _unpack4(self._packed, self._length)
        return self._packed

    @classmethod
    def from_codes(cls: Type[S], codes: bytes) -> S:
        """Build a sequence directly from unpacked integer codes."""
        if codes and max(codes) >= len(cls.alphabet):
            raise SequenceError(
                f"code {max(codes)} out of range for {cls.alphabet.name}"
            )
        return cls._from_packed(len(codes), cls._pack(codes))

    @classmethod
    def _from_packed(cls: Type[S], length: int, packed: bytes) -> S:
        """Adopt an already packed, already validated buffer.

        The only place a sequence comes to be without ``__init__``;
        callers vouch that *packed* is ``_pack`` of *length* in-range
        codes (a page or serialization this class wrote, or the output
        of ``_pack`` itself).
        """
        instance = cls.__new__(cls)
        instance._length = length
        instance._packed = packed
        return instance

    # -- string-like protocol ------------------------------------------------

    def __str__(self) -> str:
        return self.alphabet.decode(self.codes())

    def __repr__(self) -> str:
        text = str(self)
        shown = text if len(text) <= 40 else text[:37] + "..."
        return f"{type(self).__name__}({shown!r})"

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[str]:
        return iter(str(self))

    def __getitem__(self: S, item: int | slice) -> str | S:
        if isinstance(item, slice):
            return type(self).from_codes(self.codes()[item])
        if not -self._length <= item < self._length:
            raise IndexError("sequence index out of range")
        if item < 0:
            item += self._length
        if self._nibble:
            byte = self._packed[item // 2]
            code = (byte >> 4) if item % 2 == 0 else (byte & 0xF)
        else:
            code = self._packed[item]
        return self.alphabet.symbol(code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSequence):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._length == other._length
            and self._packed == other._packed
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._length, self._packed))

    def __add__(self: S, other: S) -> S:
        if type(other) is not type(self):
            raise SequenceError(
                f"cannot concatenate {type(self).__name__} "
                f"with {type(other).__name__}"
            )
        return type(self).from_codes(self.codes() + other.codes())

    def __mul__(self: S, times: int) -> S:
        return type(self).from_codes(self.codes() * times)

    def __contains__(self, other: object) -> bool:
        if isinstance(other, PackedSequence):
            return other.codes() in self.codes()
        if isinstance(other, str):
            return self.alphabet.encode(other.upper()) in self.codes()
        return False

    # -- searching -----------------------------------------------------------

    def _needle_codes(self, needle: "PackedSequence | str") -> bytes:
        if isinstance(needle, PackedSequence):
            return needle.codes()
        return self.alphabet.encode(needle.upper())

    def find(self, needle: "PackedSequence | str", start: int = 0) -> int:
        """Index of the first exact occurrence of *needle*, or ``-1``."""
        return self.codes().find(self._needle_codes(needle), start)

    def count(self, needle: "PackedSequence | str") -> int:
        """Number of non-overlapping exact occurrences of *needle*."""
        pattern = self._needle_codes(needle)
        if not pattern:
            return 0
        return self.codes().count(pattern)

    def count_symbol(self, symbol: str) -> int:
        """Number of positions holding exactly *symbol*."""
        code = self.alphabet.code(symbol.upper())
        return self.codes().count(code)

    def reverse(self: S) -> S:
        """The sequence read right-to-left (no complementing)."""
        return type(self).from_codes(self.codes()[::-1])

    # -- serialization (the "compact storage area" of section 4.3) -----------

    _HEADER = struct.Struct("<B8sI")

    def to_bytes(self) -> bytes:
        """Serialize to a compact, self-describing byte string.

        Layout: 1-byte name length, 8-byte padded alphabet name, 4-byte
        symbol count, then the packed payload.  The payload is the in-memory
        buffer itself — serialization is a header prepend, not a traversal.
        """
        name = self.alphabet.name.encode("ascii")[:8]
        header = self._HEADER.pack(len(name), name.ljust(8, b"\x00"),
                                   self._length)
        return header + self._packed

    @classmethod
    def from_bytes(cls: Type[S], data: bytes) -> S:
        """Inverse of :meth:`to_bytes` (validates the alphabet name)."""
        if len(data) < cls._HEADER.size:
            raise SequenceError("truncated sequence serialization")
        name_len, raw_name, length = cls._HEADER.unpack_from(data)
        name = raw_name[:name_len].decode("ascii")
        expected = cls.alphabet.name
        if name != expected:
            raise SequenceError(
                f"serialized alphabet {name!r} does not match {expected!r}"
            )
        packed = data[cls._HEADER.size:]
        nibble = cls._nibble
        expected_size = (length + 1) // 2 if nibble else length
        # An odd nibble-packed length ends in a pad nibble, which is zero:
        # equality and hashing read the packed bytes.
        if len(packed) != expected_size or (
                nibble and length % 2 and packed[-1] & 0xF):
            raise SequenceError("corrupt sequence serialization payload")
        return cls._from_packed(length, bytes(packed))

    @property
    def nbytes(self) -> int:
        """Size in bytes of the packed in-memory payload."""
        return len(self._packed)

    def derive(self, key: object, compute):
        """``compute(self)``, kept under *key* for the value's life: a
        value never changes.  A *compute* that raises keeps nothing, and
        equality, hashing and serialization never read what is kept."""
        try:
            return self._derived[key]
        except AttributeError:
            self._derived = {}
        except KeyError:
            pass
        fact = self._derived[key] = compute(self)
        return fact


class DnaSequence(PackedSequence):
    """A DNA sequence over the IUPAC DNA alphabet (4 bits per base)."""

    alphabet = DNA
    __slots__ = ()


class RnaSequence(PackedSequence):
    """An RNA sequence over the IUPAC RNA alphabet (4 bits per base)."""

    alphabet = RNA
    __slots__ = ()


class ProteinSequence(PackedSequence):
    """An amino-acid sequence (one byte per residue, stop = ``*``)."""

    alphabet = PROTEIN
    __slots__ = ()


_CLASS_BY_ALPHABET = {
    DNA.name: DnaSequence,
    RNA.name: RnaSequence,
    PROTEIN.name: ProteinSequence,
}


def sequence_class_for(alphabet: Alphabet | str) -> Type[PackedSequence]:
    """Return the sequence class for an alphabet (or alphabet name)."""
    name = alphabet if isinstance(alphabet, str) else alphabet.name
    try:
        return _CLASS_BY_ALPHABET[name]
    except KeyError:
        raise SequenceError(f"no sequence class for alphabet {name!r}") from None


def sequence_from_bytes(data: bytes) -> PackedSequence:
    """Deserialize any sequence, dispatching on the embedded alphabet name."""
    if len(data) < PackedSequence._HEADER.size:
        raise SequenceError("truncated sequence serialization")
    name_len, raw_name, _ = PackedSequence._HEADER.unpack_from(data)
    name = raw_name[:name_len].decode("ascii")
    alphabet_by_name(name)  # validates the name
    return sequence_class_for(name).from_bytes(data)
