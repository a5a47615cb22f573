"""Alphabets with formal inverses, and words over them.

An alphabet is an ordered set of letters together with a fixed-point-free
involution x -> x^-1.  The letter order fixes the shortlex order on words.
Words are immutable; every operation returns a new word.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class Alphabet:
    """Ordered alphabet whose letters come in inverse pairs."""

    __slots__ = ("symbols", "inv", "_index")

    def __init__(self, symbols: Sequence[str], inverse_pairs: Iterable[tuple[str, str]]):
        self.symbols: tuple[str, ...] = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate letters in alphabet")
        if not self.symbols:
            raise ValueError("alphabet is empty")
        self._index = {s: i for i, s in enumerate(self.symbols)}
        inv: list[int | None] = [None] * len(self.symbols)
        for x, y in inverse_pairs:
            if x not in self._index or y not in self._index:
                raise ValueError(f"inverse pair ({x},{y}) uses unknown letters")
            i, j = self._index[x], self._index[y]
            if i == j:
                raise ValueError(f"letter {x} cannot be its own inverse")
            for k in (i, j):
                if inv[k] is not None and inv[k] not in (i, j):
                    raise ValueError(f"conflicting inverse for {self.symbols[k]}")
            inv[i], inv[j] = j, i
        missing = [self.symbols[i] for i, v in enumerate(inv) if v is None]
        if missing:
            raise ValueError(f"letters without an inverse: {' '.join(missing)}")
        self.inv: tuple[int, ...] = tuple(inv)  # type: ignore[arg-type]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, str]]) -> "Alphabet":
        """Build an alphabet from (letter, inverse) pairs, in that order.

        >>> Alphabet.from_pairs([("a", "A"), ("b", "B")]).symbols
        ('a', 'A', 'b', 'B')
        """
        symbols = [s for pair in pairs for s in pair]
        return cls(symbols, pairs)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Alphabet)
            and self.symbols == other.symbols
            and self.inv == other.inv
        )

    def __hash__(self) -> int:
        return hash((self.symbols, self.inv))

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.symbols)})"

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"unknown letter {symbol!r}") from None

    def inverse_index(self, i: int) -> int:
        return self.inv[i]

    def word(self, text: str) -> "Word":
        """Parse a word from single-character symbols.

        Only usable when every letter of the alphabet is one character,
        which is the default notation throughout (a/A, b/B, ...).
        """
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError("alphabet has multi-character letters; use word_of")
        return Word(self, [self.index(ch) for ch in text])

    def word_of(self, symbols: Iterable[str]) -> "Word":
        return Word(self, [self.index(s) for s in symbols])

    def empty_word(self) -> "Word":
        return Word(self, ())


class Word:
    """Immutable word: a tuple of letter indices into an alphabet."""

    __slots__ = ("alphabet", "indices")

    def __init__(self, alphabet: Alphabet, indices: Iterable[int]):
        self.alphabet = alphabet
        self.indices: tuple[int, ...] = tuple(indices)
        n = len(alphabet)
        for i in self.indices:
            if not 0 <= i < n:
                raise ValueError(f"letter index {i} out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Word(self.alphabet, self.indices[key])
        return self.indices[key]

    def __add__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return Word(self.alphabet, self.indices + other.indices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash(self.indices)

    def __str__(self) -> str:
        return "".join(self.alphabet.symbols[i] for i in self.indices)

    def __repr__(self) -> str:
        return f"Word({str(self) or 'ε'})"

    def is_freely_reduced(self) -> bool:
        inv = self.alphabet.inv
        return all(
            self.indices[i + 1] != inv[self.indices[i]]
            for i in range(len(self.indices) - 1)
        )


def free_reduce(w: Word) -> Word:
    """Cancel adjacent x·x^-1 pairs until none remain."""
    inv = w.alphabet.inv
    out: list[int] = []
    for i in w.indices:
        if out and out[-1] == inv[i]:
            out.pop()
        else:
            out.append(i)
    return Word(w.alphabet, out)


def invert_word(w: Word) -> Word:
    """The group inverse: reverse the word and invert each letter."""
    inv = w.alphabet.inv
    return Word(w.alphabet, [inv[i] for i in reversed(w.indices)])


def shortlex_key(w: Word):
    return (len(w.indices), w.indices)


def center_distance(w: Word, i: int) -> Fraction:
    """Distance of position i (1-based) from the center (n+1)/2 of w.

    Exact as a rational; a word of even length has a half-integer center.
    """
    n = len(w)
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside word of length {n}")
    return Fraction(abs(2 * i - (n + 1)), 2)
