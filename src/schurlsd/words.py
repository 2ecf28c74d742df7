"""Canonical words over matched letters, the index alphabet of circuit counting.

A word encodes which positions of a closed index path must carry equal link
values: positions holding the same letter are matched. Words are kept in
canonical form (letters numbered by first appearance) so that each matching
pattern has exactly one representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "Word",
    "canonicalize",
    "dihedral_images",
    "enumerate_pair_matched",
    "generating_positions",
    "is_catalan",
    "is_pair_matched",
    "orbit_key",
]

MAX_ENUM_LENGTH = 16


@dataclass(frozen=True)
class Word:
    """Canonical word; ``letters`` are 1-based ids in first-appearance order."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        top = 0
        for x in self.letters:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValueError(f"word letters must be positive integers, got {x!r}")
            if x > top + 1:
                raise ValueError(
                    f"word {self.letters} is not canonical: letter {x} appears "
                    f"before letter {top + 1}"
                )
            top = max(top, x)

    @property
    def h(self) -> int:
        """Length of the word (number of path edges)."""
        return len(self.letters)

    @property
    def num_letters(self) -> int:
        return max(self.letters, default=0)

    def __str__(self) -> str:
        if self.num_letters <= 26:
            return "".join(chr(ord("a") + x - 1) for x in self.letters)
        return ".".join(str(x) for x in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def canonicalize(raw: Union[str, Sequence, Iterable]) -> Word:
    """Renumber symbols by first appearance: ``"baab"`` becomes ``abba``.

    Accepts a string or any sequence of hashable symbols. Idempotent on
    already-canonical words.
    """
    return Word(_canonical(raw))


def _canonical(raw: Iterable) -> tuple[int, ...]:
    """The letters of ``canonicalize(raw)``, without building a ``Word``."""
    ids: dict = {}
    return tuple(ids.setdefault(sym, len(ids) + 1) for sym in raw)


def dihedral_images(words: Sequence[Word]) -> list[tuple[Word, ...]]:
    """The 2h rotations and reflections of a tuple of equal-length words.

    Image (r, reversed) reads every word cyclically from position r + 1,
    backwards when reversed, and re-canonicalizes it; the same reading goes
    to all words of the tuple. A closed circuit read from another start, or
    backwards, is again a closed circuit over the same edges, so for links
    with L(i, j) = L(j, i) every image indexes a circuit class of the same
    size as the original (slopes only change sign, which keeps
    s(i) + s(j) in {0, +-n}). Images of symmetric tuples may repeat.
    """
    return [tuple(map(Word, image)) for image in _image_letters(words)]


def _image_letters(words: Sequence[Word]) -> list[tuple[tuple[int, ...], ...]]:
    """The letters of each word of each image of ``dihedral_images``."""
    h = words[0].h
    if any(w.h != h for w in words):
        raise ValueError(f"dihedral images need equal word lengths, got {[str(w) for w in words]}")
    images = []
    for r in range(h):
        rotated = [w.letters[r:] + w.letters[:r] for w in words]
        images.append(tuple(_canonical(x) for x in rotated))
        images.append(tuple(_canonical(x[::-1]) for x in rotated))
    return images


def orbit_key(words: Sequence[Word]) -> tuple[Word, ...]:
    """The lexicographically least dihedral image: equal keys, equal class sizes."""
    return tuple(map(Word, min(_image_letters(words))))


def is_pair_matched(word: Word) -> bool:
    """True when every letter occurs exactly twice."""
    counts: dict[int, int] = {}
    for x in word.letters:
        counts[x] = counts.get(x, 0) + 1
    return bool(counts) and all(c == 2 for c in counts.values())


def enumerate_pair_matched(h: int) -> list[Word]:
    """All canonical pair-matched words of length ``h``, in lexicographic order.

    There are h!/(2^(h/2) * (h/2)!) of them: 3 for h=4, 15 for h=6, 105 for
    h=8. ``h`` must be a positive even integer at most ``MAX_ENUM_LENGTH``.
    """
    if h <= 0 or h % 2 != 0:
        raise ValueError(f"word length must be positive and even, got {h}")
    if h > MAX_ENUM_LENGTH:
        raise ValueError(f"word length {h} exceeds enumeration cap {MAX_ENUM_LENGTH}")

    out: list[Word] = []
    slots = [0] * h

    def fill(next_letter: int) -> None:
        try:
            i = slots.index(0)
        except ValueError:
            out.append(Word(tuple(slots)))
            return
        slots[i] = next_letter
        for j in range(i + 1, h):
            if slots[j] == 0:
                slots[j] = next_letter
                fill(next_letter + 1)
                slots[j] = 0
        slots[i] = 0

    fill(1)
    out.sort(key=lambda w: w.letters)
    return out


def is_catalan(word: Word) -> bool:
    """True when the pair matching is non-crossing.

    Equivalent to the word reducing to the empty word by repeatedly deleting
    adjacent equal pairs. Requires a pair-matched word.
    """
    if not is_pair_matched(word):
        raise ValueError(f"is_catalan requires a pair-matched word, got {word}")
    stack: list[int] = []
    seen: set[int] = set()
    for x in word.letters:
        if x not in seen:
            seen.add(x)
            stack.append(x)
        else:
            if not stack or stack[-1] != x:
                return False
            stack.pop()
    return not stack


def generating_positions(word: Word) -> set[int]:
    """Position 0 plus the 1-based positions of first letter occurrences.

    These are the positions whose path vertex is a free choice; there are
    always ``num_letters + 1`` of them.
    """
    seen: set[int] = set()
    gen = {0}
    for pos, x in enumerate(word.letters, start=1):
        if x not in seen:
            seen.add(x)
            gen.add(pos)
    return gen
