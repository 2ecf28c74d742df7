"""Independent raw-enumeration oracle used to pin expected counts in the tests.

Everything here is deliberately written from the definitions, without importing
the package under test: label formulas as literal arithmetic on 1-based index
pairs, circuit-class counts by enumerating all n^h raw circuits, and the
Catalan property by literally deleting adjacent double letters until stuck.
Slow but obviously correct; keep the sizes small.

``array_count`` is the same raw enumeration with all n^h circuits held in
one array: the labels still come from the literal formulas (or any label
callable, for composed links), read off once per index pair.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def wigner_label(i: int, j: int, n: int):
    return (min(i, j), max(i, j))


def toeplitz_label(i: int, j: int, n: int):
    return abs(i - j)


def hankel_label(i: int, j: int, n: int):
    return i + j


def symcirc_label(i: int, j: int, n: int):
    # literal n/2 - |n/2 - |i-j||, kept exact for odd n by doubling
    d = abs(i - j)
    return n - abs(n - 2 * d)


def revcirc_label(i: int, j: int, n: int):
    return (i + j) % n


def dsymhankel_label(i: int, j: int, n: int):
    # literal n/2 - |n/2 - (i+j mod n)|, kept exact for odd n by doubling
    m = (i + j) % n
    return n - abs(n - 2 * m)


RAW_LINKS = {
    "wigner": wigner_label,
    "toeplitz": toeplitz_label,
    "hankel": hankel_label,
    "symcirc": symcirc_label,
    "revcirc": revcirc_label,
    "dsymhankel": dsymhankel_label,
}


def letter_classes(word: str) -> list[list[int]]:
    """Positions 1..h grouped by letter, in first-appearance order."""
    groups: dict[str, list[int]] = {}
    for pos, ch in enumerate(word, start=1):
        groups.setdefault(ch, []).append(pos)
    return list(groups.values())


def _matches(labels: list, classes: list[list[int]]) -> bool:
    for cls in classes:
        first = labels[cls[0] - 1]
        for pos in cls[1:]:
            if labels[pos - 1] != first:
                return False
    return True


def _circuits(n: int, h: int):
    """All raw circuits as vertex tuples (pi(0), ..., pi(h)) with pi(h)=pi(0)."""
    for body in itertools.product(range(1, n + 1), repeat=h):
        yield body + (body[0],)


def raw_count_star(link: str, word: str, n: int) -> int:
    label = RAW_LINKS[link]
    classes = letter_classes(word)
    h = len(word)
    total = 0
    for pi in _circuits(n, h):
        labels = [label(pi[t - 1], pi[t], n) for t in range(1, h + 1)]
        if _matches(labels, classes):
            total += 1
    return total


def raw_count_prime(link: str, word: str, n: int) -> int:
    if link == "toeplitz":
        allowed = {0}
    elif link == "symcirc":
        allowed = {0, n, -n}
    else:
        raise ValueError(f"no slope form for {link!r}")
    classes = letter_classes(word)
    h = len(word)
    total = 0
    for pi in _circuits(n, h):
        slopes = [pi[t] - pi[t - 1] for t in range(1, h + 1)]
        ok = True
        for cls in classes:
            for a, b in itertools.combinations(cls, 2):
                if slopes[a - 1] + slopes[b - 1] not in allowed:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def raw_count_joint(link_x: str, link_y: str, word_x: str, word_y: str, n: int) -> int:
    if len(word_x) != len(word_y):
        raise ValueError("word length mismatch")
    label_x = RAW_LINKS[link_x]
    label_y = RAW_LINKS[link_y]
    classes_x = letter_classes(word_x)
    classes_y = letter_classes(word_y)
    h = len(word_x)
    total = 0
    for pi in _circuits(n, h):
        labels_x = [label_x(pi[t - 1], pi[t], n) for t in range(1, h + 1)]
        if not _matches(labels_x, classes_x):
            continue
        labels_y = [label_y(pi[t - 1], pi[t], n) for t in range(1, h + 1)]
        if _matches(labels_y, classes_y):
            total += 1
    return total


def _circuit_array(n: int, h: int):
    """All n^h raw circuits as columns: pi(0..h-1) and pi(1..h), 0-based."""
    pi = np.indices((n,) * h).reshape(h, -1)
    return pi, np.roll(pi, -1, axis=0)


def array_count(links, words, n: int) -> int:
    """raw_count_star (one word) or raw_count_joint (two), all circuits at once.

    ``links`` are names in ``RAW_LINKS`` or label callables ``(i, j, n)``, one
    per word.
    """
    pi, nxt = _circuit_array(n, len(words[0]))
    ok = np.ones(pi.shape[1], dtype=bool)
    for link, word in zip(links, words):
        label = RAW_LINKS[link] if isinstance(link, str) else link
        ids: dict = {}
        table = np.array(
            [[ids.setdefault(label(i, j, n), len(ids)) for j in range(1, n + 1)]
             for i in range(1, n + 1)]
        )
        labels = table[pi, nxt]
        for cls in letter_classes(word):
            for pos in cls[1:]:
                ok &= labels[pos - 1] == labels[cls[0] - 1]
    return int(np.count_nonzero(ok))


def array_count_prime(link: str, word: str, n: int) -> int:
    """raw_count_prime, all circuits at once."""
    allowed = {"toeplitz": [0], "symcirc": [-n, 0, n]}[link]
    pi, nxt = _circuit_array(n, len(word))
    s = nxt - pi
    ok = np.ones(pi.shape[1], dtype=bool)
    for cls in letter_classes(word):
        for a, b in itertools.combinations(cls, 2):
            ok &= np.isin(s[a - 1] + s[b - 1], allowed)
    return int(np.count_nonzero(ok))


def deletion_is_catalan(word: str) -> bool:
    """Literal reduction: repeatedly delete the first adjacent equal pair."""
    current = word
    while True:
        for i in range(len(current) - 1):
            if current[i] == current[i + 1]:
                current = current[:i] + current[i + 2 :]
                break
        else:
            return current == ""


def all_pair_matched(two_k: int) -> list[str]:
    """Every word of length 2k in which each letter appears exactly twice,
    spelled in canonical first-appearance order, built by pairing positions."""

    def pairings(positions: tuple[int, ...]):
        if not positions:
            yield []
            return
        first, rest = positions[0], positions[1:]
        for idx, partner in enumerate(rest):
            for tail in pairings(rest[:idx] + rest[idx + 1 :]):
                yield [(first, partner)] + tail

    words = set()
    for pairing in pairings(tuple(range(two_k))):
        letters = [""] * two_k
        for letter_idx, (a, b) in enumerate(sorted(pairing)):
            letters[a] = letters[b] = chr(ord("a") + letter_idx)
        words.add("".join(letters))
    return sorted(words)


def exact_ratio(count: int, n: int, two_k: int) -> Fraction:
    """count / n^(k+1) as an exact rational."""
    return Fraction(count, n ** (two_k // 2 + 1))
