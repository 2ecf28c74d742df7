"""Reference moment targets: Catalan numbers, assembled per-word limits, bounds.

The Monte Carlo channel is judged against the targets produced here. For the
semicircle the even moments are Catalan numbers (``catalan_number``) and the
CDF has a closed form; for the other limit laws no closed-form density is
used anywhere, and targets are assembled by summing per-word limits over all
pair-matched words.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .words import enumerate_pair_matched

__all__ = [
    "assemble_moments",
    "catalan_number",
    "moment_bound",
    "pair_matched_count",
    "semicircle_cdf",
]


def catalan_number(k: int) -> int:
    if k < 0:
        raise ValueError(f"Catalan number needs k >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def pair_matched_count(two_k: int) -> int:
    """Number of pair-matched words of length 2k: (2k)! / (2^k k!)."""
    if two_k <= 0 or two_k % 2 != 0:
        raise ValueError(f"need a positive even length, got {two_k}")
    k = two_k // 2
    return math.factorial(two_k) // (2**k * math.factorial(k))


def assemble_moments(p_table: Mapping, two_k: int):
    """Sum per-word limits over all pair-matched words of length ``two_k``.

    ``p_table`` maps each word to its limit. The sum keeps the type of the
    limits: exact ``Fraction`` limits give an exact moment, floats a float.
    A missing word raises, naming the word.
    """
    words = enumerate_pair_matched(two_k)
    if not p_table:
        raise ValueError(f"empty p-table, expected entries for {len(words)} words")
    total = 0
    for w in words:
        if w not in p_table:
            raise ValueError(f"p-table is missing word {w}")
        total += p_table[w]
    return total


def moment_bound(two_k: int, delta: int) -> int:
    """Upper bound (2k)!/(2^k k!) * delta^k on the 2k-th limit moment."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    return pair_matched_count(two_k) * delta ** (two_k // 2)


def semicircle_cdf(x):
    """CDF of the standard semicircle law on [-2, 2]. Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    t = np.clip(arr, -2.0, 2.0)
    out = 0.5 + t * np.sqrt(4.0 - t * t) / (4.0 * np.pi) + np.arcsin(t / 2.0) / np.pi
    out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
