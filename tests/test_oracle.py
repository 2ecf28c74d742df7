"""Tests for reference moments, assembled targets, bounds, and the moment-matrix check."""

from fractions import Fraction

import numpy as np
import pytest

from schurlsd.cli import _limit_targets
from schurlsd.oracle import (
    assemble_moments,
    catalan_number,
    moment_bound,
    pair_matched_count,
    semicircle_cdf,
)
from schurlsd.words import canonicalize, enumerate_pair_matched, is_catalan


# --- counting helpers -------------------------------------------------------------


def test_catalan_numbers():
    assert [catalan_number(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    with pytest.raises(ValueError):
        catalan_number(-1)


def test_pair_matched_counts():
    assert [pair_matched_count(two_k) for two_k in (2, 4, 6, 8)] == [1, 3, 15, 105]
    for bad in (0, 3, -2):
        with pytest.raises(ValueError):
            pair_matched_count(bad)


# --- semicircle moments ------------------------------------------------------------


def semicircle_moments(h_max: int) -> list[int]:
    """beta_1..beta_{h_max} of the standard semicircle: odd orders 0, order 2k
    the k-th Catalan number."""
    return [catalan_number(h // 2) if h % 2 == 0 else 0 for h in range(1, h_max + 1)]


def test_semicircle_moments_catalan_pattern():
    # the targets verify-table2 and moments gate rows 1-2 against, up to the top order 8
    targets, proofs = _limit_targets("semicircle", 8)
    assert proofs == {}
    assert list(targets) == [2, 4, 6, 8]
    for two_k, target in targets.items():
        assert target == {"value": float(semicircle_moments(8)[two_k - 1]),
                          "source": "semicircle"}
    assert semicircle_moments(8) == [0, 1, 0, 2, 0, 5, 0, 14]


def test_semicircle_cdf_hand_values():
    assert semicircle_cdf(-2.5) == 0.0
    assert semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-12)
    assert semicircle_cdf(0.0) == pytest.approx(0.5)
    assert semicircle_cdf(2.0) == pytest.approx(1.0)
    assert semicircle_cdf(3.0) == 1.0
    arr = semicircle_cdf(np.array([-3.0, 0.0, 3.0]))
    assert np.allclose(arr, [0.0, 0.5, 1.0])


def test_semicircle_cdf_moments_by_quadrature():
    """Stieltjes sums of x^h against the CDF reproduce the moment sequence."""
    xs = np.linspace(-2.0, 2.0, 2_000_001)
    cdf = semicircle_cdf(xs)
    mids = (xs[:-1] + xs[1:]) / 2.0
    steps = np.diff(cdf)
    for h, beta in enumerate(semicircle_moments(8), start=1):
        quad = float(np.sum(mids**h * steps))
        assert abs(quad - beta) <= 1e-6


# --- assembled targets ----------------------------------------------------------------


@pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10, 12])
def test_wigner_p_table_assembles_to_semicircle(two_k):
    p_table = {w: (1.0 if is_catalan(w) else 0.0) for w in enumerate_pair_matched(two_k)}
    assert assemble_moments(p_table, two_k) == float(catalan_number(two_k // 2))


def test_assemble_moments_errors():
    words = enumerate_pair_matched(4)
    with pytest.raises(ValueError):
        assemble_moments({}, 4)
    missing = {w: 1.0 for w in words[:-1]}
    with pytest.raises(ValueError, match=str(words[-1])):
        assemble_moments(missing, 4)
    wrong_len = {w: 1.0 for w in enumerate_pair_matched(6)}
    with pytest.raises(ValueError):
        assemble_moments(wrong_len, 4)


# --- bounds ------------------------------------------------------------------------------


def test_moment_bound_values():
    assert moment_bound(2, 1) == 1
    assert moment_bound(4, 1) == 3
    assert moment_bound(4, 2) == 12
    assert moment_bound(6, 1) == 15
    assert moment_bound(6, 2) == 120
    assert moment_bound(8, 2) == 105 * 16
    with pytest.raises(ValueError):
        moment_bound(4, 0)


def test_semicircle_respects_its_own_bound():
    ms = semicircle_moments(12)
    for two_k in (2, 4, 6, 8, 10, 12):
        assert ms[two_k - 1] <= moment_bound(two_k, 1)


# --- moment-matrix sanity ------------------------------------------------------------------


def moment_matrix_is_psd(moments) -> bool:
    """Is the Hankel matrix M[i, j] = beta_{i+j} (beta_0 = 1) of ``moments``
    (beta_1, ..., beta_2m) positive semidefinite? Exact symmetric elimination:
    a negative pivot, or a zero pivot with a nonzero rest of its row, fails.
    A sequence that fails is the moment sequence of no distribution."""
    beta = [Fraction(1), *map(Fraction, moments)]
    size = len(moments) // 2 + 1
    m = [[beta[i + j] for j in range(size)] for i in range(size)]
    for i in range(size):
        pivot = m[i][i]
        if pivot < 0 or (pivot == 0 and any(m[i][i + 1:])):
            return False
        if pivot == 0:
            continue
        for r in range(i + 1, size):
            factor = m[r][i] / pivot
            for c in range(i + 1, size):
                m[r][c] -= factor * m[i][c]
    return True


def test_moment_matrix_psd_for_semicircle():
    assert moment_matrix_is_psd(semicircle_moments(12))


@pytest.mark.parametrize("limit", ["toeplitz", "hankel", "revcirc"])
def test_exact_targets_of_rows_3_to_5_have_psd_moment_matrices(limit):
    # beta_0..beta_6 of the single-pattern limits, odd moments 0
    targets, _ = _limit_targets(limit, 6)
    moments = [Fraction(targets[h]["exact"]) if h % 2 == 0 else 0 for h in range(1, 7)]
    assert moment_matrix_is_psd(moments)
    moments[3] = moments[1] ** 2 - Fraction(1, 10**6)  # beta_4 just below beta_2^2
    assert not moment_matrix_is_psd(moments)


def test_moment_matrix_rejects_impossible_sequence():
    # beta_4 < beta_2^2 violates Cauchy-Schwarz, so no law has these moments
    assert not moment_matrix_is_psd([0, 1, 0, Fraction(1, 2)])
    # a singular but valid matrix: the two-point law on +-1
    assert moment_matrix_is_psd([0, 1, 0, 1, 0, 1])
