"""Tests for exact circuit-class counting, exact limits, rank certificates, and relation checks.

Every counting path is pinned against the raw n^h enumeration in
``bruteforce`` at small n, then frozen values and structural invariants
cover the larger dimensions the raw oracle cannot reach.
"""

import gc
import itertools
from fractions import Fraction

import numpy as np
import pytest

import schurlsd.circuits as circuits
from schurlsd.circuits import (
    LABEL_BRANCHES,
    SearchBudgetError,
    check_compatible,
    check_implies_wigner,
    check_invariance_containment,
    check_leadsto_wigner,
    count_pi_prime,
    count_pi_star,
    count_pi_star_joint,
    fit_quasi_polynomial,
    limit,
    p_table,
)
from schurlsd.cli import TABLE2_ROWS
from schurlsd.linkfn import (
    builtin_link,
    compose,
    eval_link,
    pair_codes,
    parse_link,
    row_delta,
    square,
    table_transform,
    value_table,
)
from schurlsd.oracle import assemble_moments
from schurlsd.words import canonicalize, dihedral_images, enumerate_pair_matched, is_catalan
from schurlsd.words import orbit_key

from bruteforce import (
    RAW_LINKS,
    array_count,
    array_count_prime,
    raw_count_joint,
    raw_count_prime,
    raw_count_star,
)

ALL_LINKS = sorted(RAW_LINKS)
WORDS_4 = ["aa", "aabb", "abab", "abba"]


# --- oracle equivalence: the pruned search equals raw enumeration --------------------


@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("word", WORDS_4)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_star_counts_equal_raw_enumeration(kind, word, n):
    assert count_pi_star(kind, word, n).count == raw_count_star(kind, word, n)


@pytest.mark.parametrize("kind", ["toeplitz", "symcirc"])
@pytest.mark.parametrize("word", ["aa", "aabb", "abab", "abba"])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_prime_counts_equal_raw_enumeration(kind, word, n):
    assert count_pi_prime(kind, word, n).count == raw_count_prime(kind, word, n)


@pytest.mark.parametrize("wx,wy", list(itertools.product(["aabb", "abab", "abba"], repeat=2)))
def test_joint_counts_equal_raw_enumeration(wx, wy):
    got = count_pi_star_joint("toeplitz", "hankel", wx, wy, 8).count
    assert got == raw_count_joint("toeplitz", "hankel", wx, wy, 8)


def test_star_handles_higher_multiplicity_words():
    # four copies of one letter: not pair-matched, still a legal matched class
    assert count_pi_star("toeplitz", "aaaa", 8).count == raw_count_star("toeplitz", "aaaa", 8)
    assert count_pi_star("wigner", "aabab", 5).count == raw_count_star("wigner", "aabab", 5)


def test_star_sixth_order_spot_checks_against_raw():
    assert count_pi_star("wigner", "abcabc", 5).count == raw_count_star("wigner", "abcabc", 5)
    assert count_pi_star("toeplitz", "aabbcc", 5).count == raw_count_star("toeplitz", "aabbcc", 5)


# --- frozen values (raw-oracle numbers promoted to constants) --------------------------


def test_frozen_toeplitz_abab_counts():
    assert count_pi_star("toeplitz", "abab", 8).count == 400
    assert count_pi_prime("toeplitz", "abab", 8).count == 344


def test_frozen_joint_toeplitz_hankel_counts():
    assert count_pi_star_joint("toeplitz", "hankel", "abab", "abba", 8).count == 88
    assert count_pi_star_joint("toeplitz", "hankel", "abba", "abba", 8).count == 512


def test_frozen_wigner_sixth_order_counts():
    # Catalan words hit n^(k+1) exactly; the crossing word abcabc is lower order
    assert count_pi_star("wigner", "aabbcc", 5).count == 625
    assert count_pi_star("wigner", "abccba", 5).count == 625
    assert count_pi_star("wigner", "abcabc", 5).count == 145


def test_frozen_symcirc_prime_is_exactly_full_order():
    assert count_pi_prime("symcirc", "abab", 16).count == 16**3
    for word in enumerate_pair_matched(6):
        assert count_pi_prime("symcirc", word, 8).count == 8**4


def test_frozen_identical_toeplitz_joint_off_diagonal():
    assert count_pi_star_joint("toeplitz", "toeplitz", "aabb", "abba", 8).count == 112
    assert count_pi_star_joint("toeplitz", "toeplitz", "aabb", "abba", 16).count == 480
    assert raw_count_joint("toeplitz", "toeplitz", "aabb", "abba", 8) == 112


# --- structural invariants ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_wigner_aa_and_trivial_cases(kind):
    # every (pi0, pi1) works for the single-letter word under any link
    assert count_pi_star(kind, "aa", 5).count == 25


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_wigner_exactness_band(n):
    for two_k in (2, 4, 6):
        k = two_k // 2
        for word in enumerate_pair_matched(two_k):
            if not is_catalan(word):
                continue
            c = count_pi_star("wigner", word, n)
            ratio = c.count / n ** (k + 1)
            assert 1 - (k + 1) ** 2 / n <= ratio <= 1


@pytest.mark.parametrize("x,y", [("toeplitz", "hankel"), ("symcirc", "revcirc")])
def test_joint_monotonicity(x, y):
    for wx, wy in itertools.product(enumerate_pair_matched(4), repeat=2):
        joint = count_pi_star_joint(x, y, wx, wy, 8).count
        assert joint <= min(count_pi_star(x, wx, 8).count, count_pi_star(y, wy, 8).count)


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_identical_link_reduction(kind):
    for word in enumerate_pair_matched(4):
        joint = count_pi_star_joint(kind, kind, word, word, 8).count
        assert joint == count_pi_star(kind, word, 8).count


@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("n", [5, 8, 13])
def test_property_b_count_bound(kind, n):
    delta = row_delta(parse_link(kind), n)
    for word in enumerate_pair_matched(4):
        count = count_pi_star(kind, word, n).count
        assert count <= n ** (word.num_letters + 1) * delta ** (word.h - word.num_letters)


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_toeplitz_prime_close_to_star(n):
    for word in enumerate_pair_matched(4):
        star = count_pi_star("toeplitz", word, n).count
        prime = count_pi_prime("toeplitz", word, n).count
        assert abs(prime - star) / n**3 <= 4 / n


def test_count_is_chunking_invariant(monkeypatch):
    # forcing tiny frontier chunks must not change the exact count
    full = count_pi_star("toeplitz", "abab", 32).count
    joint_full = count_pi_star_joint("toeplitz", "hankel", "abab", "abab", 16).count
    monkeypatch.setattr(circuits, "MAX_FRONTIER_ROWS", 7)
    assert count_pi_star("toeplitz", "abab", 32).count == full
    monkeypatch.setattr(circuits, "MAX_FRONTIER_ROWS", 5)
    assert count_pi_star_joint("toeplitz", "hankel", "abab", "abab", 16).count == joint_full


@pytest.mark.parametrize("max_rows", [circuits.MAX_FRONTIER_ROWS, 7])
def test_counts_leave_no_cyclic_garbage(monkeypatch, max_rows):
    # a count that left reference cycles would keep its per-row label
    # indexes alive until a full collection, so peak memory would follow gc timing
    monkeypatch.setattr(circuits, "MAX_FRONTIER_ROWS", max_rows)
    gc.collect()
    gc.disable()
    try:
        count_pi_star("toeplitz", "abcabc", 12)
        assert gc.collect() == 0
        count_pi_star_joint("toeplitz", "hankel", "abab", "abab", 12)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- dihedral images: rotated or reversed word tuples count the same class -------------------

#: A composed link that merges Toeplitz labels 1 and 2, so it is not a relabeling
#: of a built-in link; labels 0..7 cover every n <= 8.
MERGED_TOEPLITZ = compose(
    table_transform({v: (1 if v == 2 else v) for v in range(8)}), builtin_link("toeplitz")
)


def raw_merged_toeplitz(i, j, n):
    return 1 if abs(i - j) == 2 else abs(i - j)


#: (package link, raw-oracle label) pairs: every built-in link and the composed one.
SINGLE_LINKS = [pytest.param(kind, kind, id=kind) for kind in ALL_LINKS] + [
    pytest.param(MERGED_TOEPLITZ, raw_merged_toeplitz, id="merged_toeplitz")
]
JOINT_LINKS = [
    pytest.param(("wigner", "wigner"), ("toeplitz", "toeplitz"), id="wigner*toeplitz"),
    pytest.param(("hankel", "hankel"), ("symcirc", "symcirc"), id="hankel*symcirc"),
    pytest.param(("revcirc", "revcirc"), ("dsymhankel", "dsymhankel"), id="revcirc*dsymhankel"),
    pytest.param(("toeplitz", "toeplitz"), (MERGED_TOEPLITZ, raw_merged_toeplitz),
                 id="toeplitz*merged_toeplitz"),
]
#: Order-6 pairs whose 12 images are all distinct pairs.
JOINT_PAIRS_6 = [("aabcbc", "abcacb"), ("ababcc", "abccba"), ("abaccb", "abcbca")]
DIHEDRAL_NS = [5, 6, 7]


def _words_up_to_6():
    return [w for two_k in (2, 4, 6) for w in enumerate_pair_matched(two_k)]


def _assert_images_count_like(words, systems, n, want):
    for image in set(dihedral_images(words)):
        got = circuits._enumerate(image, systems, n)
        assert got == want, ([str(w) for w in words], [str(w) for w in image], n)


@pytest.mark.parametrize("link,raw", SINGLE_LINKS)
@pytest.mark.parametrize("n", DIHEDRAL_NS)
def test_dihedral_images_of_words_count_like_raw_enumeration(link, raw, n):
    systems = [circuits._LinkSystem(*value_table(circuits._as_link(link), n))]
    for w in _words_up_to_6():
        want = array_count([raw], [str(w)], n)
        _assert_images_count_like((w,), systems, n, want)
        assert count_pi_star(link, w, n).count == want


@pytest.mark.parametrize("kind", ["toeplitz", "symcirc"])
@pytest.mark.parametrize("n", DIHEDRAL_NS)
def test_dihedral_images_of_slope_classes_count_like_raw_enumeration(kind, n):
    systems = [circuits._LinkSystem(*circuits._slope_table(kind, n))]
    for w in _words_up_to_6():
        want = array_count_prime(kind, str(w), n)
        _assert_images_count_like((w,), systems, n, want)
        assert count_pi_prime(kind, w, n).count == want


@pytest.mark.parametrize("x,y", JOINT_LINKS)
@pytest.mark.parametrize("n", DIHEDRAL_NS)
def test_dihedral_images_of_word_pairs_count_like_raw_enumeration(x, y, n):
    (link_x, raw_x), (link_y, raw_y) = x, y
    systems = [circuits._LinkSystem(*value_table(circuits._as_link(link), n))
               for link in (link_x, link_y)]
    pairs = [(wx, wy) for two_k in (2, 4) for wx, wy in
             itertools.product(enumerate_pair_matched(two_k), repeat=2)]
    pairs += [(canonicalize(a), canonicalize(b)) for a, b in JOINT_PAIRS_6]
    for wx, wy in pairs:
        want = array_count([raw_x, raw_y], [str(wx), str(wy)], n)
        _assert_images_count_like((wx, wy), systems, n, want)
        assert count_pi_star_joint(link_x, link_y, wx, wy, n).count == want


def test_array_oracle_matches_the_literal_enumeration():
    # the array form of the raw oracle must agree with the one-circuit-at-a-time loops
    for w in ["aabb", "abab", "abba", "abcabc", "aabccb"]:
        assert array_count(["symcirc"], [w], 5) == raw_count_star("symcirc", w, 5)
        assert array_count_prime("symcirc", w, 5) == raw_count_prime("symcirc", w, 5)
    assert array_count(["toeplitz", "hankel"], ["abab", "abba"], 8) == 88
    assert array_count(["wigner", "revcirc"], ["abcacb", "abcabc"], 5) == raw_count_joint(
        "wigner", "revcirc", "abcacb", "abcabc", 5
    )


def test_budget_guard_applies_to_the_enumerated_image(monkeypatch):
    # (abab, abba) has 2 free positions as written and 1 on its cheapest image
    monkeypatch.setattr(circuits, "NODE_BUDGET", 8**2)
    assert count_pi_star_joint("toeplitz", "hankel", "abab", "abba", 8).count == 88
    systems = [circuits._LinkSystem(*value_table(parse_link(k), 8))
               for k in ("toeplitz", "hankel")]
    words = (canonicalize("abab"), canonicalize("abba"))
    with pytest.raises(SearchBudgetError):
        circuits._enumerate(words, systems, 8)


# --- argument and budget errors -------------------------------------------------------------


def test_prime_rejects_unsupported_links_and_words():
    with pytest.raises(ValueError):
        count_pi_prime("hankel", "abab", 8)
    with pytest.raises(ValueError):
        count_pi_prime("toeplitz", "aab", 8)


def test_joint_rejects_length_mismatch():
    with pytest.raises(ValueError):
        count_pi_star_joint("toeplitz", "hankel", "aa", "aabb", 8)


def test_budget_guard_raises():
    with pytest.raises(SearchBudgetError):
        count_pi_star("toeplitz", "abcdefgh", 64)


# --- exact limits by quasi-polynomial interpolation -----------------------------------------


def test_p_table_shapes():
    table = p_table("toeplitz", 4)
    assert set(table) == set(enumerate_pair_matched(4))
    assert table[canonicalize("abab")].p == Fraction(2, 3)



@pytest.mark.parametrize("kind", ALL_LINKS)
@pytest.mark.parametrize("word", ["aa"] + WORDS_4[1:] + ["abcabc", "aabccb"])
def test_interpolator_consumes_counts_equal_to_raw_enumeration(kind, word):
    consumed = []

    def count(n):
        got = count_pi_star(kind, word, n).count
        if n <= 6:
            assert got == raw_count_star(kind, word, n), (kind, word, n)
        consumed.append(n)
        return got

    fit = fit_quasi_polynomial(count, len(word) // 2 + 1)
    assert consumed == list(range(1, fit.ns[1] + 1))
    _assert_settles_like_the_fit(limit((kind,), (word,)), fit)


@pytest.mark.parametrize(
    "kind,moments",
    [
        ("toeplitz", (1, Fraction(8, 3), 11)),
        ("hankel", (1, 2, Fraction(11, 2))),
        ("symcirc", (1, 3, 15)),
        ("revcirc", (1, 2, 6)),
        ("wigner", (1, 2, 5)),
    ],
)
def test_exact_limits_match_literature_moments(kind, moments):
    for two_k, expected in zip((2, 4, 6), moments):
        table = p_table(kind, two_k)
        beta = assemble_moments({w: f.p for w, f in table.items()}, two_k)
        assert beta == expected and isinstance(beta, Fraction), (kind, two_k, beta)
        if kind == "wigner":
            assert all(f.p == is_catalan(w) for w, f in table.items())


def test_exact_limit_periods():
    # Hankel counts are polynomials; Toeplitz aabb alternates with the parity of n
    assert limit(("hankel",), ("abcabc",)).period == 1
    fit = limit(("toeplitz",), ("aabb",))
    assert fit.period == 2 and fit.p == 1
    assert fit.ns == (1, 14)  # 2 classes x (4 fit + 3 held-out points)


def _assert_settles_like_the_fit(lim, fit):
    """A rank proof says p = 0, and the fit must agree; any other limit is the
    fit itself: p, period and n range."""
    if lim.proof == "rank":
        assert fit.p == 0 and lim.bound >= 1 and lim.nodes >= 1, (lim, fit)
    else:
        assert (lim.p, lim.proof, lim.period, lim.ns) == (fit.p, "fit", fit.period, fit.ns)


#: Every built-in link and the two composed links that share a built-in's branches.
RANK_FIRST_LINKS = ALL_LINKS + ["square(toeplitz)", "coprimepower(2,3,wigner)"]


@pytest.mark.parametrize("name", RANK_FIRST_LINKS)
@pytest.mark.parametrize("two_k", [2, 4, 6])
def test_rank_first_limits_agree_with_the_fit_on_every_word(name, two_k):
    # on these links the certificate proves exactly the words whose limit is 0
    for w in enumerate_pair_matched(two_k):
        fit = fit_quasi_polynomial(lambda n: count_pi_star(name, w, n).count, two_k // 2 + 1)
        lim = limit((name,), (w,))
        _assert_settles_like_the_fit(lim, fit)
        assert (lim.proof == "rank") == (fit.p == 0), (name, str(w), fit)


def test_limit_takes_one_or_two_classes_and_prime_for_one_only():
    # the certificate is for matched classes only: a slope class is fitted
    prime = limit(("symcirc",), ("abab",), "prime")
    assert (prime.p, prime.proof, prime.nodes) == (1, "fit", 0)
    for links, words, variant in ((("toeplitz",), ("ab", "ab"), "star"),
                                  (("toeplitz", "hankel"), ("aa", "aabb"), "star"),
                                  (("toeplitz", "symcirc"), ("abab", "abab"), "prime"),
                                  (("toeplitz",) * 3, ("aa",) * 3, "star")):
        with pytest.raises(ValueError):
            limit(links, words, variant)


def test_interpolator_rejects_a_broken_held_out_point():
    # n^3 on the four fit points of the first window, then off the polynomial
    # (and off every quasi-polynomial) from the first held-out point on
    def planted(n):
        return n**3 if n <= 4 else n**3 + 2**n

    with pytest.raises(SearchBudgetError, match="fit no quasi-polynomial"):
        fit_quasi_polynomial(planted, 3)
    assert fit_quasi_polynomial(lambda n: n**3 + 5 * n, 3).p == 1


def test_interpolator_rejects_disagreeing_leading_coefficients():
    # two exact polynomials whose leading coefficients alternate: no limit
    with pytest.raises(SearchBudgetError):
        fit_quasi_polynomial(lambda n: (2 + n % 2) * n**2, 2)


def test_period_cap_below_the_true_period_raises(monkeypatch):
    monkeypatch.setattr(circuits, "MAX_PERIOD", 1)
    with pytest.raises(SearchBudgetError, match="toeplitz word aabb"):
        limit(("toeplitz",), ("aabb",))
    monkeypatch.setattr(circuits, "MAX_PERIOD", 2)
    assert limit(("toeplitz",), ("aabb",)).p == 1


# --- relation checks --------------------------------------------------------------------------


def _raw_implies_wigner(x: str, y: str, n: int) -> bool:
    # literal quadruple scan over all pairs of cells
    lx, ly = RAW_LINKS[x], RAW_LINKS[y]
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    seen = {}
    for i, j in cells:
        key = (lx(i, j, n), ly(i, j, n))
        seen.setdefault(key, set()).add(frozenset((i, j)))
    return all(len(group) == 1 for group in seen.values())


def _scan_implies_wigner(x: str, y: str, n: int) -> bool:
    # per-cell scan: each cell's unordered index pair must be the one of the
    # first cell of its (L_X, L_Y) class
    codes_x, _ = value_table(parse_link(x), n)
    codes_y, k_y = value_table(parse_link(y), n)
    _, first, cls = np.unique(
        pair_codes(codes_x, codes_y, k_y).ravel(), return_index=True, return_inverse=True
    )
    i, j = np.divmod(np.arange(n * n), n)
    unordered = np.minimum(i, j) * n + np.maximum(i, j)
    return bool((unordered == unordered[first][cls]).all())


@pytest.mark.parametrize(
    "x,y,expected",
    [
        ("toeplitz", "hankel", True),
        ("toeplitz", "revcirc", False),
        ("wigner", "symcirc", True),
        ("wigner", "wigner", True),
    ],
)
def test_implies_wigner_frozen_verdicts(x, y, expected):
    for n in (10, 20, 50):
        assert check_implies_wigner(x, y, n) is expected


@pytest.mark.parametrize("x,y", list(itertools.combinations_with_replacement(ALL_LINKS, 2)))
def test_implies_wigner_matches_raw_scan(x, y):
    for n in (4, 7, 8):
        assert check_implies_wigner(x, y, n) == _raw_implies_wigner(x, y, n)


@pytest.mark.parametrize("x,y", list(itertools.product(
    [*ALL_LINKS, "square(toeplitz)", "coprimepower(2,3,wigner)"], repeat=2)))
def test_implies_wigner_class_count_matches_cell_scan(x, y):
    for n in range(1, 41):
        assert check_implies_wigner(x, y, n) is _scan_implies_wigner(x, y, n), n


def test_compatible_toeplitz_hankel():
    report = check_compatible("toeplitz", "hankel", 4)
    assert report.kind == "compatible"
    assert len(report.entries) == 6  # ordered off-diagonal pairs
    assert all(e.passed and e.limit.p == 0 and e.expected == 0 for e in report.entries)
    assert report.all_pass
    assert report.proofs == {"rank": 3, "fit": 0} and report.classes == 3


def test_compatible_symcirc_hankel():
    report = check_compatible("symcirc", "hankel", 4)
    assert report.all_pass


def test_compatible_identical_toeplitz_pairs_vanish_too():
    # identical links: every off-diagonal intersection is lower order as well,
    # so the compatibility verdict is a pass (counts grow like n^k)
    report = check_compatible("toeplitz", "toeplitz", 4)
    assert report.all_pass


@pytest.mark.parametrize(
    "x,y",
    [("toeplitz", "hankel"), ("toeplitz", "revcirc"), ("wigner", "wigner")],
)
def test_leadsto_wigner_catalan_pattern(x, y):
    report = check_leadsto_wigner(x, y, 4)
    assert report.kind == "leadsto"
    by_word = {str(e.word): e for e in report.entries}
    assert by_word["aabb"].expected == 1 and by_word["aabb"].limit.proof == "fit"
    assert by_word["abba"].expected == 1
    assert by_word["abab"].expected == 0 and by_word["abab"].limit.proof == "rank"
    assert report.all_pass


def test_sweeps_count_each_dihedral_orbit_once(monkeypatch):
    calls = []
    direct = circuits.limit

    def counted(*args, **kwargs):
        calls.append(args)
        return direct(*args, **kwargs)

    monkeypatch.setattr(circuits, "limit", counted)
    for check, orbits in ((check_compatible, 34), (check_leadsto_wigner, 5)):
        calls.clear()
        report = check("toeplitz", "hankel", 6)
        assert len(calls) == orbits
        assert report.classes == orbits == sum(report.proofs.values())
        for e in report.entries:
            # the certificate's size depends on the image walked, its verdict does not
            want = direct(("toeplitz", "hankel"), (e.word, e.word2))
            assert (e.limit.p, e.limit.proof) == (want.p, want.proof), (str(e.word), str(e.word2))


def test_invariance_and_p_table_count_each_word_orbit_once(monkeypatch):
    calls = []
    direct = circuits.count_pi_star

    def counted(*args, **kwargs):
        calls.append(args)
        return direct(*args, **kwargs)

    monkeypatch.setattr(circuits, "count_pi_star", counted)
    report = check_invariance_containment("toeplitz", "square(toeplitz)", 6, 8)
    assert len(report.entries) == 15 and report.classes == 5
    assert len(calls) == 2 * 5
    for e in report.entries:
        assert e.count_base == direct("toeplitz", e.word, 8).count
    table = p_table("hankel", 6)
    for w, lim in table.items():
        # only the certificate's size depends on which word of the orbit it walks
        want = limit(("hankel",), (w,))
        assert (lim.p, lim.proof) == (want.p, want.proof), str(w)
        if lim.proof == "fit":
            assert lim == want


# --- rank certificates ------------------------------------------------------------------------

#: The 11 products of Table 2 rows 1 and 2, whose limit is the semicircle.
ROW12_PRODUCTS = [pair for row in (1, 2) for pair in TABLE2_ROWS[row].products]


def _orbit_pairs(two_k):
    """One ordered word pair of order two_k per dihedral orbit."""
    seen = {}
    for pair in itertools.product(enumerate_pair_matched(two_k), repeat=2):
        seen.setdefault(orbit_key(pair), pair)
    return list(seen.values())


def _joint_fit(x, y, wx, wy):
    return fit_quasi_polynomial(
        lambda n: count_pi_star_joint(x, y, wx, wy, n).count, wx.h // 2 + 1
    )


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_label_branches_are_label_equality(kind):
    link = parse_link(kind)
    for n in range(1, 10):
        cells = list(itertools.product(range(1, n + 1), repeat=2))
        labels = {cell: eval_link(link, *cell, n) for cell in cells}
        for ends in itertools.product(cells, repeat=2):
            vertices = ends[0] + ends[1]
            in_a_branch = any(
                all(sum(c * v for c, v in zip(coeffs, vertices)) in {x * n for x in values}
                    for coeffs, values in branch)
                for branch in LABEL_BRANCHES[kind]
            )
            assert in_a_branch == (labels[ends[0]] == labels[ends[1]]), (kind, n, vertices)


@pytest.mark.parametrize("x,y", ROW12_PRODUCTS)
def test_rank_certificates_bound_raw_counts(x, y):
    # a certified class has at most bound * n^k circuits at every n
    cases = [(pair, range(1, 9)) for pair in _orbit_pairs(4)]
    if (x, y) in (("toeplitz", "hankel"), ("symcirc", "dsymhankel")):
        cases += [(pair, [7]) for pair in _orbit_pairs(6)]
    for (wx, wy), ns in cases:
        bound, nodes = circuits._rank_certificate((wx, wy), (x, y))
        assert nodes >= 1
        if bound is None:  # only the Catalan diagonal classes, whose limit is 1
            assert wx == wy and is_catalan(wx), (str(wx), str(wy))
            continue
        for n in ns:
            raw = array_count([x, y], [str(wx), str(wy)], n)
            assert raw <= bound * n ** (wx.h // 2), (str(wx), str(wy), n, raw, bound)


@pytest.mark.parametrize("kind", ALL_LINKS)
def test_rank_certificates_bound_raw_counts_of_every_short_word(kind):
    # odd lengths too: a piece of rank r holds n^(h - r) points, so a bound
    # on n^(h // 2) needs rank h - h // 2 (toeplitz aab has about 1.5 n^2
    # circuits, wigner a has n)
    for h in range(1, 6):
        words = dict.fromkeys(canonicalize(t) for t in itertools.product(range(h), repeat=h))
        for w in words:
            bound, _ = circuits._rank_certificate((w,), (kind,))
            if bound is None:
                continue
            for n in range(1, 6):
                raw = array_count([kind], [str(w)], n)
                assert raw <= bound * n ** (h // 2), (str(w), n, raw, bound)


@pytest.mark.parametrize(
    "x,y,two_k", [(x, y, 4) for x, y in ROW12_PRODUCTS] + [("toeplitz", "hankel", 6)]
)
def test_verdicts_equal_the_fitters_on_every_orbit(monkeypatch, x, y, two_k):
    # some off-diagonal dsymhankel classes of order 4 have period 8
    monkeypatch.setattr(circuits, "MAX_PERIOD", 8)
    for wx, wy in _orbit_pairs(two_k):
        lim = limit((x, y), (wx, wy))
        assert lim.p == _joint_fit(x, y, wx, wy).p, (str(wx), str(wy), lim)
        assert lim.p == (wx == wy and is_catalan(wx))


def test_negative_controls_stay_uncertified_and_fail():
    # toeplitz*toeplitz and hankel*hankel are the single-link classes, whose
    # crossing words keep a positive limit
    for link, two_k, word, p in (("toeplitz", 4, "abab", Fraction(2, 3)),
                                 ("hankel", 6, "abcabc", Fraction(1, 2))):
        w = canonicalize(word)
        assert circuits._rank_certificate((w, w), (link, link))[0] is None
        report = check_leadsto_wigner(link, link, two_k)
        entry = next(e for e in report.entries if e.word == w)
        assert (entry.limit.p, entry.limit.proof, entry.passed) == (p, "fit", False)
        assert not report.all_pass


def test_injective_composed_links_use_their_base_branches():
    for name, kind in (("square(square(toeplitz))", "toeplitz"),
                       ("coprimepower(2,3,wigner)", "wigner"),
                       ("square(wigner)", None),
                       ("coprimepower(2,3,toeplitz)", None)):
        assert circuits._branch_kind(parse_link(name)) == kind, name
    power = parse_link("coprimepower(2,3,wigner)")
    assert circuits._branch_kind(compose(square(), power)) is None
    composed = limit(("square(toeplitz)", "coprimepower(2,3,wigner)"), ("abab", "abba"))
    assert composed == limit(("toeplitz", "wigner"), ("abab", "abba"))
    assert composed.proof == "rank"
    # a table link, even one defined for every n the fit reaches, is only fitted
    wide = compose(table_transform({v: (1 if v == 2 else v) for v in range(64)}),
                   builtin_link("toeplitz"))
    assert circuits._branch_kind(wide) is None
    merged = limit((wide, "hankel"), ("aabb", "aabb"))
    assert (merged.p, merged.proof, merged.nodes) == (1, "fit", 0)


def test_unsettled_pair_raises_naming_it(monkeypatch):
    def nothing_fits(*args, **kwargs):
        raise SearchBudgetError("nothing fits")

    monkeypatch.setattr(circuits, "fit_quasi_polynomial", nothing_fits)
    with pytest.raises(SearchBudgetError, match=r"toeplitz\*toeplitz words abab, abab: nothing"):
        limit(("toeplitz", "toeplitz"), ("abab", "abab"))
    assert limit(("toeplitz", "hankel"), ("abab", "abba")).proof == "rank"


@pytest.mark.parametrize("sweep", [
    lambda two_k: check_compatible("toeplitz", "hankel", two_k),
    lambda two_k: check_leadsto_wigner("toeplitz", "hankel", two_k),
    lambda two_k: check_invariance_containment("toeplitz", "square(toeplitz)", two_k, 8),
])
def test_library_sweeps_cover_orders_four_to_the_cap(sweep):
    # at order 2 the only word is aa: a sweep there would compare nothing
    for two_k in (2, 3, circuits.MAX_SWEEP_ORDER + 2):
        with pytest.raises(ValueError, match="even orders 4.."):
            sweep(two_k)
    assert sweep(circuits.MIN_SWEEP_ORDER).two_k == 4


# --- invariance containment ---------------------------------------------------------------------


def test_invariance_square_toeplitz_equal_counts():
    report = check_invariance_containment("toeplitz", "square(toeplitz)", 4, 10)
    assert report.injective
    assert report.all_subset
    assert report.all_equal
    for entry in report.entries:
        assert entry.count_joint == entry.count_base == entry.count_composed


def test_invariance_collapse_subset_but_not_equal():
    collapse = {v: (1 if v == 2 else v) for v in range(10)}
    composed = compose(table_transform(collapse), builtin_link("toeplitz"))
    report = check_invariance_containment("toeplitz", composed, 4, 10)
    assert not report.injective
    assert report.all_subset
    assert not report.all_equal
    assert any(e.count_composed > e.count_base for e in report.entries)


def test_invariance_coprime_power_wigner_sixth_order():
    report = check_invariance_containment("wigner", "coprimepower(2,3,wigner)", 6, 8)
    assert report.injective
    assert report.all_subset
    assert report.all_equal
    assert len(report.entries) == 15


def test_invariance_counts_against_raw_oracle():
    # the collapse example, cross-checked by enumerating the composed link raw
    collapse = {v: (1 if v == 2 else v) for v in range(8)}
    composed = compose(table_transform(collapse), builtin_link("toeplitz"))
    report = check_invariance_containment("toeplitz", composed, 4, 8)
    for entry in report.entries:
        word = str(entry.word)
        assert entry.count_base == raw_count_star("toeplitz", word, 8)
        raw_composed = 0
        classes = [
            [p + 1 for p in range(len(word)) if word[p] == ch]
            for ch in dict.fromkeys(word)
        ]
        for pi in itertools.product(range(1, 9), repeat=4):
            path = pi + (pi[0],)
            labels = [eval_link(composed, path[t - 1], path[t], 8) for t in range(1, 5)]
            if all(labels[c[0] - 1] == labels[p - 1] for c in classes for p in c[1:]):
                raw_composed += 1
        assert entry.count_composed == raw_composed
