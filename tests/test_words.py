"""Tests for canonical words, pair-matched enumeration, and the Catalan check."""

import itertools

import pytest

from schurlsd.words import (
    Word,
    canonicalize,
    dihedral_images,
    enumerate_pair_matched,
    generating_positions,
    is_catalan,
    is_pair_matched,
    orbit_key,
)

from bruteforce import all_pair_matched, deletion_is_catalan


# --- canonical form -------------------------------------------------------------


def test_canonicalize_examples():
    assert str(canonicalize("baab")) == "abba"
    assert str(canonicalize("abab")) == "abab"
    assert str(canonicalize("ccdd")) == "aabb"


def test_canonicalize_accepts_arbitrary_symbols():
    assert canonicalize([10, 7, 7, 10]) == canonicalize("abba")
    assert canonicalize(("x", "y", "x", "y")) == canonicalize("abab")


def test_canonicalize_idempotent_and_permutation_invariant():
    for word in enumerate_pair_matched(6):
        text = str(word)
        assert canonicalize(text) == word
        # swap the roles of the letters; canonical form must not change
        for perm in itertools.permutations(sorted(set(text))):
            relabeled = text.translate(str.maketrans("".join(sorted(set(text))), "".join(perm)))
            assert canonicalize(relabeled) == word


def test_word_rejects_non_canonical_letters():
    with pytest.raises(ValueError):
        Word((2, 1, 1, 2))
    with pytest.raises(ValueError):
        Word((1, 3, 3, 1))
    with pytest.raises(ValueError):
        Word((0, 1))


def test_word_length_and_letter_count():
    w = canonicalize("abbcab")
    assert w.h == 6
    assert w.num_letters == 3


# --- enumeration ----------------------------------------------------------------


def test_enumeration_small_cases():
    assert [str(w) for w in enumerate_pair_matched(2)] == ["aa"]
    assert [str(w) for w in enumerate_pair_matched(4)] == ["aabb", "abab", "abba"]
    assert len(enumerate_pair_matched(6)) == 15


@pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10, 12])
def test_enumeration_count_formula(two_k):
    import math

    k = two_k // 2
    expected = math.factorial(two_k) // (2**k * math.factorial(k))
    words = enumerate_pair_matched(two_k)
    assert len(words) == expected
    assert len(set(words)) == expected
    assert all(is_pair_matched(w) for w in words)


@pytest.mark.parametrize("two_k", [2, 4, 6, 8])
def test_enumeration_matches_raw_pairing_construction(two_k):
    assert [str(w) for w in enumerate_pair_matched(two_k)] == all_pair_matched(two_k)


def test_enumeration_rejects_bad_lengths():
    for h in (0, -2, 3, 18):
        with pytest.raises(ValueError):
            enumerate_pair_matched(h)


# --- Catalan words ---------------------------------------------------------------


def test_catalan_examples():
    for text in ("abba", "aabbcc", "abccbdda"):
        assert is_catalan(canonicalize(text))
    for text in ("abab", "abccab", "abcddcab"):
        assert not is_catalan(canonicalize(text))


@pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10, 12])
def test_catalan_count_formula(two_k):
    import math

    k = two_k // 2
    expected = math.comb(two_k, k) // (k + 1)
    assert sum(is_catalan(w) for w in enumerate_pair_matched(two_k)) == expected


@pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10, 12])
def test_catalan_equals_literal_deletion(two_k):
    for word in enumerate_pair_matched(two_k):
        assert is_catalan(word) == deletion_is_catalan(str(word))


def test_catalan_rejects_non_pair_matched():
    with pytest.raises(ValueError):
        is_catalan(canonicalize("aab"))


# --- generating positions ---------------------------------------------------------


def test_generating_positions_examples():
    assert generating_positions(canonicalize("abbcab")) == {0, 1, 2, 4}
    assert generating_positions(canonicalize("aa")) == {0, 1}
    assert generating_positions(canonicalize("abab")) == {0, 1, 2}


@pytest.mark.parametrize("two_k", [2, 4, 6, 8])
def test_generating_positions_size(two_k):
    for word in enumerate_pair_matched(two_k):
        gen = generating_positions(word)
        assert len(gen) == word.num_letters + 1
        assert 0 in gen
        assert all(0 <= p <= word.h for p in gen)


# --- dihedral images and orbit keys -------------------------------------------------


def test_dihedral_images_rotate_and_reverse_every_word_together():
    images = dihedral_images((canonicalize("aabccb"), canonicalize("abcacb")))
    assert len(images) == 12
    assert images[0] == (canonicalize("aabccb"), canonicalize("abcacb"))
    # r = 1 reads "abccba" and "bcacba"; reversed, "abccba" and "abcacb"
    assert images[2] == (canonicalize("abccba"), canonicalize("abcbac"))
    assert images[3] == (canonicalize("abccba"), canonicalize("abcacb"))
    for image in images:
        assert dihedral_images(image)[0] == image
        assert set(dihedral_images(image)) == set(images)


def test_dihedral_images_reject_unequal_lengths():
    with pytest.raises(ValueError):
        dihedral_images((canonicalize("aa"), canonicalize("aabb")))


def test_orbit_counts_of_order_six_words_and_pairs():
    words = enumerate_pair_matched(6)
    assert len({orbit_key((w,)) for w in words}) == 5
    assert len({orbit_key((w, w)) for w in words}) == 5
    assert len({orbit_key((a, b)) for a in words for b in words if a != b}) == 34
    # the key is the least image, so it is its own key and lies in the orbit
    for w in words:
        key = orbit_key((w,))
        assert orbit_key(key) == key and key in dihedral_images((w,))
        assert key[0].letters == min(img[0].letters for img in dihedral_images((w,)))
    # order 4: abba rotates to aabb, abab is alone
    assert orbit_key((canonicalize("abba"),)) == (canonicalize("aabb"),)
    assert orbit_key((canonicalize("abab"),)) == (canonicalize("abab"),)
